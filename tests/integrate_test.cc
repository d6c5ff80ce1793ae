#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "align/alite_matcher.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "integrate/tuple_codes.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

Alignment AlignSet(const std::vector<const Table*>& tables) {
  AliteMatcher matcher;
  auto r = matcher.Align(tables);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Returns the row index whose provenance equals `prov`, or npos.
size_t RowWithProv(const Table& t, std::vector<std::string> prov) {
  std::sort(prov.begin(), prov.end());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.provenance(r) == prov) return r;
  }
  return static_cast<size_t>(-1);
}

// ----------------------------------------------------------- primitives

TEST(TupleCodecTest, ExtremeDoublesEncodeWithoutOverflow) {
  // TupleCodec::Encode folds integral doubles into their int64 class, but
  // the cast is range-guarded: values at/above 2^63, ±1e300, and NaN must
  // take the raw-bits path (no float→int overflow, which is UB) while
  // keeping Identical() semantics — NaN never equals itself, 5 == 5.0.
  Table t("extremes", Schema::FromNames({"v"}));
  const double two63 = 9223372036854775808.0;  // 2^63, exactly representable
  ASSERT_TRUE(t.AddRow({Value::Double(two63)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(two63)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(-two63)}).ok());  // int64 min: foldable
  ASSERT_TRUE(t.AddRow({Value::Double(1e300)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(-1e300)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(std::nan(""))}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(std::nan(""))}).ok());
  ASSERT_TRUE(t.AddRow({Value::Int(5)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(5.0)}).ok());
  TupleCodec codec;
  std::vector<uint32_t> codes = codec.EncodeTable(t);
  ASSERT_EQ(codes.size(), 9u);
  EXPECT_EQ(codes[0], codes[1]);  // 2^63 is a single equivalence class
  EXPECT_NE(codes[0], codes[2]);
  EXPECT_NE(codes[3], codes[4]);
  EXPECT_NE(codes[5], codes[6]);  // each NaN occurrence is its own class
  EXPECT_EQ(codes[7], codes[8]);  // 5 and 5.0 fold together
  for (uint32_t c : codes) EXPECT_FALSE(CodeIsNull(c));
}

TEST(TupleOpsTest, SubsumptionBasics) {
  Row a = {Value::String("x"), Value::Null()};
  Row b = {Value::String("x"), Value::Int(3)};
  EXPECT_TRUE(TupleSubsumedBy(a, b));
  EXPECT_FALSE(TupleSubsumedBy(b, a));
  EXPECT_TRUE(TupleSubsumedBy(a, a));
  Row c = {Value::String("y"), Value::Int(3)};
  EXPECT_FALSE(TupleSubsumedBy(b, c));
  // All-null is subsumed by anything.
  Row nulls = {Value::Null(), Value::ProducedNull()};
  EXPECT_TRUE(TupleSubsumedBy(nulls, b));
}

TEST(TupleOpsTest, ComplementRequiresSharedAgreement) {
  Row a = {Value::String("x"), Value::Int(1), Value::Null()};
  Row b = {Value::String("x"), Value::Null(), Value::Int(2)};
  EXPECT_TRUE(TuplesComplement(a, b));
  // Conflict on a shared attribute.
  Row c = {Value::String("y"), Value::Null(), Value::Int(2)};
  EXPECT_FALSE(TuplesComplement(a, c));
  // No shared non-null attribute.
  Row d = {Value::Null(), Value::Null(), Value::Int(2)};
  EXPECT_FALSE(TuplesComplement(a, d));
}

TEST(TupleOpsTest, MergePrefersValuesThenMissingNulls) {
  Row a = {Value::String("x"), Value::Null(), Value::ProducedNull()};
  Row b = {Value::String("x"), Value::Int(4), Value::ProducedNull()};
  Row m = MergeTuples(a, b);
  EXPECT_EQ(m[0].as_string(), "x");
  EXPECT_EQ(m[1].as_int(), 4);
  EXPECT_TRUE(m[2].is_produced_null());
  // missing + produced -> missing.
  Row c = {Value::Null(), Value::Null(), Value::Null()};
  Row d = {Value::ProducedNull(), Value::ProducedNull(), Value::Int(1)};
  Row m2 = MergeTuples(c, d);
  EXPECT_TRUE(m2[0].is_missing_null());
  EXPECT_TRUE(m2[1].is_missing_null());
  EXPECT_EQ(m2[2].as_int(), 1);
}

TEST(OuterUnionTest, PadsWithProducedNulls) {
  Table t1 = paper::MakeT1();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t3};
  Alignment a = AlignSet(tables);
  auto u = BuildOuterUnion(tables, a, "u");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->num_rows(), 7u);
  EXPECT_EQ(u->num_columns(), 5u);
  // T1 rows have produced nulls in T3-only attributes.
  size_t r = RowWithProv(*u, {"t1"});
  ASSERT_NE(r, static_cast<size_t>(-1));
  size_t produced = 0;
  for (size_t c = 0; c < u->num_columns(); ++c) {
    if (u->at(r, c).is_produced_null()) ++produced;
  }
  EXPECT_EQ(produced, 2u);
}

// ------------------------------------------------- Fig. 3 reproduction

TEST(FullDisjunctionTest, ReproducesPaperFigure3) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Table expected = paper::MakeFig3Expected();
  EXPECT_EQ(r->num_rows(), 7u);
  EXPECT_TRUE(r->SameRowsAs(expected)) << r->ToPrettyString();
  // Check the paper's TIDs: f1 = {t1, t7}, f6 = {t6, t9}, f7 = {t10}.
  EXPECT_NE(RowWithProv(*r, {"t1", "t7"}), static_cast<size_t>(-1));
  EXPECT_NE(RowWithProv(*r, {"t6", "t9"}), static_cast<size_t>(-1));
  EXPECT_NE(RowWithProv(*r, {"t10"}), static_cast<size_t>(-1));
  // f5 keeps Mexico City's missing (±) vaccination rate.
  size_t f5 = RowWithProv(*r, {"t5"});
  ASSERT_NE(f5, static_cast<size_t>(-1));
  bool has_missing = false;
  for (size_t c = 0; c < r->num_columns(); ++c) {
    if (r->at(f5, c).is_missing_null()) has_missing = true;
  }
  EXPECT_TRUE(has_missing);
}

// ------------------------------------------------- Fig. 8 reproduction

class VaccineSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t4_ = paper::MakeT4();
    t5_ = paper::MakeT5();
    t6_ = paper::MakeT6();
    tables_ = {&t4_, &t5_, &t6_};
    alignment_ = AlignSet(tables_);
  }
  Table t4_, t5_, t6_;
  std::vector<const Table*> tables_;
  Alignment alignment_;
};

TEST_F(VaccineSetTest, FdReproducesFigure8b) {
  FullDisjunction fd;
  auto r = fd.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Fig. 8(b): exactly 3 tuples — f8, f12, f13.
  EXPECT_EQ(r->num_rows(), 3u) << r->ToPrettyString();
  // f8 = {t11, t13}: Pfizer, FDA, United States.
  size_t f8 = RowWithProv(*r, {"t11", "t13"});
  ASSERT_NE(f8, static_cast<size_t>(-1));
  // f13 = {t13, t15}: J&J, FDA, United States — the fact outer join loses.
  size_t f13 = RowWithProv(*r, {"t13", "t15"});
  ASSERT_NE(f13, static_cast<size_t>(-1));
  bool jnj_fda = false;
  for (size_t c = 0; c < r->num_columns(); ++c) {
    if (!r->at(f13, c).is_null() && r->at(f13, c).ToCsvString() == "J&J") {
      jnj_fda = true;
    }
  }
  EXPECT_TRUE(jnj_fda);
  // f12 merges t12, t14, t16: JnJ / USA.
  size_t f12 = RowWithProv(*r, {"t12", "t14", "t16"});
  EXPECT_NE(f12, static_cast<size_t>(-1)) << r->ToPrettyString();
}

TEST_F(VaccineSetTest, OuterJoinReproducesFigure8a) {
  OuterJoinIntegration oj;
  auto r = oj.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Fig. 8(a): 5 tuples f8..f12.
  EXPECT_EQ(r->num_rows(), 5u) << r->ToPrettyString();
  // The J&J-approver connection is lost: no row has both J&J and FDA.
  for (size_t row = 0; row < r->num_rows(); ++row) {
    bool jnj = false;
    bool fda = false;
    bool pfizer = false;
    for (size_t c = 0; c < r->num_columns(); ++c) {
      if (r->at(row, c).is_null()) continue;
      std::string s = r->at(row, c).ToCsvString();
      if (s == "J&J") jnj = true;
      if (s == "FDA") fda = true;
      if (s == "Pfizer") pfizer = true;
    }
    EXPECT_FALSE(jnj && fda && !pfizer)
        << "outer join must not connect J&J to FDA";
  }
}

TEST_F(VaccineSetTest, FdIsOrderIndependentOuterJoinIsNot) {
  FullDisjunction fd;
  std::vector<const Table*> reversed = {&t6_, &t5_, &t4_};
  AliteMatcher matcher;
  auto align_rev = matcher.Align(reversed);
  ASSERT_TRUE(align_rev.ok());
  auto fd1 = fd.Integrate(tables_, alignment_);
  auto fd2 = fd.Integrate(reversed, *align_rev);
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  // Column ORDER follows first appearance and differs across input orders;
  // compare as relations by projecting fd2 into fd1's column order.
  std::vector<size_t> proj;
  for (size_t c = 0; c < fd1->num_columns(); ++c) {
    size_t idx = fd2->schema().IndexOf(fd1->schema().column(c).name);
    ASSERT_NE(idx, Schema::npos) << fd1->schema().column(c).name;
    proj.push_back(idx);
  }
  Table fd2_reordered = fd2->ProjectColumns(proj, "fd2r");
  EXPECT_TRUE(fd1->SameRowsAs(fd2_reordered))
      << "FD must be associative/order-independent";
}

TEST_F(VaccineSetTest, ParallelFdMatchesSequentialFd) {
  FullDisjunction fd;
  ParallelFullDisjunction pfd(4);
  auto r1 = fd.Integrate(tables_, alignment_);
  auto r2 = pfd.Integrate(tables_, alignment_);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r1->SameRowsAs(*r2)) << r2->ToPrettyString();
}

TEST_F(VaccineSetTest, NaiveFdMatchesIndexedFd) {
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  auto r1 = fd.Integrate(tables_, alignment_);
  auto r2 = naive.Integrate(tables_, alignment_);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->SameRowsAs(*r2));
}

TEST_F(VaccineSetTest, InnerJoinCollapses) {
  InnerJoinIntegration ij;
  auto r = ij.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok());
  // T4⋈T5 on Approver keeps only the FDA pair; joining T6 then needs
  // Vaccine+Country equality: Pfizer vs J&J/JnJ fails -> empty.
  EXPECT_EQ(r->num_rows(), 0u) << r->ToPrettyString();
}

TEST_F(VaccineSetTest, UnionKeepsAllSixTuples) {
  UnionIntegration u;
  auto r = u.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 6u);
}

// ------------------------------------------------------------ properties

TEST(FdPropertiesTest, OutputNeverLosesInputFacts) {
  // Every input tuple must be subsumed by some output tuple.
  LakeGeneratorParams p;
  p.fragments_per_domain = 3;
  p.min_rows = 10;
  p.max_rows = 25;
  p.null_rate = 0.15;
  p.domains = {"vaccine_approvals"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto u = BuildOuterUnion(tables, a, "u");
  ASSERT_TRUE(u.ok());
  for (size_t i = 0; i < u->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < r->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(u->row(i), r->row(j));
    }
    EXPECT_TRUE(covered) << "input tuple " << i << " lost";
  }
}

TEST(FdPropertiesTest, NoOutputTupleSubsumesAnother) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->num_rows(); ++i) {
    for (size_t j = 0; j < r->num_rows(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(TupleSubsumedBy(r->row(i), r->row(j)))
          << "tuple " << i << " subsumed by " << j;
    }
  }
}

TEST(FdPropertiesTest, SingleTableFdIsIdentityModuloDuplicates) {
  Table t1 = paper::MakeT1();
  std::vector<const Table*> tables = {&t1};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->SameRowsAs(t1));
}

TEST(FdPropertiesTest, FdSupersetOfOuterJoinInformation) {
  // Every outer-join output tuple is subsumed by some FD output tuple.
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  Table t6 = paper::MakeT6();
  std::vector<const Table*> tables = {&t4, &t5, &t6};
  Alignment a = AlignSet(tables);
  auto fd_r = FullDisjunction().Integrate(tables, a);
  auto oj_r = OuterJoinIntegration().Integrate(tables, a);
  ASSERT_TRUE(fd_r.ok());
  ASSERT_TRUE(oj_r.ok());
  for (size_t i = 0; i < oj_r->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < fd_r->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(oj_r->row(i), fd_r->row(j));
    }
    EXPECT_TRUE(covered);
  }
}

TEST(FdPropertiesTest, ParallelMatchesSequentialOnSyntheticSet) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.min_rows = 15;
  p.max_rows = 40;
  p.null_rate = 0.1;
  p.domains = {"football_clubs"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  Alignment a = AlignSet(tables);
  auto r1 = FullDisjunction().Integrate(tables, a);
  auto r2 = ParallelFullDisjunction(3).Integrate(tables, a);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_TRUE(r1->SameRowsAs(*r2));
}

TEST(FdPropertiesTest, MaxTuplesGuardFires) {
  // Two tall tables complementing through a shared constant column blow up
  // the pool; the guard must turn that into an error, not a hang.
  Table a("A", Schema::FromNames({"k", "x"}));
  Table b("B", Schema::FromNames({"k", "y"}));
  for (int i = 0; i < 40; ++i) {
    (void)a.AddRow({Value::String("same"), Value::Int(i)});
    (void)b.AddRow({Value::String("same"), Value::Int(100 + i)});
  }
  ManualAlignment manual({{{"A", 0}, {"B", 0}}});
  auto align = manual.Align({&a, &b});
  ASSERT_TRUE(align.ok());
  FullDisjunction::Params p;
  p.max_tuples = 500;
  FullDisjunction fd(p);
  std::vector<const Table*> tables = {&a, &b};
  auto r = fd.Integrate(tables, *align);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(OuterJoinTest, OrderDependenceDemonstrated) {
  // The classic non-associativity: with T6 first, JnJ rows join Country
  // differently than with T4 first.
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  Table t6 = paper::MakeT6();
  AliteMatcher matcher;
  std::vector<const Table*> order1 = {&t4, &t5, &t6};
  std::vector<const Table*> order2 = {&t6, &t4, &t5};
  auto a1 = matcher.Align(order1);
  auto a2 = matcher.Align(order2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  OuterJoinIntegration oj;
  auto r1 = oj.Integrate(order1, *a1);
  auto r2 = oj.Integrate(order2, *a2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1->SameRowsAs(*r2))
      << "outer join should be order-dependent on this set";
}

TEST(UnionIntegrationTest, DeduplicatesExactTuples) {
  Table a("A", Schema::FromNames({"x"}));
  (void)a.AddRow({Value::String("v")});
  Table b("B", Schema::FromNames({"x"}));
  (void)b.AddRow({Value::String("v")});
  (void)b.AddRow({Value::String("w")});
  ManualAlignment manual({{{"A", 0}, {"B", 0}}});
  auto align = manual.Align({&a, &b});
  ASSERT_TRUE(align.ok());
  std::vector<const Table*> tables = {&a, &b};
  auto r = UnionIntegration().Integrate(tables, *align);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  // Merged provenance on the duplicate.
  size_t rv = RowWithProv(*r, {"A#0", "B#0"});
  EXPECT_NE(rv, static_cast<size_t>(-1));
}

// ------------------------------------------------- request deadlines

TEST(FdDeadlineTest, PreExpiredTokenAbortsBeforeFirstFixpointIteration) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  ObservabilityContext obs;
  fd.set_observability(&obs);
  CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
  auto r = fd.Integrate(tables, a, &cancel);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // The FD counters flush on the cancel path too: input_rows proves the
  // flush happened, fixpoint_iterations == 0 proves the worklist aborted
  // before consuming its first item.
  EXPECT_GT(obs.metrics().CounterValue("integrate.fd.input_rows"), 0u);
  EXPECT_EQ(obs.metrics().CounterValue("integrate.fd.fixpoint_iterations"),
            0u);
}

/// Two tables joined only on a yes/no column, `n` rows per value on each
/// side: A rows (v, a_i, ⊥), B rows (v, ⊥, b_j). The FD is every A×B pair
/// that agrees on v — 2n² null-free rows.
std::vector<Table> YesNoBlowUp(int n) {
  std::vector<Table> tables;
  tables.emplace_back("A", Schema::FromNames({"yn", "x"}));
  tables.emplace_back("B", Schema::FromNames({"yn", "y"}));
  for (int i = 0; i < 2 * n; ++i) {
    const Value yn = Value::String(i % 2 == 0 ? "yes" : "no");
    (void)tables[0].AddRow({yn, Value::Int(i)});
    (void)tables[1].AddRow({yn, Value::Int(1000 + i)});
  }
  return tables;
}

Alignment AlignOnYesNo(const std::vector<const Table*>& tables) {
  auto a = ManualAlignment({{{"A", 0}, {"B", 0}}}).Align(tables);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

TEST(FdBlowUpTest, YesNoJoinCountersAreExact) {
  constexpr uint64_t n = 3;
  std::vector<Table> storage = YesNoBlowUp(static_cast<int>(n));
  std::vector<const Table*> tables = {&storage[0], &storage[1]};
  FullDisjunction fd;
  ObservabilityContext obs;
  fd.set_observability(&obs);
  auto r = fd.Integrate(tables, AlignOnYesNo(tables));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2 * n * n);
  const Metrics& m = obs.metrics();
  // Only the 4n input tuples have a null, so only they take a turn; the
  // 2n² merges are null-free.
  EXPECT_EQ(m.CounterValue("integrate.fd.fixpoint_iterations"), 4 * n);
  // Per value v, the k-th A tuple's turn (k = 0..n-1) scans the n B tuples
  // of v and the k·n merges of v made before it (the other A tuples fill
  // none of its nulls), merging with the B tuples: n new rows. Its x bucket
  // then holds those n rows, which it scans and re-merges — dropped as
  // existing. A B tuple scans the n A tuples and the n² merges of v and
  // merges with the A tuples and the n merges holding its own y, all of
  // which exist. Summed: scans 2·Σk(2n + kn) + 2n(n + n²) = 3n³ + 5n²,
  // merges 2n·2n + 2n·2n = 8n².
  EXPECT_EQ(m.CounterValue("integrate.fd.rows_scanned"),
            3 * n * n * n + 5 * n * n);
  EXPECT_EQ(m.CounterValue("integrate.fd.merges"), 8 * n * n);
  // Every output row carries the TIDs of exactly its A and its B tuple.
  for (size_t row = 0; row < r->num_rows(); ++row) {
    ASSERT_EQ(r->provenance(row).size(), 2u);
    EXPECT_EQ(r->provenance(row)[0].substr(0, 2), "A#");
    EXPECT_EQ(r->provenance(row)[1].substr(0, 2), "B#");
  }
}

TEST(FdBlowUpTest, PreExpiredTokenAbortsBeforeFirstFixpointIteration) {
  std::vector<Table> storage = YesNoBlowUp(3);
  std::vector<const Table*> tables = {&storage[0], &storage[1]};
  FullDisjunction fd;
  ObservabilityContext obs;
  fd.set_observability(&obs);
  CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
  auto r = fd.Integrate(tables, AlignOnYesNo(tables), &cancel);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(obs.metrics().CounterValue("integrate.fd.fixpoint_iterations"),
            0u);
}

TEST(FdBlowUpTest, DeadlineExpiringMidFixpointAborts) {
  // n = 400 makes 320k merges and about 2n³ = 128M candidate scans: far
  // longer than the deadline, which therefore fires inside the fixpoint.
  constexpr uint64_t n = 400;
  std::vector<Table> storage = YesNoBlowUp(static_cast<int>(n));
  std::vector<const Table*> tables = {&storage[0], &storage[1]};
  const Alignment alignment = AlignOnYesNo(tables);
  FullDisjunction fd;
  ObservabilityContext obs;
  fd.set_observability(&obs);
  CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::milliseconds(50));
  auto r = fd.Integrate(tables, alignment, &cancel);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  const uint64_t turns =
      obs.metrics().CounterValue("integrate.fd.fixpoint_iterations");
  EXPECT_GT(turns, 0u);
  EXPECT_LT(turns, 4 * n);
}

TEST(FdDeadlineTest, EveryIntegrationOperatorHonoursPreExpiredToken) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  ParallelFullDisjunction parallel(2);
  MinimumUnionIntegration min_union;
  const IntegrationOperator* ops[] = {&fd, &naive, &parallel, &min_union};
  for (const IntegrationOperator* op : ops) {
    CancelToken cancel;
    cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
    auto r = op->Integrate(tables, a, &cancel);
    ASSERT_FALSE(r.ok()) << op->name();
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << op->name() << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace dialite
