/// Full disjunction checked against a brute-force oracle built from the
/// definition rather than from the kernels' shared complement/merge code:
/// the ⊑-maximal merges of the maximal join-consistent, connected sets of
/// outer-union tuples, where two tuples are connected when they share an
/// equal non-null cell. Rows, null kinds and TIDs must match for every FD
/// variant, on small random inputs and on the paper's Fig. 3.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/alite_matcher.h"
#include "common/rng.h"
#include "integrate/full_disjunction.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

struct OracleRow {
  Row cells;
  std::vector<std::string> tids;
};

bool SameRowIgnoringNullKinds(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].is_null() != b[c].is_null()) return false;
    if (!a[c].is_null() && !a[c].Identical(b[c])) return false;
  }
  return true;
}

/// FD of outer union `u` by the definition, enumerating every tuple subset
/// (so `u` must stay small).
std::vector<OracleRow> OracleFd(const Table& u) {
  const size_t n = u.num_rows();
  const size_t width = u.num_columns();
  std::vector<Row> rows;
  for (size_t r = 0; r < n; ++r) rows.push_back(u.row(r));
  auto consistent = [&](size_t i, size_t j) {
    for (size_t c = 0; c < width; ++c) {
      if (rows[i][c].is_null() || rows[j][c].is_null()) continue;
      if (!rows[i][c].Identical(rows[j][c])) return false;
    }
    return true;
  };
  auto connected = [&](size_t i, size_t j) {
    for (size_t c = 0; c < width; ++c) {
      if (!rows[i][c].is_null() && !rows[j][c].is_null() &&
          rows[i][c].Identical(rows[j][c])) {
        return true;
      }
    }
    return false;
  };
  // Join-consistent, connected subsets, as bitmasks over the tuples.
  std::vector<uint32_t> valid;
  for (uint32_t s = 1; s < (1u << n); ++s) {
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i) {
      for (size_t j = i + 1; j < n && ok; ++j) {
        if ((s >> i & 1) && (s >> j & 1)) ok = consistent(i, j);
      }
    }
    if (!ok) continue;
    uint32_t reached = s & (~s + 1);  // lowest member
    for (bool grew = true; grew;) {
      grew = false;
      for (size_t i = 0; i < n; ++i) {
        if (!(s >> i & 1) || (reached >> i & 1)) continue;
        for (size_t j = 0; j < n; ++j) {
          if ((reached >> j & 1) && connected(i, j)) {
            reached |= 1u << i;
            grew = true;
            break;
          }
        }
      }
    }
    if (reached == s) valid.push_back(s);
  }
  // Merges of the maximal sets; identical merges collapse into one row.
  std::vector<OracleRow> merges;
  for (uint32_t s : valid) {
    bool maximal = true;
    for (uint32_t t : valid) {
      if (t != s && (t & s) == s) maximal = false;
    }
    if (!maximal) continue;
    OracleRow m;
    m.cells.assign(width, Value::ProducedNull());
    for (size_t i = 0; i < n; ++i) {
      if (!(s >> i & 1)) continue;
      for (size_t c = 0; c < width; ++c) {
        if (!rows[i][c].is_null()) {
          m.cells[c] = rows[i][c];
        } else if (rows[i][c].is_missing_null() && m.cells[c].is_null()) {
          m.cells[c] = Value::Null(NullKind::kMissing);
        }
      }
      for (const std::string& tid : u.provenance(i)) m.tids.push_back(tid);
    }
    bool merged = false;
    for (OracleRow& have : merges) {
      if (!SameRowIgnoringNullKinds(have.cells, m.cells)) continue;
      for (size_t c = 0; c < width; ++c) {
        if (m.cells[c].is_missing_null()) have.cells[c] = m.cells[c];
      }
      have.tids.insert(have.tids.end(), m.tids.begin(), m.tids.end());
      merged = true;
    }
    if (!merged) merges.push_back(std::move(m));
  }
  // Keep the ⊑-maximal merges.
  std::vector<OracleRow> out;
  for (size_t i = 0; i < merges.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < merges.size() && !dominated; ++j) {
      dominated = j != i && TupleSubsumedBy(merges[i].cells, merges[j].cells);
    }
    if (!dominated) out.push_back(merges[i]);
  }
  return out;
}

/// Order-free rendering of rows, null kinds and TIDs.
std::string Render(const Row& cells, std::vector<std::string> tids) {
  std::string s;
  for (const Value& v : cells) {
    s += v.is_missing_null()    ? "±"
         : v.is_produced_null() ? "⊥"
                                : v.ToCsvString();
    s += " | ";
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::string& t : tids) s += t + ",";
  return s;
}

std::vector<std::string> Canonical(const std::vector<OracleRow>& rows) {
  std::vector<std::string> out;
  for (const OracleRow& r : rows) out.push_back(Render(r.cells, r.tids));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Canonical(const Table& t) {
  std::vector<std::string> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(Render(t.row(r), t.provenance(r)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Checks every FD variant against the oracle on one integration set.
void ExpectMatchesOracle(const std::vector<const Table*>& tables,
                         const Alignment& alignment, const std::string& what) {
  auto u = BuildOuterUnion(tables, alignment, "u");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  const std::vector<std::string> expected = Canonical(OracleFd(*u));
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  ParallelFullDisjunction parallel(2);
  const IntegrationOperator* ops[] = {&fd, &naive, &parallel};
  for (const IntegrationOperator* op : ops) {
    auto r = op->Integrate(tables, alignment);
    ASSERT_TRUE(r.ok()) << what << " " << op->name() << ": "
                        << r.status().ToString();
    EXPECT_EQ(Canonical(*r), expected) << what << " " << op->name() << "\n"
                                       << u->ToPrettyString();
  }
}

/// A small random integration set: a yes/no-only join column, three value
/// columns over a 3-value domain, missing nulls, duplicate rows and all-null
/// rows; at most 10 outer-union tuples.
std::vector<Table> RandomSmallSet(uint64_t seed) {
  Rng rng(seed);
  std::vector<Table> tables;
  tables.emplace_back("A", Schema::FromNames({"yn", "a", "b"}));
  tables.emplace_back("B", Schema::FromNames({"yn", "b", "c"}));
  tables.emplace_back("C", Schema::FromNames({"a", "c"}));
  const size_t num_tables = 2 + rng.NextBounded(2);
  tables.erase(tables.begin() + static_cast<std::ptrdiff_t>(num_tables),
               tables.end());
  const double null_rate = 0.1 + 0.4 * rng.NextDouble();
  size_t budget = 10;
  for (Table& t : tables) {
    const size_t rows = 1 + rng.NextBounded(4);
    for (size_t r = 0; r < rows && budget > 0; ++r, --budget) {
      Row row;
      const bool all_null = rng.NextBool(0.1);
      for (size_t c = 0; c < t.num_columns(); ++c) {
        if (all_null || rng.NextBool(null_rate)) {
          row.push_back(Value::Null(NullKind::kMissing));
        } else if (t.schema().column(c).name == "yn") {
          row.push_back(Value::String(rng.NextBool(0.5) ? "yes" : "no"));
        } else {
          row.push_back(
              Value::String("v" + std::to_string(rng.NextBounded(3))));
        }
      }
      if (r > 0 && budget > 1 && rng.NextBool(0.15)) {
        (void)t.AddRow(row);  // an exact duplicate
        --budget;
      }
      (void)t.AddRow(std::move(row));
    }
  }
  return tables;
}

Alignment AlignByName(const std::vector<const Table*>& tables) {
  std::vector<std::vector<ColumnRef>> clusters;
  std::vector<std::string> names;
  for (const Table* t : tables) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const std::string& name = t->schema().column(c).name;
      auto it = std::find(names.begin(), names.end(), name);
      const size_t k = static_cast<size_t>(it - names.begin());
      if (it == names.end()) {
        names.push_back(name);
        clusters.emplace_back();
      }
      clusters[k].push_back({t->name(), c});
    }
  }
  auto a = ManualAlignment(clusters).Align(tables);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  return std::move(a).value();
}

TEST(FdOracleTest, RandomSmallSetsMatchTheDefinition) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<Table> storage = RandomSmallSet(seed);
    std::vector<const Table*> tables;
    for (const Table& t : storage) tables.push_back(&t);
    ExpectMatchesOracle(tables, AlignByName(tables),
                        "seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
}

TEST(FdOracleTest, AllNullInputMatchesTheDefinition) {
  Table a("A", Schema::FromNames({"x", "y"}));
  Table b("B", Schema::FromNames({"x"}));
  (void)a.AddRow({Value::Null(), Value::Null()});
  (void)a.AddRow({Value::Null(), Value::Null()});
  (void)b.AddRow({Value::Null()});
  std::vector<const Table*> tables = {&a, &b};
  ExpectMatchesOracle(tables, AlignByName(tables), "all-null");
}

TEST(FdOracleTest, PaperFigure3MatchesTheDefinition) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  auto alignment = AliteMatcher().Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  ExpectMatchesOracle(tables, *alignment, "Fig. 3");
  // The oracle itself reproduces the paper's f1 = {t1, t7}.
  auto u = BuildOuterUnion(tables, *alignment, "u");
  ASSERT_TRUE(u.ok());
  bool f1 = false;
  for (OracleRow& r : OracleFd(*u)) {
    std::sort(r.tids.begin(), r.tids.end());
    f1 = f1 || r.tids == std::vector<std::string>{"t1", "t7"};
  }
  EXPECT_TRUE(f1);
}

}  // namespace
}  // namespace dialite
