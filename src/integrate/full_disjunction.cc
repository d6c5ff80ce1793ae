#include "integrate/full_disjunction.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "integrate/tuple_codes.h"

namespace dialite {

namespace {

/// Tuples of one FD computation: flat spans of 32-bit cell codes (see
/// tuple_codes.h) plus each tuple's non-null mask. Complementation,
/// merging, subsumption and dedup all run on integers, and cells decode
/// back to Values only when the output becomes a Table.
struct CodedPool {
  explicit CodedPool(size_t w) : width(w), words(MaskWords(w)) {}

  size_t width;
  size_t words;          ///< mask words per tuple
  size_t num_rows = 0;
  std::vector<uint32_t> cells;  ///< row-major, num_rows * width
  std::vector<uint64_t> masks;  ///< row-major, num_rows * words

  const uint32_t* row(size_t i) const { return cells.data() + i * width; }
  uint32_t* row(size_t i) { return cells.data() + i * width; }
  const uint64_t* mask(size_t i) const { return masks.data() + i * words; }
  bool has_fact(size_t i) const {
    const uint64_t* m = mask(i);
    for (size_t w = 0; w < words; ++w) {
      if (m[w] != 0) return true;
    }
    return false;
  }
  /// `src` must not point into `cells`.
  void AppendRow(const uint32_t* src) {
    cells.insert(cells.end(), src, src + width);
    masks.resize(masks.size() + words);
    CodedCellMask(src, width, /*null_cells=*/false,
                  masks.data() + num_rows * words);
    ++num_rows;
  }
};

/// (column, code) → the ids of the indexed rows holding that non-null cell,
/// in insertion order.
class CellIndex {
 public:
  void Add(const uint32_t* row, size_t width, uint32_t id) {
    for (size_t c = 0; c < width; ++c) {
      if (!CodeIsNull(row[c])) buckets_[Key(c, row[c])].push_back(id);
    }
  }

  /// Bucket of cell (c, code). The cell must be held by an indexed row.
  const std::vector<uint32_t>& At(size_t c, uint32_t code) const {
    return buckets_.at(Key(c, code));
  }

  /// Smallest bucket among `row`'s non-null cells: the only candidates for
  /// an indexed superset of `row`. Null when `row` is all-null or holds a
  /// cell no indexed row holds (then no indexed row is a superset).
  const std::vector<uint32_t>* Smallest(const uint32_t* row,
                                        size_t width) const {
    const std::vector<uint32_t>* smallest = nullptr;
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      auto it = buckets_.find(Key(c, row[c]));
      if (it == buckets_.end()) return nullptr;
      if (smallest == nullptr || it->second.size() < smallest->size()) {
        smallest = &it->second;
      }
    }
    return smallest;
  }

 private:
  static uint64_t Key(size_t c, uint32_t code) {
    return (static_cast<uint64_t>(c) << 32) | code;
  }

  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

/// Pool rows by row identity (CodedIdentical: nulls of either kind match),
/// so that a merge that already exists is recognised and dropped.
class RowSet {
 public:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  explicit RowSet(const CodedPool* pool) : pool_(pool) {}

  /// Id of the pool row identical to `row` (whose CodedRowKey is `key`),
  /// or kNone.
  uint32_t Find(const uint32_t* row, uint64_t key) const {
    auto it = ids_.find(key);
    if (it == ids_.end()) return kNone;
    for (uint32_t id : it->second) {
      if (CodedIdentical(pool_->row(id), row, pool_->width)) return id;
    }
    return kNone;
  }
  void Add(uint64_t key, uint32_t id) { ids_[key].push_back(id); }

 private:
  const CodedPool* pool_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> ids_;
};

/// Local FD tally, accumulated branch-free in the hot loops and flushed
/// into the integrate.fd.* counters once per Integrate (when enabled).
struct FdTally {
  uint64_t rows_scanned = 0;         ///< candidate tuple pairs examined
  uint64_t merges = 0;               ///< complementing pairs merged
  uint64_t produced_nulls = 0;       ///< produced-null cells in the outer union
  uint64_t subsumed_tuples = 0;      ///< tuples dropped as ⊑-dominated
  uint64_t fixpoint_iterations = 0;  ///< worklist turns / naive rounds

  void MergeFrom(const FdTally& other) {
    rows_scanned += other.rows_scanned;
    merges += other.merges;
    produced_nulls += other.produced_nulls;
    subsumed_tuples += other.subsumed_tuples;
    fixpoint_iterations += other.fixpoint_iterations;
  }
};

/// Flushes a tally plus input/output sizes into `obs` (no-op when null).
void EmitFdCounters(ObservabilityContext* obs, const FdTally& tally,
                    size_t input_rows, size_t output_rows) {
  if (obs == nullptr) return;
  Metrics& m = obs->metrics();
  m.Add("integrate.fd.input_rows", input_rows);
  m.Add("integrate.fd.output_rows", output_rows);
  m.Add("integrate.fd.rows_scanned", tally.rows_scanned);
  m.Add("integrate.fd.merges", tally.merges);
  m.Add("integrate.fd.produced_nulls", tally.produced_nulls);
  m.Add("integrate.fd.subsumed_tuples", tally.subsumed_tuples);
  m.Add("integrate.fd.fixpoint_iterations", tally.fixpoint_iterations);
}

/// Produced-null cells the outer union padded in (the integration cost the
/// paper's Fig. 8 tracks).
uint64_t CountProducedNulls(const std::vector<uint32_t>& cells) {
  uint64_t n = 0;
  for (uint32_t c : cells) {
    if (c == kProducedNullCode) ++n;
  }
  return n;
}

Status FdDeadline(const char* stage) {
  return Status::DeadlineExceeded(std::string("full disjunction cancelled ") +
                                  stage);
}

Status MaxTuplesExceeded(size_t max_tuples) {
  return Status::OutOfRange("full disjunction exceeded max_tuples=" +
                            std::to_string(max_tuples));
}

/// The deduplicated input tuples of one FD: exact duplicates (under
/// CodedIdentical) collapse into their first occurrence, which takes a
/// missing null wherever a duplicate has one and the union of their labels.
/// These are the pool's first rows; the fixpoint appends merges after them.
struct FdInputs {
  explicit FdInputs(size_t width) : pool(width) {}

  CodedPool pool;
  std::vector<std::vector<std::string>> tids;  ///< sorted, unique, per input
};

FdInputs DedupInputs(const Table& u, const std::vector<uint32_t>& ucells,
                     const std::vector<size_t>& rows) {
  const size_t width = u.num_columns();
  FdInputs in(width);
  RowSet seen(&in.pool);
  for (size_t r : rows) {
    const uint32_t* row = ucells.data() + r * width;
    const uint64_t key = CodedRowKey(row, width);
    const std::vector<std::string>& labels = u.provenance(r);
    const uint32_t dup = seen.Find(row, key);
    if (dup == RowSet::kNone) {
      seen.Add(key, static_cast<uint32_t>(in.pool.num_rows));
      in.pool.AppendRow(row);
      in.tids.push_back(labels);
      continue;
    }
    uint32_t* target = in.pool.row(dup);
    for (size_t c = 0; c < width; ++c) target[c] = std::max(target[c], row[c]);
    in.tids[dup].insert(in.tids[dup].end(), labels.begin(), labels.end());
  }
  for (std::vector<std::string>& t : in.tids) {
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
  }
  return in;
}

/// Indexed complementation fix-point (ALITE-style candidate pruning) on
/// cells only. Every pool row takes one worklist turn in pool order, merges
/// included; a turn probes the index buckets of the row's non-null cells
/// and appends each merge that does not exist yet. Work that cannot add a
/// fact is skipped: a row without a null cell gets no turn, and a candidate
/// whose non-null mask misses every null of the row is passed over before
/// its cells are read. Neither skip changes which merges are appended or in
/// what order — the merge would equal the row itself. Provenance and null
/// kinds are not tracked here; DeriveOutput computes them for the output.
Status IndexedFixpoint(CodedPool* pool, CellIndex* index, size_t max_tuples,
                       FdTally* tally, const CancelToken* cancel) {
  const size_t width = pool->width;
  const size_t words = pool->words;
  RowSet seen(pool);
  for (size_t i = 0; i < pool->num_rows; ++i) {
    seen.Add(CodedRowKey(pool->row(i), width), static_cast<uint32_t>(i));
  }
  // Epoch-stamped visited marks dedup candidates per turn without
  // allocating a set per tuple (a candidate can sit in several buckets).
  std::vector<uint32_t> visited(pool->num_rows, 0);
  uint32_t epoch = 0;

  std::vector<uint32_t> row(width);
  std::vector<uint32_t> merged(width);
  std::vector<uint64_t> nulls(words);
  StridedCancelPoll poll(cancel);
  if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
  for (size_t idx = 0; idx < pool->num_rows; ++idx) {
    if (poll.StrideCancelled()) return FdDeadline("in indexed fixpoint");
    // Snapshot: pool cells may reallocate as merges append.
    std::copy(pool->row(idx), pool->row(idx) + width, row.begin());
    CodedCellMask(row.data(), width, /*null_cells=*/true, nulls.data());
    bool has_null = false;
    for (uint64_t w : nulls) has_null |= w != 0;
    if (!has_null) continue;  // a null-free tuple cannot gain a fact
    if (poll.Cancelled()) return FdDeadline("in indexed fixpoint");
    ++tally->fixpoint_iterations;
    ++epoch;

    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      // The bucket grows as merges are indexed; index-based iteration stays
      // valid, and the appended tuples get their own turn anyway.
      const std::vector<uint32_t>& bucket = index->At(c, row[c]);
      const size_t bucket_size = bucket.size();
      for (size_t bi = 0; bi < bucket_size; ++bi) {
        if (poll.StrideCancelled()) return FdDeadline("in indexed fixpoint");
        const uint32_t cand = bucket[bi];
        // Also passes over idx itself, whose mask misses its own nulls.
        if (!MasksIntersect(pool->mask(cand), nulls.data(), words)) continue;
        if (visited[cand] == epoch) continue;
        visited[cand] = epoch;
        ++tally->rows_scanned;
        if (!CodedComplement(row.data(), pool->row(cand), width)) continue;
        ++tally->merges;
        CodedMerge(row.data(), pool->row(cand), width, merged.data());
        const uint64_t key = CodedRowKey(merged.data(), width);
        if (seen.Find(merged.data(), key) != RowSet::kNone) continue;
        if (pool->num_rows >= max_tuples) return MaxTuplesExceeded(max_tuples);
        const uint32_t id = static_cast<uint32_t>(pool->num_rows);
        pool->AppendRow(merged.data());
        seen.Add(key, id);
        index->Add(merged.data(), width, id);
        visited.push_back(0);
      }
    }
  }
  return Status::OK();
}

/// Naive complementation fix-point: rescan all pairs every round (the
/// EXT-2 baseline the indexed fix-point is measured against).
Status NaiveFixpoint(CodedPool* pool, CellIndex* index, size_t max_tuples,
                     FdTally* tally, const CancelToken* cancel) {
  const size_t width = pool->width;
  RowSet seen(pool);
  for (size_t i = 0; i < pool->num_rows; ++i) {
    seen.Add(CodedRowKey(pool->row(i), width), static_cast<uint32_t>(i));
  }
  std::vector<uint32_t> merged(width);
  StridedCancelPoll poll(cancel);
  bool changed = true;
  while (changed) {
    if (poll.Cancelled()) return FdDeadline("in naive fixpoint");
    changed = false;
    ++tally->fixpoint_iterations;
    const size_t n = pool->num_rows;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (poll.StrideCancelled()) return FdDeadline("in naive fixpoint");
        ++tally->rows_scanned;
        if (!CodedComplement(pool->row(i), pool->row(j), width)) continue;
        ++tally->merges;
        CodedMerge(pool->row(i), pool->row(j), width, merged.data());
        const uint64_t key = CodedRowKey(merged.data(), width);
        if (seen.Find(merged.data(), key) != RowSet::kNone) continue;
        if (pool->num_rows >= max_tuples) return MaxTuplesExceeded(max_tuples);
        const uint32_t id = static_cast<uint32_t>(pool->num_rows);
        pool->AppendRow(merged.data());
        seen.Add(key, id);
        index->Add(merged.data(), width, id);
        changed = true;
      }
    }
  }
  return Status::OK();
}

/// Appends the ids of the ⊑-maximal pool rows to `*kept`, in pool order.
/// `index` covers every pool row; no two pool rows are identical.
Status KeepMaximal(const CodedPool& pool, const CellIndex& index,
                   FdTally* tally, const CancelToken* cancel,
                   std::vector<uint32_t>* kept) {
  const size_t width = pool.width;
  const size_t n = pool.num_rows;
  StridedCancelPoll poll(cancel);
  if (poll.Cancelled()) return FdDeadline("in subsumption removal");
  bool any_fact = false;
  for (size_t i = 0; i < n && !any_fact; ++i) any_fact = pool.has_fact(i);
  for (size_t i = 0; i < n; ++i) {
    if (poll.StrideCancelled()) return FdDeadline("in subsumption removal");
    const std::vector<uint32_t>* bucket = index.Smallest(pool.row(i), width);
    bool subsumed = false;
    if (bucket == nullptr) {
      // An all-null tuple is subsumed by any tuple with a fact; without
      // one it is the pool's only (deduplicated) tuple.
      subsumed = any_fact;
    } else {
      for (uint32_t j : *bucket) {
        if (poll.StrideCancelled()) return FdDeadline("in subsumption removal");
        if (j != i && MaskSubsetOf(pool.mask(i), pool.mask(j), pool.words) &&
            CodedSubsumedBy(pool.row(i), pool.row(j), width)) {
          subsumed = true;
          break;
        }
      }
    }
    if (subsumed) {
      ++tally->subsumed_tuples;
    } else {
      kept->push_back(static_cast<uint32_t>(i));
    }
  }
  return Status::OK();
}

/// Output rows still coded (null kinds included), with their labels.
struct FdOutput {
  std::vector<uint32_t> cells;
  std::vector<std::vector<std::string>> tids;  ///< one per output row
};

/// Builds the output from the kept pool rows. With `derive` (a full
/// disjunction), provenance and null kinds come from the definition: output
/// row o carries the labels of every input tuple t ⊑ o — exactly the
/// tuples of the maximal connected, join-consistent set whose merge is o —
/// and a null cell of o is a missing null iff some such t has a missing
/// null there. An all-null t is ⊑ every row but joins no set with a fact,
/// so it counts only for an all-null o. Each t is matched through the
/// smallest (column, code) bucket over the output rows. Without `derive`
/// (minimum union) every kept row is an input tuple and keeps its own.
Status DeriveOutput(const FdInputs& in, const std::vector<uint32_t>& kept,
                    bool derive, const CancelToken* cancel, FdOutput* out) {
  const CodedPool& pool = in.pool;
  const size_t width = pool.width;
  StridedCancelPoll poll(cancel);
  if (poll.Cancelled()) return FdDeadline("in provenance derivation");

  // (output position, input id) pairs, sorted so each output's inputs are
  // contiguous and ascending.
  std::vector<std::pair<uint32_t, uint32_t>> members;
  if (!derive) {
    for (uint32_t o = 0; o < kept.size(); ++o) members.emplace_back(o, kept[o]);
  } else {
    CellIndex out_index;
    for (uint32_t o = 0; o < kept.size(); ++o) {
      out_index.Add(pool.row(kept[o]), width, o);
    }
    for (uint32_t t = 0; t < in.tids.size(); ++t) {
      if (poll.StrideCancelled()) {
        return FdDeadline("in provenance derivation");
      }
      if (!pool.has_fact(t)) {
        if (kept.size() == 1 && kept[0] == t) members.emplace_back(0, t);
        continue;
      }
      const std::vector<uint32_t>* bucket =
          out_index.Smallest(pool.row(t), width);
      if (bucket == nullptr) continue;
      for (uint32_t o : *bucket) {
        if (poll.StrideCancelled()) {
          return FdDeadline("in provenance derivation");
        }
        if (MaskSubsetOf(pool.mask(t), pool.mask(kept[o]), pool.words) &&
            CodedSubsumedBy(pool.row(t), pool.row(kept[o]), width)) {
          members.emplace_back(o, t);
        }
      }
    }
    std::sort(members.begin(), members.end());
  }

  out->cells.resize(kept.size() * width);
  out->tids.resize(kept.size());
  size_t m = 0;
  for (uint32_t o = 0; o < kept.size(); ++o) {
    uint32_t* cells = out->cells.data() + static_cast<size_t>(o) * width;
    for (size_t c = 0; c < width; ++c) {
      const uint32_t code = pool.row(kept[o])[c];
      cells[c] = CodeIsNull(code) ? kProducedNullCode : code;
    }
    std::vector<std::string>& tids = out->tids[o];
    const size_t first = m;
    for (; m < members.size() && members[m].first == o; ++m) {
      const uint32_t* t = pool.row(members[m].second);
      for (size_t c = 0; c < width; ++c) {
        if (t[c] == kMissingNullCode && CodeIsNull(cells[c])) {
          cells[c] = kMissingNullCode;
        }
      }
      const std::vector<std::string>& labels = in.tids[members[m].second];
      tids.insert(tids.end(), labels.begin(), labels.end());
    }
    if (m - first > 1) {
      std::sort(tids.begin(), tids.end());
      tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    }
  }
  return Status::OK();
}

/// Complementation strategy for SolveFd.
enum class FixpointMode {
  kIndexed,  ///< ALITE-style candidate index + worklist
  kNaive,    ///< all-pairs rescan per round
  kNone,     ///< skip complementation (minimum union)
};

/// One FD (or minimum union) over outer-union rows `rows`: dedup →
/// fix-point → subsumption → emit-time provenance. `obs` (nullable) gets a
/// span per phase.
Status SolveFd(const Table& u, const std::vector<uint32_t>& ucells,
               const std::vector<size_t>& rows, FixpointMode mode,
               size_t max_tuples, ObservabilityContext* obs, FdTally* tally,
               const CancelToken* cancel, FdOutput* out) {
  FdInputs in = DedupInputs(u, ucells, rows);
  CodedPool& pool = in.pool;
  CellIndex index;
  for (size_t i = 0; i < pool.num_rows; ++i) {
    index.Add(pool.row(i), pool.width, static_cast<uint32_t>(i));
  }
  {
    ObsSpan span(obs, "integrate.fd.fixpoint");
    if (mode == FixpointMode::kIndexed) {
      DIALITE_RETURN_IF_ERROR(
          IndexedFixpoint(&pool, &index, max_tuples, tally, cancel));
    } else if (mode == FixpointMode::kNaive) {
      DIALITE_RETURN_IF_ERROR(
          NaiveFixpoint(&pool, &index, max_tuples, tally, cancel));
    }
  }
  std::vector<uint32_t> kept;
  {
    ObsSpan span(obs, "integrate.fd.subsumption");
    DIALITE_RETURN_IF_ERROR(KeepMaximal(pool, index, tally, cancel, &kept));
  }
  ObsSpan span(obs, "integrate.fd.provenance");
  return DeriveOutput(in, kept, mode != FixpointMode::kNone, cancel, out);
}

/// Decodes `fd` into rows of `table`, skipping all-null rows when
/// `drop_all_null`.
Status AppendOutput(FdOutput* fd, const TupleCodec& codec, bool drop_all_null,
                    Table* table) {
  const size_t width = table->num_columns();
  for (size_t i = 0; i < fd->tids.size(); ++i) {
    const uint32_t* src = fd->cells.data() + i * width;
    if (drop_all_null && std::all_of(src, src + width, CodeIsNull)) {
      continue;
    }
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) row.push_back(codec.Decode(src[c]));
    DIALITE_RETURN_IF_ERROR(
        table->AddRow(std::move(row), std::move(fd->tids[i])));
  }
  return Status::OK();
}

/// Shared body of the single-pool operators: outer union → encode →
/// SolveFd → decode into a Table. `obs` (nullable) receives the
/// integrate.fd.* counters and a span per phase — they are flushed on the
/// cancellation path too, so a deadline test can observe
/// fixpoint_iterations == 0.
Result<Table> RunFd(const std::vector<const Table*>& tables,
                    const Alignment& alignment, const std::string& name,
                    FixpointMode mode, size_t max_tuples,
                    ObservabilityContext* obs, const CancelToken* cancel) {
  ObsSpan fd_span(obs, "integrate.full_disjunction");
  FdTally tally;
  Result<Table> union_r = BuildOuterUnion(tables, alignment, name);
  if (!union_r.ok()) return union_r.status();
  const Table& u = *union_r;
  TupleCodec codec;
  const std::vector<uint32_t> ucells = codec.EncodeTable(u);
  tally.produced_nulls = CountProducedNulls(ucells);
  std::vector<size_t> all_rows(u.num_rows());
  for (size_t r = 0; r < all_rows.size(); ++r) all_rows[r] = r;

  FdOutput fd;
  const Status st =
      SolveFd(u, ucells, all_rows, mode, max_tuples, obs, &tally, cancel, &fd);
  EmitFdCounters(obs, tally, u.num_rows(), st.ok() ? fd.tids.size() : 0);
  DIALITE_RETURN_IF_ERROR(st);

  Table out(name, u.schema());
  DIALITE_RETURN_IF_ERROR(
      AppendOutput(&fd, codec, /*drop_all_null=*/false, &out));
  out.RefreshColumnTypes();
  return out;
}

constexpr size_t kDefaultMaxTuples = FullDisjunction::Params().max_tuples;

}  // namespace

Result<Table> FullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "fd_result", FixpointMode::kIndexed,
               params_.max_tuples, obs_, cancel);
}

Result<Table> NaiveFullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "naive_fd_result", FixpointMode::kNaive,
               kDefaultMaxTuples, obs_, cancel);
}

Result<Table> MinimumUnionIntegration::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  return RunFd(tables, alignment, "minimum_union_result", FixpointMode::kNone,
               kDefaultMaxTuples, obs_, cancel);
}

Result<Table> ParallelFullDisjunction::Integrate(
    const std::vector<const Table*>& tables, const Alignment& alignment,
    const CancelToken* cancel) const {
  ObsSpan fd_span(obs_, "integrate.parallel_full_disjunction");
  Result<Table> union_r = BuildOuterUnion(tables, alignment, "parallel_fd");
  if (!union_r.ok()) return union_r.status();
  const Table& u = *union_r;
  const size_t n = u.num_rows();
  const size_t width = u.num_columns();
  TupleCodec codec;
  const std::vector<uint32_t> ucells = codec.EncodeTable(u);

  // Union-find over tuples; tuples sharing a (column, code) cell join the
  // same component, and so do all all-null tuples (which dedup into one).
  // Cross-component tuples can never complement or subsume, except that an
  // all-null tuple is subsumed by any fact — dropped below.
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](size_t a, size_t b) { parent[find(a)] = find(b); };
  std::unordered_map<uint64_t, size_t> first_owner;
  size_t first_all_null = n;
  for (size_t r = 0; r < n; ++r) {
    const uint32_t* row = ucells.data() + r * width;
    bool all_null = true;
    for (size_t c = 0; c < width; ++c) {
      if (CodeIsNull(row[c])) continue;
      all_null = false;
      const uint64_t key = (static_cast<uint64_t>(c) << 32) | row[c];
      auto [it, inserted] = first_owner.emplace(key, r);
      if (!inserted) unite(r, it->second);
    }
    if (!all_null) continue;
    if (first_all_null == n) {
      first_all_null = r;
    } else {
      unite(r, first_all_null);
    }
  }
  std::unordered_map<size_t, std::vector<size_t>> components;
  for (size_t r = 0; r < n; ++r) components[find(r)].push_back(r);

  std::vector<std::vector<size_t>> comps;
  comps.reserve(components.size());
  for (auto& [root, rows] : components) comps.push_back(std::move(rows));
  std::sort(comps.begin(), comps.end());  // deterministic output order

  std::vector<FdOutput> results(comps.size());
  std::vector<Status> statuses(comps.size());
  // Per-component tallies, merged serially after the barrier (counter
  // updates must not contend on the hot path).
  std::vector<FdTally> tallies(comps.size());
  ThreadPool tp(num_threads_, obs_);
  tp.ParallelFor(comps.size(), [&](size_t k) {
    // Each component observes the shared token, so cancellation stops
    // every worker within one poll stride.
    if (cancel != nullptr && cancel->Cancelled()) {
      statuses[k] = FdDeadline("before component fixpoint");
      return;
    }
    statuses[k] = SolveFd(u, ucells, comps[k], FixpointMode::kIndexed,
                          kDefaultMaxTuples, /*obs=*/nullptr, &tallies[k],
                          cancel, &results[k]);
  });
  for (const Status& st : statuses) {
    DIALITE_RETURN_IF_ERROR(st);
  }
  FdTally tally;
  tally.produced_nulls = CountProducedNulls(ucells);
  for (const FdTally& t : tallies) tally.MergeFrom(t);
  ObsAdd(obs_, "integrate.fd.components", comps.size());

  // Drop the all-null tuple if any component produced a fact.
  bool any_fact = false;
  for (const FdOutput& fd : results) {
    any_fact = any_fact ||
               std::any_of(fd.cells.begin(), fd.cells.end(),
                           [](uint32_t c) { return !CodeIsNull(c); });
  }
  Table out("parallel_fd_result", u.schema());
  for (FdOutput& fd : results) {
    DIALITE_RETURN_IF_ERROR(AppendOutput(&fd, codec, any_fact, &out));
  }
  out.RefreshColumnTypes();
  EmitFdCounters(obs_, tally, n, out.num_rows());
  return out;
}

}  // namespace dialite
