#ifndef DIALITE_INTEGRATE_FULL_DISJUNCTION_H_
#define DIALITE_INTEGRATE_FULL_DISJUNCTION_H_

#include <string>
#include <vector>

#include "integrate/integration.h"

namespace dialite {

/// ALITE's Full Disjunction (Khatiwada et al., VLDB 2023): the associative
/// integration operator that maximally connects partial facts.
///
/// Definition: the ⊑-maximal merges of the maximal join-consistent,
/// connected sets of outer-union tuples, where two tuples are connected
/// when they share an equal non-null cell.
///
/// Algorithm (complement/subsume formulation), on 32-bit cell codes:
///  1. *Outer union*: stack every tuple over the union of integration IDs,
///     padding absent IDs with produced nulls (⊥); exact duplicates
///     collapse into one tuple.
///  2. *Complementation fix-point* (cells only): whenever two tuples agree
///     on every ID where both are non-null and share at least one such ID,
///     add their merge (non-null values win) unless it already exists. Each
///     tuple takes one worklist turn, merges included, so chains assemble
///     transitively (t1⊕t2 can then absorb t3). Candidate partners come from
///     a (column, value) inverted index rather than an O(n²) scan. Work that
///     cannot add a fact is skipped: a tuple without a null cell gets no
///     turn, and a candidate that fills none of the tuple's nulls (tested on
///     per-tuple non-null bitmasks) is passed over before its cells are read.
///  3. *Subsumption removal*: drop every tuple subsumed by another (the
///     input tuples that got merged, and partial merges), keeping the
///     ⊑-maximal ones in worklist order.
///  4. *Provenance at emit*: an output row o carries the TIDs of every input
///     tuple t ⊑ o — the tuples of the maximal set o merges — and a null
///     cell of o is a missing null (±) iff some such t has one there, else a
///     produced null. This reproduces the paper's TIDs sets (f1 = {t1, t7}
///     in Fig. 3) without carrying labels through the fix-point.
///
/// The token is polled once per worklist turn and once every
/// StridedCancelPoll::kStride candidates, so a deadline fires within
/// microseconds. Unlike outer join the result is independent of the order
/// of the input tables.
class FullDisjunction : public IntegrationOperator {
 public:
  struct Params {
    /// Safety valve: abort with ResourceExhausted-like error if the
    /// complementation pool exceeds this many tuples (FD output can be
    /// exponential in pathological inputs).
    size_t max_tuples = 2000000;
  };

  FullDisjunction() : FullDisjunction(Params()) {}
  explicit FullDisjunction(Params params) : params_(params) {}

  std::string name() const override { return "alite_fd"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;

 private:
  Params params_;
};

/// Naive Full Disjunction baseline: identical semantics and the same
/// emit-time provenance, but the complementation fix-point rescans ALL
/// tuple pairs each round (no inverted index, no worklist, no mask skips) —
/// the O(n²·rounds) strawman ALITE's indexing is measured against in the
/// scalability bench (EXT-2).
class NaiveFullDisjunction : public IntegrationOperator {
 public:
  std::string name() const override { return "naive_fd"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;
};

/// Parallel Full Disjunction (in the spirit of Paganelli et al., BDR 2019):
/// partitions the outer union into connected components of the
/// "shares a (column, value) cell" graph — tuples in different components
/// can never complement — and runs FullDisjunction's fix-point, subsumption
/// and emit-time provenance on each component on a thread pool.
class ParallelFullDisjunction : public IntegrationOperator {
 public:
  explicit ParallelFullDisjunction(size_t num_threads = 0)
      : num_threads_(num_threads) {}

  std::string name() const override { return "parallel_fd"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;

 private:
  size_t num_threads_;
};

/// Minimum union (Galindo-Legaria, SIGMOD 1994 — the paper's reference
/// [6]): outer union followed by subsumption removal, WITHOUT the
/// complementation fix-point. The classic middle ground between plain
/// union and FD — duplicates and dominated partial tuples vanish, but
/// partial facts are never connected (no tuple combines t1 and t7).
class MinimumUnionIntegration : public IntegrationOperator {
 public:
  std::string name() const override { return "minimum_union"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;
};

}  // namespace dialite

#endif  // DIALITE_INTEGRATE_FULL_DISJUNCTION_H_
