#ifndef MBI_DYN_KNN_MERGER_H_
#define MBI_DYN_KNN_MERGER_H_

#include <cstddef>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_stats.h"
#include "txn/transaction.h"

namespace mbi {

/// Combines per-component top-k results into one answer under the paper's
/// optimistic-bound semantics (DESIGN.md §13.3). Reusable: one merger per
/// DynQueryContext, Reset() per query, scratch vectors keep their capacity.
///
/// Soundness of the merge (the invariants dyn_differential_test gates):
///
///  * Deleted rows never reach the merger: each part drops them inside its
///    own scan (DeletedRows, checked before the match kernel), so every
///    part's answer is already exact over its live rows and each part is
///    asked for plain k — the global top-k is contained in the union of the
///    per-part top-k lists.
///  * `certificate_bound` merges as MAX over components (MergeQueryStats):
///    the combined bound must dominate every component's unexplored region;
///    last-writer or sum would be unsound.
///  * `is_exact` merges as AND; `termination` as most-severe.
///  * Global ids are unique across components (a row lives in exactly one
///    component or the buffer), so the merge needs no dedup.
///  * Cutoff ties: the final sort is (similarity desc, gid asc), so the
///    *merge* is deterministic; within a component the usual caveat stands
///    (NearestNeighborResult::neighbors) — tie-group ids at a component's
///    k-th similarity are unspecified, values are exact.
class KnnMerger {
 public:
  /// Starts a new merge for a top-`k` query.
  void Reset(size_t k);

  /// Folds one component's result. Neighbor ids must already be GLOBAL.
  void AddComponent(const NearestNeighborResult& component);

  /// Folds one scored candidate (the buffer scan path).
  void AddCandidate(TransactionId gid, double similarity);

  /// Folds stats only — for the buffer scan (whose candidates arrive via
  /// AddCandidate) and for components that were *skipped* under an
  /// exhausted budget: a skipped component's rows count as unexplored and
  /// its best-possible score must still be dominated by the certificate.
  void AddStats(const QueryStats& stats);

  /// Sorts, truncates to k, and fills `*result` (neighbors + merged stats +
  /// certificate fields). The merger can be Reset() and reused afterwards.
  void Finish(NearestNeighborResult* result);

 private:
  size_t k_ = 0;
  std::vector<Neighbor> candidates_;
  QueryStats stats_;
};

}  // namespace mbi

#endif  // MBI_DYN_KNN_MERGER_H_
