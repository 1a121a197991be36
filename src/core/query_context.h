#ifndef MBI_CORE_QUERY_CONTEXT_H_
#define MBI_CORE_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/branch_and_bound.h"
#include "core/similarity.h"
#include "txn/packed_target.h"
#include "txn/transaction.h"

namespace mbi {

/// Reusable per-query workspace for BranchAndBoundEngine.
///
/// The engine itself is stateless and read-only; everything a query needs at
/// runtime — bound-calculator tables, the entry-order heap, the match-kernel
/// and score buffers, the k-nearest heap, the packed target bitmaps — lives
/// here. A caller that answers many queries (batch mode, benchmarks, the
/// `mbi query` CLI loop) constructs one context and passes it to every call;
/// after the first few queries have grown the buffers, the steady state
/// allocates nothing beyond the returned result vectors — and the
/// result-out FindKNearest overload eliminates those too: with a warm
/// (context, result) pair the whole query is allocation-free, which
/// query_context_test enforces at runtime with ScopedAllocationBan and
/// mbi-lint enforces statically via the MBI_HOT rules (util/hot_path.h).
/// Per-target similarity bindings reuse warm function objects through
/// SimilarityFamily::RebindTarget.
///
/// A context carries no semantic state between queries: every buffer is
/// rebound or cleared at query entry, so results are bit-identical to using
/// a fresh context (query_context_test.cc asserts this, including across
/// changes of target, k, similarity family, and sort order).
///
/// It holds buffers only: a query's budget comes from SearchOptions::budget.
///
/// Not thread-safe: one context per concurrent query. FindKNearestBatch
/// keeps one per worker shard.
class QueryContext {
 public:
  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

 private:
  friend class BranchAndBoundEngine;

  // --- Per-target bindings (rebound at query entry). ---
  std::vector<std::unique_ptr<SimilarityFunction>> functions_;
  std::vector<BoundCalculator> calculators_;
  std::vector<PackedTarget> packed_targets_;
  std::vector<int> counts_scratch_;  // r_j scratch for calculator rebinding.

  // --- Entry ordering (lazy max-heap over entry indices). ---
  std::vector<uint32_t> entry_heap_;
  std::vector<double> optimistic_;  // Optimistic bound per entry index.
  std::vector<double> order_keys_;  // Sort keys for the alternative order.
  // SIMD bounds-kernel output, t-major: slot t * num_entries + i holds
  // target t's M_opt / D_opt for entry i.
  std::vector<int32_t> bound_match_;
  std::vector<int32_t> bound_dist_;

  // --- Candidate evaluation scratch. ---
  // SIMD match-kernel output for one entry's row range, plus the
  // per-candidate similarity accumulator across targets.
  std::vector<uint32_t> match_scratch_;
  std::vector<uint32_t> hamming_scratch_;
  std::vector<double> score_scratch_;
  std::vector<Neighbor> knn_heap_;
};

}  // namespace mbi

#endif  // MBI_CORE_QUERY_CONTEXT_H_
