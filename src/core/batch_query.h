#ifndef MBI_CORE_BATCH_QUERY_H_
#define MBI_CORE_BATCH_QUERY_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_context.h"
#include "util/thread_pool.h"

namespace mbi {

/// Reusable scratch for FindKNearestBatch: the per-shard QueryContexts.
/// A caller running batches in a loop (benchmarks, a serving loop) keeps
/// one workspace per concurrent batch; warm contexts make the single-shard
/// steady state allocation-free (see the result-out overload below).
/// A deque because QueryContext is pinned (non-copyable, non-movable):
/// growing for a larger batch never relocates the warm contexts.
struct BatchQueryWorkspace {
  std::deque<QueryContext> contexts;
};

/// Answers many independent k-NN queries against one engine concurrently.
///
/// Queries against a built SignatureTable are read-only (the engine keeps no
/// per-query state and the simulated disk reads are const), so a batch can
/// fan out across a thread pool without any locking. Results are returned in
/// target order and are identical to running each query alone.
///
/// Each worker shard reuses one QueryContext across all the queries it
/// answers, so the steady state of a large batch allocates only the result
/// vectors.
///
/// Threading: when `pool` is non-null the batch runs on that caller-owned
/// pool — construct it once and pass it to every call; nothing is spawned
/// per batch. `num_threads` then only caps the shard count (0 = use every
/// pool worker). When `pool` is null a temporary pool of `num_threads`
/// workers (0 = hardware concurrency) is created for the call. A shared pool
/// may serve concurrent batches; each call returns when its own queries are
/// done.
std::vector<NearestNeighborResult> FindKNearestBatch(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options = {}, size_t num_threads = 0,
    ThreadPool* pool = nullptr);

/// Fully reusable variant: shard contexts come from `workspace` and results
/// are written into `*results` (resized to targets.size(); element capacity
/// kept). Identical output to the returning overload. With one shard —
/// `num_threads == 1`, or a single target — a warm (workspace, results)
/// pair answers the whole batch without allocating (the steady state
/// query_context_test pins under ScopedAllocationBan). Multi-shard batches
/// still allocate the per-shard task closures they submit to the pool.
void FindKNearestBatch(const BranchAndBoundEngine& engine,
                       const std::vector<Transaction>& targets,
                       const SimilarityFamily& family, size_t k,
                       const SearchOptions& options, size_t num_threads,
                       ThreadPool* pool, BatchQueryWorkspace* workspace,
                       std::vector<NearestNeighborResult>* results);

}  // namespace mbi

#endif  // MBI_CORE_BATCH_QUERY_H_
