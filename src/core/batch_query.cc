#include "core/batch_query.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <optional>
#include <thread>

#include "core/query_context.h"

namespace mbi {

std::vector<NearestNeighborResult> FindKNearestBatch(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, size_t num_threads,
    ThreadPool* pool) {
  BatchQueryWorkspace workspace;
  std::vector<NearestNeighborResult> results;
  FindKNearestBatch(engine, targets, family, k, options, num_threads, pool,
                    &workspace, &results);
  return results;
}

void FindKNearestBatch(const BranchAndBoundEngine& engine,
                       const std::vector<Transaction>& targets,
                       const SimilarityFamily& family, size_t k,
                       const SearchOptions& options, size_t num_threads,
                       ThreadPool* pool, BatchQueryWorkspace* workspace,
                       std::vector<NearestNeighborResult>* results) {
  results->resize(targets.size());
  if (targets.empty()) return;

  size_t shards;
  if (pool != nullptr) {
    shards = pool->num_threads();
    if (num_threads != 0) shards = std::min(shards, num_threads);
  } else if (num_threads != 0) {
    shards = num_threads;
  } else {
    shards = std::max(1u, std::thread::hardware_concurrency());
  }
  shards = std::min(shards, targets.size());
  while (workspace->contexts.size() < shards) workspace->contexts.emplace_back();

  if (shards == 1) {
    QueryContext& context = workspace->contexts.front();
    for (size_t i = 0; i < targets.size(); ++i) {
      engine.FindKNearest(targets[i], family, k, options, &context,
                          &(*results)[i]);
    }
    return;
  }

  // Fall back to a call-local pool only when the caller didn't provide one.
  std::optional<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool.emplace(shards);
    pool = &*owned_pool;
  }

  // One reusable context per shard; targets are claimed off a shared cursor
  // so uneven query costs balance dynamically. A std::latch (rather than
  // ThreadPool::Wait) scopes the wait to this batch's own tasks, so a pool
  // shared between concurrent batches works.
  // No mutex here by design (and none to annotate): every shard writes a
  // disjoint results[i] slice claimed off the atomic cursor, per-shard
  // QueryContexts are never shared, and the latch supplies the final
  // happens-before edge back to this thread.
  std::atomic<size_t> cursor{0};
  std::latch done(static_cast<std::ptrdiff_t>(shards));
  for (size_t s = 0; s < shards; ++s) {
    pool->Submit([&, s] {
      QueryContext& context = workspace->contexts[s];
      while (true) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= targets.size()) break;
        engine.FindKNearest(targets[i], family, k, options, &context,
                            &(*results)[i]);
      }
      done.count_down();
    });
  }
  done.wait();
}

}  // namespace mbi
