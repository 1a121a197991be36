#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/batch_query.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForSmallCountOnLargePool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DestructorRunsQueuedButUnstartedTasks) {
  // No Wait() before destruction: the destructor contract is that every
  // submitted task still runs before the workers join.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, NestedSubmitFromWorkerIsVisibleToWait) {
  // A task that submits follow-up work is itself in flight while it enqueues,
  // so Wait() cannot return between the parent finishing and the children
  // being counted.
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&pool, &counter] {
      for (int j = 0; j < 5; ++j) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitFromManyExternalThreads) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, SingleWorkerPreservesTaskEffects) {
  // One worker forces full serialization through the queue; the sum must
  // still come out exact (catches lost-task bugs without needing atomics).
  ThreadPool pool(1);
  int sum = 0;  // Intentionally non-atomic: only the one worker touches it.
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum += i; });
  }
  pool.Wait();
  EXPECT_EQ(sum, 5050);
}

TEST(BatchQueryTest, MatchesSequentialResults) {
  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_transaction_size = 9.0;
  config.seed = 901;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(2000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 10;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  auto targets = generator.GenerateQueries(32);

  auto parallel = FindKNearestBatch(engine, targets, family, 5, {},
                                    /*num_threads=*/4);
  ASSERT_EQ(parallel.size(), targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    auto sequential = engine.FindKNearest(targets[i], family, 5);
    ASSERT_EQ(parallel[i].neighbors.size(), sequential.neighbors.size());
    for (size_t j = 0; j < sequential.neighbors.size(); ++j) {
      EXPECT_EQ(parallel[i].neighbors[j].id, sequential.neighbors[j].id);
      EXPECT_EQ(parallel[i].neighbors[j].similarity,
                sequential.neighbors[j].similarity);
    }
    EXPECT_EQ(parallel[i].stats.transactions_evaluated,
              sequential.stats.transactions_evaluated);
  }
}

TEST(BatchQueryTest, EmptyBatch) {
  QuestGeneratorConfig config;
  config.universe_size = 100;
  config.num_large_itemsets = 20;
  config.seed = 907;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(100);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 5;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  EXPECT_TRUE(FindKNearestBatch(engine, {}, family, 3).empty());
}

TEST(BatchQueryTest, SingleThreadPathMatchesParallelPath) {
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 40;
  config.seed = 911;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(800);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 8;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  CosineFamily family;
  auto targets = generator.GenerateQueries(10);

  auto one = FindKNearestBatch(engine, targets, family, 3, {}, 1);
  auto many = FindKNearestBatch(engine, targets, family, 3, {}, 8);
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].neighbors.size(), many[i].neighbors.size());
    for (size_t j = 0; j < one[i].neighbors.size(); ++j) {
      EXPECT_EQ(one[i].neighbors[j].id, many[i].neighbors[j].id);
    }
  }
}

}  // namespace
}  // namespace mbi
