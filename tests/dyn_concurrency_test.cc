// TSan-oriented interleaving tests for the dynamized index: concurrent
// inserts, deletes, queries, background merges, delete-proportion rewrites,
// and a foreground compaction all race against one DynamicIndex. Like stress_concurrency_test.cc the
// assertions stay simple (no lost rows, invariants hold, every answer
// internally consistent) — the point is to give the thread sanitizer
// interleavings to object to, with a final differential check proving
// nothing was silently corrupted. CI runs this under -DMBI_SANITIZE=thread
// across an MBI_FAULT_SEED matrix that varies the workload shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "baseline/sequential_scan.h"
#include "dyn/dynamic_index.h"
#include "gen/quest_generator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("MBI_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

TEST(DynConcurrencyTest, InsertsQueriesAndMergesInterleave) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4000 + seed;

  ThreadPool merge_pool(2);
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2 + static_cast<size_t>(seed % 2);
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  DynamicIndex index(150, options);

  constexpr size_t kRows = 160;
  QuestGenerator generator(config);
  std::vector<Transaction> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) rows.push_back(generator.NextTransaction());

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> inserted{0};
  std::thread writer([&] {
    for (const Transaction& txn : rows) {
      for (;;) {  // Backpressure is a retry signal, never data loss.
        StatusOr<TransactionId> gid = index.Insert(txn);
        if (gid.ok()) break;
        ASSERT_EQ(gid.status().code(), StatusCode::kUnavailable);
        std::this_thread::yield();
      }
      inserted.fetch_add(1);
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  const MatchRatioFamily family;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      QuestGeneratorConfig qconfig;
      qconfig.universe_size = 150;
      qconfig.seed = 5000 + seed * 10 + static_cast<uint64_t>(r);
      QuestGenerator queries(qconfig);
      DynQueryContext context;
      NearestNeighborResult result;
      while (!writer_done.load()) {
        const Transaction target = queries.NextTransaction();
        const size_t visible = inserted.load();
        index.FindKNearest(target, family, 5, SearchOptions{}, &context,
                           &result);
        // A snapshot can only see rows that were fully inserted; it must
        // see at least the rows published before the query started minus
        // nothing (components never drop live rows).
        EXPECT_GE(result.stats.database_size, std::min<size_t>(visible, 1));
        for (size_t i = 1; i < result.neighbors.size(); ++i) {
          EXPECT_GE(result.neighbors[i - 1].similarity,
                    result.neighbors[i].similarity);
        }
        EXPECT_TRUE(result.guaranteed_exact);
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  index.WaitForMaintenance();
  EXPECT_EQ(index.live_size(), kRows);
  EXPECT_TRUE(index.CheckInvariants().ok());

  // Differential epilogue: after the dust settles the index must agree with
  // a scan over everything inserted.
  TransactionDatabase oracle(150);
  for (const Transaction& txn : rows) oracle.Add(txn);
  const SequentialScanner scanner(&oracle);
  QuestGeneratorConfig qconfig;
  qconfig.universe_size = 150;
  qconfig.seed = 6000 + seed;
  QuestGenerator queries(qconfig);
  for (int q = 0; q < 3; ++q) {
    const Transaction target = queries.NextTransaction();
    NearestNeighborResult result = index.FindKNearest(target, family, 8);
    const std::vector<Neighbor> expected =
        scanner.FindKNearest(target, family, 8);
    ASSERT_EQ(result.neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].similarity, expected[i].similarity);
    }
  }
}

TEST(DynConcurrencyTest, DeletesAndCompactionRaceQueries) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4100 + seed;
  QuestGenerator generator(config);

  ThreadPool merge_pool(2);
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  DynamicIndex index(150, options);

  constexpr size_t kRows = 96;
  std::vector<TransactionId> gids;
  for (size_t i = 0; i < kRows; ++i) {
    for (;;) {
      StatusOr<TransactionId> gid = index.Insert(generator.NextTransaction());
      if (gid.ok()) {
        gids.push_back(gid.value());
        break;
      }
      std::this_thread::yield();
    }
  }
  index.WaitForMaintenance();

  std::atomic<bool> done{false};
  std::thread deleter([&] {
    for (size_t i = 0; i < gids.size(); i += 3) {
      EXPECT_TRUE(index.Delete(gids[i]).ok());
      std::this_thread::yield();
    }
    done.store(true);
  });
  std::thread compactor([&] {
    EXPECT_TRUE(index.Compact().ok());
  });
  std::thread reader([&] {
    const MatchRatioFamily family;
    QuestGeneratorConfig qconfig;
    qconfig.universe_size = 150;
    qconfig.seed = 5100 + seed;
    QuestGenerator queries(qconfig);
    DynQueryContext context;
    NearestNeighborResult result;
    while (!done.load()) {
      index.FindKNearest(queries.NextTransaction(), family, 4,
                         SearchOptions{}, &context, &result);
      EXPECT_TRUE(result.guaranteed_exact);
    }
  });
  deleter.join();
  compactor.join();
  reader.join();
  index.WaitForMaintenance();

  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.live_size(), kRows - (gids.size() + 2) / 3);

  // Every deleted gid is gone, every surviving gid findable.
  const MatchRatioFamily family;
  NearestNeighborResult all = index.FindKNearest(
      generator.NextTransaction(), family, index.live_size());
  std::set<TransactionId> returned;
  for (const Neighbor& neighbor : all.neighbors) returned.insert(neighbor.id);
  for (size_t i = 0; i < gids.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(returned.count(gids[i]), 0u) << "deleted gid came back";
    }
  }
}

TEST(DynConcurrencyTest, DeletesRewritesAndQueriesRace) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4200 + seed;
  QuestGenerator generator(config);

  ThreadPool merge_pool(2);
  MetricsRegistry registry;
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 3 + static_cast<size_t>(seed % 2);
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  options.metrics = &registry;
  DynamicIndex index(150, options);

  constexpr size_t kLive = 128;
  constexpr size_t kPairs = 160;
  std::vector<Transaction> by_gid;
  for (size_t i = 0; i < kLive + kPairs; ++i) {
    by_gid.push_back(generator.NextTransaction());
  }
  auto insert = [&index](const Transaction& txn) {
    for (;;) {  // Backpressure is a retry signal, never data loss.
      StatusOr<TransactionId> gid = index.Insert(txn);
      if (gid.ok()) return gid.value();
      EXPECT_EQ(gid.status().code(), StatusCode::kUnavailable);
      std::this_thread::yield();
    }
  };
  for (size_t i = 0; i < kLive; ++i) insert(by_gid[i]);
  index.WaitForMaintenance();

  // Oldest-first churn: deletes pile onto the oldest component until the
  // delete-proportion rule rewrites it in the background. `deleted_below`
  // publishes how many of the oldest gids are gone.
  std::atomic<size_t> deleted_below{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kPairs; ++i) {
      EXPECT_EQ(insert(by_gid[kLive + i]), kLive + i);
      EXPECT_TRUE(index.Delete(static_cast<TransactionId>(i)).ok());
      deleted_below.store(i + 1, std::memory_order_release);
      std::this_thread::yield();
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const MatchRatioFamily family;
      QuestGeneratorConfig qconfig;
      qconfig.universe_size = 150;
      qconfig.seed = 5200 + seed * 10 + static_cast<uint64_t>(r);
      QuestGenerator queries(qconfig);
      DynQueryContext context;
      NearestNeighborResult result;
      while (!done.load()) {
        // A delete that returned before the query began is never visible.
        const size_t gone = deleted_below.load(std::memory_order_acquire);
        index.FindKNearest(queries.NextTransaction(), family, 6,
                           SearchOptions{}, &context, &result);
        EXPECT_TRUE(result.guaranteed_exact);
        EXPECT_EQ(result.neighbors.size(), 6u);
        for (const Neighbor& neighbor : result.neighbors) {
          EXPECT_GE(neighbor.id, gone) << "deleted gid came back";
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  index.WaitForMaintenance();

  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.live_size(), kLive);
  EXPECT_GE(registry.FindCounter("mbi.dyn.rewrites")->value(), 1u);

  // Differential epilogue over the live rows, gids [kPairs, kLive + kPairs).
  TransactionDatabase oracle(150);
  for (size_t gid = kPairs; gid < kLive + kPairs; ++gid) {
    oracle.Add(by_gid[gid]);
  }
  const SequentialScanner scanner(&oracle);
  const MatchRatioFamily family;
  for (int q = 0; q < 3; ++q) {
    const Transaction target = generator.NextTransaction();
    NearestNeighborResult result = index.FindKNearest(target, family, 8);
    const std::vector<Neighbor> expected =
        scanner.FindKNearest(target, family, 8);
    ASSERT_EQ(result.neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].similarity, expected[i].similarity);
    }
  }
}

}  // namespace
}  // namespace mbi
