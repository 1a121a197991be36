// Unit tests for the Bentley–Saxe dynamization (src/dyn/): buffer and spill
// mechanics, leveling/merge policy, tagged deletes (per-part deleted
// bitmaps, the delete-proportion rewrite and its bound), admission control,
// compaction, persistence (including per-component quarantine), and the
// KnnMerger invariants. Cross-checking against the sequential-scan oracle
// lives in dyn_differential_test.cc; TSan interleavings in
// dyn_concurrency_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/sequential_scan.h"
#include "dyn/dyn_io.h"
#include "dyn/dynamic_index.h"
#include "dyn/knn_merger.h"
#include "dyn/mutable_buffer.h"
#include "dyn/scheduler.h"
#include "gen/quest_generator.h"
#include "storage/env.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

QuestGeneratorConfig GeneratorConfig(uint64_t seed = 711) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  return config;
}

DynamicIndexOptions SmallOptions() {
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 6;
  return options;
}

/// Inserts `n` generated rows, asserting each insert is admitted (the
/// inline scheduler never leaves a merge in flight, so backpressure cannot
/// trip here).
std::vector<TransactionId> FillIndex(DynamicIndex* index,
                                     QuestGenerator* generator, size_t n) {
  std::vector<TransactionId> gids;
  gids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto gid = index->Insert(generator->NextTransaction());
    EXPECT_TRUE(gid.ok()) << gid.status().ToString();
    gids.push_back(gid.value());
  }
  return gids;
}

/// Inserts `n` generated rows like FillIndex, also recording each row under
/// its gid (the oracle's source of truth).
std::vector<TransactionId> FillRecorded(DynamicIndex* index,
                                        QuestGenerator* generator, size_t n,
                                        std::vector<Transaction>* by_gid) {
  std::vector<TransactionId> gids;
  for (size_t i = 0; i < n; ++i) {
    Transaction txn = generator->NextTransaction();
    auto gid = index->Insert(txn);
    EXPECT_TRUE(gid.ok()) << gid.status().ToString();
    if (by_gid->size() <= gid.value()) by_gid->resize(gid.value() + 1);
    (*by_gid)[gid.value()] = std::move(txn);
    gids.push_back(gid.value());
  }
  return gids;
}

/// Exact top-k similarity values over the rows of `by_gid` not in
/// `deleted`, by SequentialScanner.
std::vector<double> LiveOracle(const std::vector<Transaction>& by_gid,
                               const std::set<TransactionId>& deleted,
                               const Transaction& target,
                               const SimilarityFamily& family, size_t k) {
  TransactionDatabase live(200);
  for (TransactionId gid = 0; gid < by_gid.size(); ++gid) {
    if (deleted.count(gid) == 0) live.Add(by_gid[gid]);
  }
  std::vector<double> values;
  for (const Neighbor& neighbor :
       SequentialScanner(&live).FindKNearest(target, family, k)) {
    values.push_back(neighbor.similarity);
  }
  return values;
}

/// Similarity values of `result`, in order.
std::vector<double> Values(const NearestNeighborResult& result) {
  std::vector<double> values;
  for (const Neighbor& neighbor : result.neighbors) {
    values.push_back(neighbor.similarity);
  }
  return values;
}

TEST(MutableBufferTest, AppendsUntilFullAndPublishesInOrder) {
  MutableBuffer buffer(3);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.Append(10, Transaction({1, 2})));
  EXPECT_TRUE(buffer.Append(11, Transaction({3})));
  EXPECT_FALSE(buffer.full());
  EXPECT_TRUE(buffer.Append(12, Transaction({})));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.Append(13, Transaction({4})));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.row(0).gid, 10u);
  EXPECT_EQ(buffer.row(2).gid, 12u);
  EXPECT_EQ(buffer.row(0).txn.size(), 2u);
}

TEST(SchedulerTest, InlineModeRunsJobsSynchronously) {
  Scheduler scheduler(nullptr);
  int ran = 0;
  EXPECT_TRUE(scheduler.Submit([&ran](const QueryBudget& budget) {
    EXPECT_FALSE(budget.cancelled());
    ++ran;
  }));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(scheduler.in_flight(), 0u);
}

TEST(SchedulerTest, StopDropsFutureJobsAndCancelsBudgets) {
  ThreadPool pool(2);
  Scheduler scheduler(&pool);
  scheduler.RequestStop();
  int ran = 0;
  EXPECT_FALSE(scheduler.Submit([&ran](const QueryBudget&) { ++ran; }));
  scheduler.Drain();
  EXPECT_EQ(ran, 0);
}

TEST(SchedulerTest, JobDeadlineReachesTheBudget) {
  Scheduler scheduler(nullptr, /*job_deadline_ms=*/1e6);
  bool saw_deadline = false;
  scheduler.Submit([&saw_deadline](const QueryBudget& budget) {
    saw_deadline = budget.deadline_us !=
                   std::numeric_limits<double>::infinity();
  });
  EXPECT_TRUE(saw_deadline);
}

TEST(DynamicIndexTest, SpillsAtCapacityAndMergesGeometrically) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 64);

  // 64 rows / capacity 8 = 8 spills; fanout 2 cascades them into one run.
  EXPECT_EQ(index.live_size(), 64u);
  EXPECT_EQ(index.buffered_rows(), 0u);
  size_t total_rows = 0;
  for (const auto& level : index.LevelBreakdown()) {
    EXPECT_LT(level.components, SmallOptions().level_fanout)
        << "level " << level.level << " left overflowing";
    total_rows += level.rows;
  }
  EXPECT_EQ(total_rows, 64u);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, QueriesSpanBufferAndComponents) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 21);  // 2 spills + 5 buffered rows.
  EXPECT_EQ(index.buffered_rows(), 5u);

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult result = index.FindKNearest(target, family, 10);
  EXPECT_EQ(result.neighbors.size(), 10u);
  EXPECT_TRUE(result.guaranteed_exact);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCompleted);
  // database_size sums the partitioned components + buffer.
  EXPECT_EQ(result.stats.database_size, 21u);
  for (size_t i = 1; i < result.neighbors.size(); ++i) {
    EXPECT_GE(result.neighbors[i - 1].similarity,
              result.neighbors[i].similarity);
  }
}

TEST(DynamicIndexTest, DeleteHidesRowsEverywhere) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 20);

  // One victim in a static component, one in the buffer.
  ASSERT_TRUE(index.Delete(gids[3]).ok());
  ASSERT_TRUE(index.Delete(gids[18]).ok());
  EXPECT_EQ(index.live_size(), 18u);
  EXPECT_EQ(index.tombstone_count(), 2u);

  MatchRatioFamily family;
  NearestNeighborResult result =
      index.FindKNearest(generator.NextTransaction(), family, 18);
  EXPECT_EQ(result.neighbors.size(), 18u);
  for (const Neighbor& neighbor : result.neighbors) {
    EXPECT_NE(neighbor.id, gids[3]);
    EXPECT_NE(neighbor.id, gids[18]);
  }
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, DeleteErrorTaxonomy) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 4);

  EXPECT_EQ(index.Delete(999).code(), StatusCode::kNotFound);
  ASSERT_TRUE(index.Delete(gids[1]).ok());
  EXPECT_EQ(index.Delete(gids[1]).code(), StatusCode::kNotFound);

  // After a merge purges the row, a re-delete still reports kNotFound.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.Delete(gids[1]).code(), StatusCode::kNotFound);
}

TEST(DynamicIndexTest, MergePurgesTombstonesAndPreservesAnswers) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 40);
  for (size_t i = 0; i < 40; i += 5) {
    ASSERT_TRUE(index.Delete(gids[i]).ok());
  }
  const Transaction target = generator.NextTransaction();
  MatchRatioFamily family;
  NearestNeighborResult before = index.FindKNearest(target, family, 12);

  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.num_components(), 1u);
  EXPECT_EQ(index.live_size(), 32u);
  EXPECT_TRUE(index.CheckInvariants().ok());

  NearestNeighborResult after = index.FindKNearest(target, family, 12);
  ASSERT_EQ(after.neighbors.size(), before.neighbors.size());
  for (size_t i = 0; i < after.neighbors.size(); ++i) {
    EXPECT_EQ(after.neighbors[i].similarity, before.neighbors[i].similarity);
  }
}

TEST(DynamicIndexTest, BackpressureRejectsWithRetryHintWhenLevelZeroIsFull) {
  // Wedge the merge pool with a blocker so the scheduled merge cannot run;
  // level 0 then fills to max_l0_components and the next spill-needing
  // insert must be refused with the admission hint.
  ThreadPool pool(1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  pool.Submit([&] {
    MutexLock lock(&mu);
    while (!release) cv.Wait(&mu);
  });

  DynamicIndexOptions options = SmallOptions();
  options.pool = &pool;
  options.max_l0_components = 3;
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, options);

  Status rejected = Status::Ok();
  for (int i = 0; i < 200 && rejected.ok(); ++i) {
    StatusOr<TransactionId> gid = index.Insert(generator.NextTransaction());
    if (!gid.ok()) rejected = gid.status();
  }
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("retry_after_ms="), std::string::npos);

  {
    MutexLock lock(&mu);
    release = true;
    cv.NotifyAll();
  }
  index.WaitForMaintenance();
  // With the merge drained, admission resumes.
  EXPECT_TRUE(index.Insert(generator.NextTransaction()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, MetricsTrackTheLifecycle) {
  MetricsRegistry registry;
  DynamicIndexOptions options = SmallOptions();
  options.metrics = &registry;
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 20);
  ASSERT_TRUE(index.Delete(gids[0]).ok());
  MatchRatioFamily family;
  index.FindKNearest(generator.NextTransaction(), family, 3);

  EXPECT_EQ(registry.FindCounter("mbi.dyn.inserts")->value(), 20u);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.deletes")->value(), 1u);
  EXPECT_GE(registry.FindCounter("mbi.dyn.spills")->value(), 2u);
  EXPECT_GE(registry.FindCounter("mbi.dyn.merges")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.queries")->value(), 1u);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.live_rows")->value(), 19.0);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.tombstones")->value(), 1.0);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 0u);

  // 20 rows at capacity 8 / fanout 2: one 16-row level-1 run + 4 buffered.
  // gids 0..15 live in that run. A fifth deleted row (5/16 > 1/4) triggers
  // a rewrite, which is counted apart from level merges and purges the
  // deleted rows.
  const uint64_t merges = registry.FindCounter("mbi.dyn.merges")->value();
  for (size_t i = 1; i < 4; ++i) ASSERT_TRUE(index.Delete(gids[i]).ok());
  EXPECT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 0u);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.tombstones")->value(), 4.0);
  ASSERT_TRUE(index.Delete(gids[4]).ok());
  EXPECT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.merges")->value(), merges);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.tombstones")->value(), 0.0);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.live_rows")->value(), 15.0);
}

TEST(DynamicIndexTest, ChurnKeepsDeletedRowsUnderTheProportionBound) {
  DynamicIndexOptions options;
  options.buffer_capacity = 16;
  options.level_fanout = 3;
  options.build.clustering.target_cardinality = 6;
  QuestGenerator generator(GeneratorConfig(4242));
  DynamicIndex index(200, options);
  std::vector<Transaction> by_gid;
  FillRecorded(&index, &generator, 200, &by_gid);

  // Oldest-first insert+delete churn: every delete lands in the oldest
  // component, the case where deleted rows used to pile up unpurged.
  std::set<TransactionId> deleted;
  MatchRatioFamily family;
  size_t max_tombstones = 0;
  for (TransactionId oldest = 0; oldest < 400; ++oldest) {
    FillRecorded(&index, &generator, 1, &by_gid);
    ASSERT_TRUE(index.Delete(oldest).ok());
    deleted.insert(oldest);

    size_t component_rows = 0;
    for (const auto& level : index.LevelBreakdown()) {
      component_rows += level.rows;
    }
    // Each component holds at most a quarter of its rows deleted (the
    // inline scheduler finishes every claimed rewrite before Delete
    // returns), so the sum stays within a quarter of all component rows.
    const size_t bound =
        static_cast<size_t>(std::ceil(0.25 * static_cast<double>(
                                                 component_rows))) +
        index.buffered_rows();
    ASSERT_LE(index.tombstone_count(), bound) << "after delete " << oldest;
    ASSERT_TRUE(index.CheckInvariants().ok()) << "after delete " << oldest;
    ASSERT_EQ(index.live_size(), 200u);
    max_tombstones = std::max(max_tombstones, index.tombstone_count());

    if (oldest % 50 == 49) {
      const Transaction target = generator.NextTransaction();
      NearestNeighborResult result = index.FindKNearest(target, family, 6);
      EXPECT_TRUE(result.guaranteed_exact);
      EXPECT_EQ(Values(result),
                LiveOracle(by_gid, deleted, target, family, 6));
      for (const Neighbor& neighbor : result.neighbors) {
        EXPECT_EQ(deleted.count(neighbor.id), 0u);
      }
    }
  }
  // The bound is not vacuous: deleted rows did accumulate between rewrites.
  EXPECT_GT(max_tombstones, 0u);
}

TEST(DynamicIndexTest, DeletingAComponentsTopKKeepsTheAnswerExact) {
  // One 64-row component plus a partly filled buffer, so the component's
  // true top-k is a scan over gids [0, 64).
  DynamicIndexOptions options;
  options.buffer_capacity = 64;
  options.level_fanout = 4;
  options.build.clustering.target_cardinality = 6;
  QuestGenerator generator(GeneratorConfig(99));
  DynamicIndex index(200, options);
  std::vector<Transaction> by_gid;
  FillRecorded(&index, &generator, 64 + 20, &by_gid);
  ASSERT_EQ(index.num_components(), 1u);
  ASSERT_EQ(index.buffered_rows(), 20u);

  const Transaction target = generator.NextTransaction();
  CosineFamily family;
  constexpr size_t kK = 8;  // 8 of 64 rows: under the rewrite bound.
  TransactionDatabase component_rows(200);
  for (TransactionId gid = 0; gid < 64; ++gid) component_rows.Add(by_gid[gid]);
  std::set<TransactionId> deleted;
  for (const Neighbor& neighbor :
       SequentialScanner(&component_rows).FindKNearest(target, family, kK)) {
    deleted.insert(neighbor.id);  // Local id == gid in this component.
  }
  for (TransactionId gid : deleted) ASSERT_TRUE(index.Delete(gid).ok());
  ASSERT_EQ(index.num_components(), 1u);  // Flagged, not rewritten.
  ASSERT_EQ(index.tombstone_count(), kK);

  NearestNeighborResult result = index.FindKNearest(target, family, kK);
  ASSERT_EQ(result.neighbors.size(), kK);
  EXPECT_TRUE(result.guaranteed_exact);
  EXPECT_EQ(Values(result), LiveOracle(by_gid, deleted, target, family, kK));
  for (const Neighbor& neighbor : result.neighbors) {
    EXPECT_EQ(deleted.count(neighbor.id), 0u);
  }
  EXPECT_LE(result.stats.transactions_evaluated, index.live_size());
  EXPECT_EQ(result.stats.database_size, index.live_size());

  // With k = every live row nothing prunes, so every live row is evaluated
  // exactly once and no deleted row is counted.
  NearestNeighborResult all =
      index.FindKNearest(target, family, index.live_size());
  EXPECT_EQ(all.neighbors.size(), index.live_size());
  EXPECT_EQ(all.stats.transactions_evaluated, index.live_size());
}

TEST(DynamicIndexTest, DeleteDuringAnInFlightRewriteStaysInvisible) {
  ThreadPool pool(1);
  MetricsRegistry registry;
  DynamicIndexOptions options = SmallOptions();
  options.pool = &pool;
  options.metrics = &registry;
  QuestGenerator generator(GeneratorConfig(31));
  DynamicIndex index(200, options);
  std::vector<Transaction> by_gid;
  FillRecorded(&index, &generator, 16, &by_gid);  // One 16-row run.
  index.WaitForMaintenance();
  ASSERT_EQ(index.num_components(), 1u);

  // Wedge the pool so the rewrite is claimed but cannot run.
  Mutex mu;
  CondVar cv;
  bool release = false;
  pool.Submit([&] {
    MutexLock lock(&mu);
    while (!release) cv.Wait(&mu);
  });
  std::set<TransactionId> deleted;
  for (TransactionId gid = 0; gid < 5; ++gid) {  // 5/16 > 1/4: rewrite.
    ASSERT_TRUE(index.Delete(gid).ok());
    deleted.insert(gid);
  }
  // These land while the rewrite is in flight.
  for (TransactionId gid : {TransactionId{9}, TransactionId{12}}) {
    ASSERT_TRUE(index.Delete(gid).ok());
    deleted.insert(gid);
  }
  EXPECT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 0u);
  {
    MutexLock lock(&mu);
    release = true;
    cv.NotifyAll();
  }
  index.WaitForMaintenance();
  EXPECT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 1u);

  // The rewrite purged the five claimed rows; the two late deletes carried
  // over into the new component's bitmap.
  EXPECT_EQ(index.tombstone_count(), 2u);
  EXPECT_EQ(index.live_size(), 9u);
  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.Delete(9).code(), StatusCode::kNotFound);
  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult result = index.FindKNearest(target, family, 9);
  ASSERT_EQ(result.neighbors.size(), 9u);
  for (const Neighbor& neighbor : result.neighbors) {
    EXPECT_EQ(deleted.count(neighbor.id), 0u) << "gid " << neighbor.id;
  }
  EXPECT_EQ(Values(result), LiveOracle(by_gid, deleted, target, family, 9));
}

TEST(DynamicIndexTest, DeletesAreInvisibleOnEveryScanPath) {
  // Ported from the merger-level filter test: the merger no longer filters,
  // so each scan path — buffer, healthy component (branch and bound), and
  // quarantined component (sequential scanner) — must drop deleted rows.
  QuestGenerator generator(GeneratorConfig(57));
  DynamicIndexOptions options = SmallOptions();
  options.level_fanout = 4;  // Keep the two spills as separate components.
  DynamicIndex index(200, options);
  std::vector<Transaction> by_gid;
  FillRecorded(&index, &generator, 20, &by_gid);  // L0: 8 + 8, buffer: 4.
  const std::string prefix = ::testing::TempDir() + "dyn_every_path";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());
  {
    auto file_or = Env::Default()->NewWritableFile(DynIo::TablePath(prefix, 0));
    ASSERT_TRUE(file_or.ok());
    const char garbage[] = "not a signature table";
    ASSERT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(file_or.value()->Close().ok());
  }
  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  ASSERT_EQ(loaded->num_components(), 2u);

  // gid 2: quarantined component 0; gid 11: healthy component 1; gid 17:
  // the buffer. One row of eight stays under the rewrite bound.
  const std::set<TransactionId> deleted = {2, 11, 17};
  for (TransactionId gid : deleted) ASSERT_TRUE(loaded->Delete(gid).ok());
  ASSERT_EQ(loaded->tombstone_count(), 3u);

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult all = loaded->FindKNearest(target, family, 17);
  EXPECT_GE(all.stats.sequential_fallbacks, 1u);
  EXPECT_TRUE(all.guaranteed_exact);
  ASSERT_EQ(all.neighbors.size(), 17u);
  EXPECT_EQ(all.stats.transactions_evaluated, 17u);
  for (const Neighbor& neighbor : all.neighbors) {
    EXPECT_EQ(deleted.count(neighbor.id), 0u) << "gid " << neighbor.id;
  }
  EXPECT_EQ(Values(all), LiveOracle(by_gid, deleted, target, family, 17));

  // The deletes survive a save/load round trip through the gid list.
  const std::string again = ::testing::TempDir() + "dyn_every_path_again";
  ASSERT_TRUE(DynIo::Save(*loaded, again).ok());
  auto reloaded_or = DynIo::Load(again, options);
  ASSERT_TRUE(reloaded_or.ok()) << reloaded_or.status().ToString();
  EXPECT_EQ(reloaded_or.value()->tombstone_count(), 3u);
  EXPECT_EQ(reloaded_or.value()->live_size(), 17u);
  EXPECT_EQ(Values(reloaded_or.value()->FindKNearest(target, family, 17)),
            Values(all));
}

TEST(DynIoTest, SaveLoadRoundTripsStateAndAnswers) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 29);
  ASSERT_TRUE(index.Delete(gids[7]).ok());
  ASSERT_TRUE(index.Delete(gids[27]).ok());  // A buffered row.

  const std::string prefix = ::testing::TempDir() + "dyn_roundtrip";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  EXPECT_EQ(loaded->live_size(), index.live_size());
  EXPECT_EQ(loaded->next_gid(), index.next_gid());
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult original = index.FindKNearest(target, family, 10);
  NearestNeighborResult restored = loaded->FindKNearest(target, family, 10);
  ASSERT_EQ(restored.neighbors.size(), original.neighbors.size());
  for (size_t i = 0; i < restored.neighbors.size(); ++i) {
    EXPECT_EQ(restored.neighbors[i].similarity,
              original.neighbors[i].similarity);
    EXPECT_EQ(restored.neighbors[i].id, original.neighbors[i].id);
  }

  // The gid watermark survives: new inserts never collide with old rows.
  StatusOr<TransactionId> fresh = loaded->Insert(generator.NextTransaction());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), index.next_gid());
}

TEST(DynIoTest, CorruptTableQuarantinesOneComponentOnly) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  FillIndex(&index, &generator, 48);  // Ends as L2(32) + L1(16): two shards.
  ASSERT_GE(index.num_components(), 2u);

  const std::string prefix = ::testing::TempDir() + "dyn_quarantine";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  // Trash component 0's table shard; its rows stay intact.
  Env* env = Env::Default();
  {
    auto file_or = env->NewWritableFile(DynIo::TablePath(prefix, 0));
    ASSERT_TRUE(file_or.ok());
    const char garbage[] = "not a signature table";
    ASSERT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(file_or.value()->Close().ok());
  }

  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  // Still answers exactly — the damaged component scans sequentially and
  // the fallback is surfaced in the stats.
  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult original = index.FindKNearest(target, family, 8);
  NearestNeighborResult degraded = loaded->FindKNearest(target, family, 8);
  ASSERT_EQ(degraded.neighbors.size(), original.neighbors.size());
  for (size_t i = 0; i < degraded.neighbors.size(); ++i) {
    EXPECT_EQ(degraded.neighbors[i].similarity,
              original.neighbors[i].similarity);
  }
  EXPECT_TRUE(degraded.guaranteed_exact);
  EXPECT_GE(degraded.stats.sequential_fallbacks, 1u);

  // A compaction re-mines everything, clearing the quarantine.
  ASSERT_TRUE(loaded->Compact().ok());
  NearestNeighborResult healed = loaded->FindKNearest(target, family, 8);
  EXPECT_EQ(healed.stats.sequential_fallbacks, 0u);
}

TEST(DynIoTest, MissingTableShardFallsBackToExactScan) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  FillIndex(&index, &generator, 48);  // Ends as L2(32) + L1(16): two shards.
  ASSERT_GE(index.num_components(), 2u);

  const std::string prefix = ::testing::TempDir() + "dyn_missing_table";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  // Component 0's table shard is gone (not damaged); its rows stay intact.
  Env* env = Env::Default();
  ASSERT_TRUE(env->RemoveFile(DynIo::TablePath(prefix, 0)).ok());

  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult original = index.FindKNearest(target, family, 8);
  NearestNeighborResult degraded = loaded->FindKNearest(target, family, 8);
  ASSERT_EQ(degraded.neighbors.size(), original.neighbors.size());
  for (size_t i = 0; i < degraded.neighbors.size(); ++i) {
    EXPECT_EQ(degraded.neighbors[i].similarity,
              original.neighbors[i].similarity);
  }
  EXPECT_TRUE(degraded.guaranteed_exact);
  EXPECT_GE(degraded.stats.sequential_fallbacks, 1u);

  // Re-saving writes no table for the table-less component.
  ASSERT_TRUE(DynIo::Save(*loaded, prefix).ok());
  EXPECT_FALSE(env->FileExists(DynIo::TablePath(prefix, 0)));
  EXPECT_TRUE(env->FileExists(DynIo::TablePath(prefix, 1)));

  // A compaction re-mines everything and rebuilds the missing table.
  ASSERT_TRUE(loaded->Compact().ok());
  NearestNeighborResult healed = loaded->FindKNearest(target, family, 8);
  EXPECT_EQ(healed.stats.sequential_fallbacks, 0u);
}

TEST(DynIoTest, CorruptRowsFailTheLoad) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 16);
  const std::string prefix = ::testing::TempDir() + "dyn_bad_rows";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  Env* env = Env::Default();
  {
    auto file_or = env->NewWritableFile(DynIo::RowsPath(prefix, 0));
    ASSERT_TRUE(file_or.ok());
    const char garbage[] = "x";
    ASSERT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(file_or.value()->Close().ok());
  }
  EXPECT_FALSE(DynIo::Load(prefix, SmallOptions()).ok());
}

TEST(KnnMergerTest, CertificateAndExactnessFollowTheMergeRules) {
  KnnMerger merger;
  merger.Reset(2);
  NearestNeighborResult exact;
  exact.neighbors = {{1, 0.9}};
  exact.stats.is_exact = true;
  exact.stats.certificate_bound = -std::numeric_limits<double>::infinity();
  merger.AddComponent(exact);
  QueryStats skipped;
  skipped.is_exact = false;
  skipped.certificate_bound = 0.75;
  skipped.termination = QueryTermination::kEntryBudget;
  merger.AddStats(skipped);
  NearestNeighborResult merged;
  merger.Finish(&merged);
  EXPECT_FALSE(merged.guaranteed_exact);
  EXPECT_EQ(merged.stats.certificate_bound, 0.75);
  EXPECT_EQ(merged.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_EQ(merged.unexplored_optimistic_bound, 0.75);
}

}  // namespace
}  // namespace mbi
