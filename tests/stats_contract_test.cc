// The QueryStats unit + aggregation contract (DESIGN.md §13.4):
//
//  * entries_* are counted in the path's scan unit — occupied table entries
//    on the indexed path, candidate rows on the scan paths — and
//    scanned + pruned + unexplored == total on every path. On the scan
//    paths, where one "entry" is one row, entries_scanned equals
//    transactions_evaluated, so QueryBudget::max_entries bites at the same
//    magnitude everywhere (the chunk-unit regression let scans overshoot
//    the budget 256x).
//  * combined stats (multi-component queries) aggregate through
//    MergeQueryStats: certificate_bound as max, is_exact as AND,
//    termination as most-severe, counters as sums.

#include <gtest/gtest.h>

#include <vector>

#include "baseline/inverted_index.h"
#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_stats.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

TransactionDatabase MakeDatabase(size_t rows, uint64_t seed = 4242) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateDatabase(rows);
}

Transaction QueryTarget(uint64_t seed = 77) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateQueries(1)[0];
}

// --- The entries_scanned unit regression --------------------------------

TEST(StatsUnitTest, ScannerChargesRowsNotChunksAgainstMaxEntries) {
  // 3000 rows = 12 chunks. Under the old chunk-unit bug a budget of 600
  // "entries" meant 600 *chunks*, which the 12-chunk scan never reached —
  // the query ran to completion, 256x looser than asked. In row units the
  // scan must stop within one chunk of 600 rows.
  TransactionDatabase db = MakeDatabase(3000);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  QueryBudget budget;
  budget.max_entries = 600;
  NearestNeighborResult result;
  scanner.FindKNearest(target, family, 5, budget, &result);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget)
      << "chunk-unit budget enforcement regressed: the scan completed";
  EXPECT_GE(result.stats.entries_scanned, 600u);
  EXPECT_LT(result.stats.entries_scanned, 600u + SequentialScanner::kScanChunk);
}

TEST(StatsUnitTest, ScanAndEnginePathsAgreeOnTheUnit) {
  TransactionDatabase db = MakeDatabase(2000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 8;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  // Scan path: one entry == one row, so entries mirror evaluations and the
  // total is the database itself.
  NearestNeighborResult scan;
  scanner.FindKNearest(target, family, 5, QueryBudget{}, &scan);
  EXPECT_EQ(scan.stats.entries_total, db.size());
  EXPECT_EQ(scan.stats.entries_scanned, scan.stats.transactions_evaluated);
  EXPECT_EQ(scan.stats.entries_scanned + scan.stats.entries_pruned +
                scan.stats.entries_unexplored,
            scan.stats.entries_total);

  // Indexed path: entries are occupied directory entries, and the same
  // conservation law holds.
  NearestNeighborResult indexed = engine.FindKNearest(target, family, 5);
  EXPECT_EQ(indexed.stats.entries_total, table.entries().size());
  EXPECT_EQ(indexed.stats.entries_scanned + indexed.stats.entries_pruned +
                indexed.stats.entries_unexplored,
            indexed.stats.entries_total);

  // The shared consequence — what makes max_entries comparable across
  // paths: neither path's "entry" hides a 256-row multiplier. An entry
  // admits at most the transactions it actually indexes, so scanned
  // entries never exceed evaluations by orders of magnitude; on the scan
  // path they are equal, on the indexed path scanned <= evaluated.
  EXPECT_LE(indexed.stats.entries_scanned,
            indexed.stats.transactions_evaluated);
}

TEST(StatsUnitTest, InvertedIndexCountsCandidateRows) {
  TransactionDatabase db = MakeDatabase(2000);
  InvertedIndex index(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  InvertedIndex::Result full = index.FindKNearest(target, family, 5);
  EXPECT_EQ(full.stats.entries_total, full.candidates);
  EXPECT_EQ(full.stats.entries_scanned, full.stats.transactions_evaluated);
  EXPECT_EQ(full.stats.entries_scanned + full.stats.entries_unexplored,
            full.stats.entries_total);
}

// --- MergeQueryStats ----------------------------------------------------

QueryStats ExactStats() {
  QueryStats stats;
  stats.database_size = 1000;
  stats.entries_total = 40;
  stats.entries_scanned = 25;
  stats.entries_pruned = 15;
  stats.transactions_evaluated = 600;
  stats.io.pages_read = 7;
  stats.io.bytes_read = 7 * 4096;
  return stats;  // is_exact = true, certificate = -inf, kCompleted
}

QueryStats DegradedStats(QueryTermination termination, double certificate) {
  QueryStats stats;
  stats.database_size = 1000;
  stats.entries_total = 40;
  stats.entries_scanned = 10;
  stats.entries_unexplored = 30;
  stats.transactions_evaluated = 240;
  stats.io.pages_read = 3;
  stats.termination = termination;
  stats.is_exact = false;
  stats.certificate_bound = certificate;
  return stats;
}

TEST(MergeQueryStatsTest, CertificateIsMaxNotLastWriterOrSum) {
  QueryStats agg;
  MergeQueryStats(DegradedStats(QueryTermination::kEntryBudget, 0.8), &agg);
  MergeQueryStats(DegradedStats(QueryTermination::kDeadline, 0.3), &agg);
  // Last-writer would report 0.3 (unsound: the 0.8 component's unexplored
  // region could hold a 0.7 neighbor); sum would report 1.1 (useless).
  EXPECT_DOUBLE_EQ(agg.certificate_bound, 0.8);
  EXPECT_FALSE(agg.is_exact);
  EXPECT_EQ(agg.termination, QueryTermination::kDeadline);  // most severe
}

TEST(MergeQueryStatsTest, OneDegradedComponentDegradesTheWhole) {
  QueryStats agg;
  MergeQueryStats(ExactStats(), &agg);
  EXPECT_TRUE(agg.is_exact);
  EXPECT_EQ(agg.termination, QueryTermination::kCompleted);
  MergeQueryStats(DegradedStats(QueryTermination::kAccessFraction, 0.5), &agg);
  EXPECT_FALSE(agg.is_exact);
  EXPECT_EQ(agg.termination, QueryTermination::kAccessFraction);
  // Exactness never comes back once lost.
  MergeQueryStats(ExactStats(), &agg);
  EXPECT_FALSE(agg.is_exact);
  EXPECT_DOUBLE_EQ(agg.certificate_bound, 0.5);
}

TEST(MergeQueryStatsTest, CountersAndIoSum) {
  QueryStats agg;
  MergeQueryStats(ExactStats(), &agg);
  MergeQueryStats(DegradedStats(QueryTermination::kEntryBudget, 0.2), &agg);
  EXPECT_EQ(agg.database_size, 2000u);  // components partition the data
  EXPECT_EQ(agg.entries_total, 80u);
  EXPECT_EQ(agg.entries_scanned, 35u);
  EXPECT_EQ(agg.entries_pruned, 15u);
  EXPECT_EQ(agg.entries_unexplored, 30u);
  EXPECT_EQ(agg.transactions_evaluated, 840u);
  EXPECT_EQ(agg.io.pages_read, 10u);
  EXPECT_EQ(agg.entries_scanned + agg.entries_pruned + agg.entries_unexplored,
            agg.entries_total);
}

TEST(MergeQueryStatsTest, TerminationSeverityOrderIsTotal) {
  const QueryTermination order[] = {
      QueryTermination::kCompleted, QueryTermination::kAccessFraction,
      QueryTermination::kEntryBudget, QueryTermination::kDeadline,
      QueryTermination::kCancelled};
  for (size_t a = 0; a < 5; ++a) {
    for (size_t b = 0; b < 5; ++b) {
      EXPECT_EQ(MergeTermination(order[a], order[b]),
                order[a > b ? a : b]);
    }
  }
}

}  // namespace
}  // namespace mbi
