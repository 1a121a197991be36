// Oracle-equivalence suite for the overhauled query hot path: the lazy
// entry-ordering / packed-kernel / context-reusing engine must return
// *bit-identical* NearestNeighborResults — neighbors, exactness certificate,
// bounds, tie-breaks, stats, and traces — to
//
//  (a) the frozen pre-overhaul implementation
//      (BranchAndBoundEngine::FindKNearest*Reference: full std::sort,
//      fresh allocations, merge-scan MatchAndHamming), and
//  (b) the SequentialScanner ground truth (for exact searches).
//
// The sweep covers all three paper similarity families, both entry sort
// orders, early termination, optimality gaps, trace collection, and the
// multi-target aggregate — precisely the behaviours whose semantics the
// overhaul promised to preserve. A deleted-row filter (SearchOptions::
// deleted_rows) must match a scan of the database with those rows removed.
//
// The engine streams each scanned entry's rows from a layout in the table's
// entry order, so the sweeps also run on the layouts a deployment binds: a
// SignatureTableEngine opened from disk, and a dynamized-index component
// after level merges and a delete-proportion rewrite. The scanner takes only
// TID-order layouts; an engine quarantined after serving a table must
// rebind one and match the probe scanner (full, filtered, range).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "core/table_io.h"
#include "dyn/dyn_io.h"
#include "dyn/dynamic_index.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "txn/candidate_layout.h"
#include "txn/database_io.h"
#include "txn/deleted_rows.h"
#include "util/metrics.h"

namespace mbi {
namespace {

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> queries;
};

Fixture MakeFixture(uint64_t seed, uint32_t cardinality,
                    int activation_threshold = 1, uint64_t db_size = 1500,
                    uint64_t num_queries = 10) {
  QuestGeneratorConfig config;
  config.universe_size = 300;
  config.num_large_itemsets = 70;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(db_size);
  IndexBuildConfig build;
  build.clustering.target_cardinality = cardinality;
  build.table.activation_threshold = activation_threshold;
  SignatureTable table = BuildIndex(db, build);
  auto queries = generator.GenerateQueries(num_queries);
  return {std::move(db), std::move(table), std::move(queries)};
}

/// Bit-identical doubles, treating equal infinities as equal (== already
/// does; the helper exists to give readable failure output for NaN-free
/// similarity values).
void ExpectSameDouble(double a, double b, const std::string& what) {
  EXPECT_EQ(a, b) << what;
}

void ExpectSameResult(const NearestNeighborResult& a,
                      const NearestNeighborResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << label;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
        << label << " neighbor " << i;
    ExpectSameDouble(a.neighbors[i].similarity, b.neighbors[i].similarity,
                     label + " similarity of neighbor " + std::to_string(i));
  }
  EXPECT_EQ(a.guaranteed_exact, b.guaranteed_exact) << label;
  ExpectSameDouble(a.unexplored_optimistic_bound, b.unexplored_optimistic_bound,
                   label + " unexplored_optimistic_bound");
  ExpectSameDouble(a.best_unscanned_bound, b.best_unscanned_bound,
                   label + " best_unscanned_bound");

  EXPECT_EQ(a.stats.database_size, b.stats.database_size) << label;
  EXPECT_EQ(a.stats.entries_total, b.stats.entries_total) << label;
  EXPECT_EQ(a.stats.entries_scanned, b.stats.entries_scanned) << label;
  EXPECT_EQ(a.stats.entries_pruned, b.stats.entries_pruned) << label;
  EXPECT_EQ(a.stats.entries_unexplored, b.stats.entries_unexplored) << label;
  EXPECT_EQ(a.stats.transactions_evaluated, b.stats.transactions_evaluated)
      << label;
  EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read) << label;
  EXPECT_EQ(a.stats.io.bytes_read, b.stats.io.bytes_read) << label;
  EXPECT_EQ(a.stats.io.transactions_fetched, b.stats.io.transactions_fetched)
      << label;

  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].coordinate, b.trace[i].coordinate)
        << label << " trace " << i;
    ExpectSameDouble(a.trace[i].optimistic_bound, b.trace[i].optimistic_bound,
                     label + " trace optimistic " + std::to_string(i));
    EXPECT_EQ(a.trace[i].transaction_count, b.trace[i].transaction_count)
        << label << " trace " << i;
    EXPECT_EQ(static_cast<int>(a.trace[i].action),
              static_cast<int>(b.trace[i].action))
        << label << " trace " << i;
    ExpectSameDouble(a.trace[i].pessimistic_bound, b.trace[i].pessimistic_bound,
                     label + " trace pessimistic " + std::to_string(i));
  }
}

// --- Full sweep: family x sort order x search-option shape. ---

struct OptionShape {
  const char* name;
  double max_access_fraction;
  double optimality_gap;
  bool collect_trace;
};

constexpr OptionShape kShapes[] = {
    {"exact", 1.0, 0.0, false},
    {"exact_trace", 1.0, 0.0, true},
    {"gap", 1.0, 0.08, false},
    {"terminate", 0.08, 0.0, false},
    {"terminate_trace", 0.08, 0.0, true},
    {"terminate_gap_trace", 0.3, 0.03, true},
};

/// Runs every option shape over `queries` on `engine` (a
/// BranchAndBoundEngine or a SignatureTableEngine) and expects results
/// bit-identical to `reference`'s frozen FindKNearestReference, with a
/// fresh and with a reused context.
template <typename Engine>
void ExpectSweepMatchesReference(const Engine& engine,
                                 const BranchAndBoundEngine& reference,
                                 const std::vector<Transaction>& queries,
                                 const char* family_name,
                                 EntrySortOrder sort_order, size_t k,
                                 const std::string& where) {
  auto family = MakeSimilarityFamily(family_name);
  QueryContext context;  // One reused context across the whole sweep.
  for (const OptionShape& shape : kShapes) {
    SearchOptions options;
    options.sort_order = sort_order;
    options.max_access_fraction = shape.max_access_fraction;
    options.optimality_gap = shape.optimality_gap;
    options.collect_trace = shape.collect_trace;
    for (size_t q = 0; q < queries.size(); ++q) {
      const Transaction& target = queries[q];
      NearestNeighborResult expected =
          reference.FindKNearestReference(target, *family, k, options);
      NearestNeighborResult fresh =
          engine.FindKNearest(target, *family, k, options);
      NearestNeighborResult reused =
          engine.FindKNearest(target, *family, k, options, &context);
      std::string label = where + " " + family_name + "/" + shape.name +
                          "/k=" + std::to_string(k) +
                          "/q=" + std::to_string(q);
      ExpectSameResult(fresh, expected, label + " (fresh ctx)");
      ExpectSameResult(reused, expected, label + " (reused ctx)");
    }
  }
}

/// Deletes every fifth row plus each query's unfiltered top-k, so the
/// filter removes the rows the search would otherwise return first, and
/// expects `engine`'s filtered search — and filtered scans over a TID-order
/// layout and over the probe path — to match a scan of the survivors.
template <typename Engine>
void ExpectFilteredMatchesScan(const Engine& engine,
                               const TransactionDatabase& db,
                               const std::vector<Transaction>& queries,
                               const char* family_name,
                               EntrySortOrder sort_order, size_t k,
                               const std::string& where) {
  auto family = MakeSimilarityFamily(family_name);
  const std::string label = where + " " + family_name;
  DeletedRows deleted(db.size());
  for (TransactionId id = 0; id < db.size(); id += 5) {
    deleted.Insert(id);
  }
  for (const Transaction& target : queries) {
    for (const Neighbor& neighbor :
         engine.FindKNearest(target, *family, k).neighbors) {
      deleted.Insert(neighbor.id);
    }
  }
  TransactionDatabase survivors(db.universe_size());
  std::vector<TransactionId> original_id;
  for (TransactionId id = 0; id < db.size(); ++id) {
    if (deleted.contains(id)) continue;
    survivors.Add(db.Get(id));
    original_id.push_back(id);
  }
  const CandidateLayout layout = CandidateLayout::Build(db);
  const SequentialScanner oracle(&survivors);
  const SequentialScanner filtered_scan(&db, &layout);
  const SequentialScanner filtered_probe(&db);

  SearchOptions options;
  options.sort_order = sort_order;
  options.deleted_rows = &deleted;
  QueryContext context;
  for (const Transaction& target : queries) {
    const std::vector<Neighbor> expected =
        oracle.FindKNearest(target, *family, k);
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, k, options, &context);
    NearestNeighborResult scanned;
    filtered_scan.FindKNearest(target, *family, k, QueryBudget{}, &scanned,
                               &deleted);
    NearestNeighborResult probed;
    filtered_probe.FindKNearest(target, *family, k, QueryBudget{}, &probed,
                                &deleted);
    EXPECT_TRUE(result.guaranteed_exact) << label;
    EXPECT_EQ(result.stats.database_size, survivors.size()) << label;
    EXPECT_LE(result.stats.transactions_evaluated, survivors.size()) << label;
    EXPECT_EQ(scanned.stats.transactions_evaluated, survivors.size()) << label;
    EXPECT_EQ(probed.stats.transactions_evaluated, survivors.size()) << label;
    for (const NearestNeighborResult* got : {&result, &scanned, &probed}) {
      ASSERT_EQ(got->neighbors.size(), expected.size()) << label;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_FALSE(deleted.contains(got->neighbors[i].id)) << label;
        bool both_inf = std::isinf(got->neighbors[i].similarity) &&
                        std::isinf(expected[i].similarity);
        if (!both_inf) {
          EXPECT_EQ(got->neighbors[i].similarity, expected[i].similarity)
              << label << " position " << i;
        }
      }
    }
    // The scans resolve ties globally by ascending id, as the oracle does
    // over the order-preserving survivor numbering.
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(scanned.neighbors[i].id, original_id[expected[i].id]) << label;
      EXPECT_EQ(probed.neighbors[i].id, original_id[expected[i].id]) << label;
    }
  }
}

/// The rows and table of a dynamized-index component that went through
/// level merges and then a delete-proportion rewrite, persisted by DynIo
/// and bound the way DynComponent::Open binds it: a SignatureTableEngine
/// over the rows, opened from the table file.
struct DynComponentFixture {
  std::unique_ptr<TransactionDatabase> rows;
  std::unique_ptr<SignatureTableEngine> engine;
  std::vector<Transaction> queries;
};

void MakeDynComponent(DynComponentFixture* out) {
  QuestGeneratorConfig config;
  config.universe_size = 300;
  config.num_large_itemsets = 70;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = 5150;
  QuestGenerator generator(config);
  MetricsRegistry registry;
  DynamicIndexOptions options;
  options.buffer_capacity = 128;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 8;
  options.metrics = &registry;
  DynamicIndex index(config.universe_size, options);
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(index.Insert(generator.NextTransaction()).ok());
  }
  // 1024 rows / capacity 128 = 8 spills; fanout 2 cascades them into one
  // run. Deleting more than a quarter of it claims its rewrite, and the
  // deletes after that land on the rewritten component.
  ASSERT_EQ(index.num_components(), 1u);
  ASSERT_EQ(index.buffered_rows(), 0u);
  ASSERT_GE(registry.FindCounter("mbi.dyn.merges")->value(), 1u);
  for (TransactionId gid = 0; gid < 300; ++gid) {
    ASSERT_TRUE(index.Delete(gid).ok());
  }
  ASSERT_EQ(registry.FindCounter("mbi.dyn.rewrites")->value(), 1u);
  ASSERT_EQ(index.num_components(), 1u);

  const std::string prefix = ::testing::TempDir() + "/oracle_dyn_component";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());
  StatusOr<TransactionDatabase> rows =
      LoadDatabase(DynIo::RowsPath(prefix, 0));
  ASSERT_TRUE(rows.ok());
  out->rows = std::make_unique<TransactionDatabase>(std::move(rows).value());
  // The 257th delete (more than a quarter of 1024) claimed the rewrite,
  // which purged those 257 rows; the other 43 are tombstones on the result.
  ASSERT_EQ(out->rows->size(), 1024u - 257u);
  out->engine = std::make_unique<SignatureTableEngine>(out->rows.get());
  ASSERT_TRUE(out->engine->OpenIndex(DynIo::TablePath(prefix, 0)).ok());
  out->queries = generator.GenerateQueries(10);
}

class OracleEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<const char*, EntrySortOrder, size_t>> {};

TEST_P(OracleEquivalenceTest, OverhaulMatchesReferenceBitExactly) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(2024, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  ExpectSweepMatchesReference(engine, engine, fixture.queries, family_name,
                              sort_order, k, "built");
}

TEST_P(OracleEquivalenceTest, EngineOpenedFromDiskMatchesReference) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(2024, 9);
  const std::string path = ::testing::TempDir() + "/oracle_opened.mbst";
  ASSERT_TRUE(SaveSignatureTable(fixture.table, path).ok());
  SignatureTableEngine opened(&fixture.db);
  ASSERT_TRUE(opened.OpenIndex(path).ok());
  ASSERT_TRUE(opened.healthy());
  const BranchAndBoundEngine reference(&fixture.db, &fixture.table);
  ExpectSweepMatchesReference(opened, reference, fixture.queries, family_name,
                              sort_order, k, "opened");
  ExpectFilteredMatchesScan(opened, fixture.db, fixture.queries, family_name,
                            sort_order, k, "opened");
  EXPECT_EQ(opened.fallback_queries(), 0u);
  std::remove(path.c_str());
}

TEST_P(OracleEquivalenceTest, DynComponentAfterRewriteMatchesReference) {
  auto [family_name, sort_order, k] = GetParam();
  DynComponentFixture fixture;
  ASSERT_NO_FATAL_FAILURE(MakeDynComponent(&fixture));
  ASSERT_TRUE(fixture.engine->healthy());
  const BranchAndBoundEngine reference(fixture.rows.get(),
                                       fixture.engine->table());
  ExpectSweepMatchesReference(*fixture.engine, reference, fixture.queries,
                              family_name, sort_order, k, "dyn component");
  ExpectFilteredMatchesScan(*fixture.engine, *fixture.rows, fixture.queries,
                            family_name, sort_order, k, "dyn component");
  EXPECT_EQ(fixture.engine->fallback_queries(), 0u);
}

TEST_P(OracleEquivalenceTest, ExactSearchMatchesSequentialScan) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(7, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  auto family = MakeSimilarityFamily(family_name);

  SearchOptions options;
  options.sort_order = sort_order;
  QueryContext context;
  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, k, options, &context);
    std::vector<Neighbor> oracle = scanner.FindKNearest(target, *family, k);
    EXPECT_TRUE(result.guaranteed_exact);
    ASSERT_EQ(result.neighbors.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      // Ids pin the tie-break ordering; similarities must agree bitwise
      // except both-infinite (hamming distance 0 under 1/y).
      EXPECT_EQ(result.neighbors[i].id, oracle[i].id) << family_name;
      bool both_inf = std::isinf(result.neighbors[i].similarity) &&
                      std::isinf(oracle[i].similarity);
      if (!both_inf) {
        EXPECT_EQ(result.neighbors[i].similarity, oracle[i].similarity)
            << family_name;
      }
    }
  }
}

TEST_P(OracleEquivalenceTest, FilteredSearchMatchesScanWithoutDeletedRows) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(4711, 8);
  // A TID-order layout is not in the table's entry order, so the engine
  // replaces it with a private entry-ordered one.
  const CandidateLayout layout = CandidateLayout::Build(fixture.db);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table, &layout);
  ExpectFilteredMatchesScan(engine, fixture.db, fixture.queries, family_name,
                            sort_order, k, "built");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleEquivalenceTest,
    ::testing::Combine(
        ::testing::Values("hamming", "match_ratio", "cosine"),
        ::testing::Values(EntrySortOrder::kOptimisticBound,
                          EntrySortOrder::kSupercoordinateSimilarity),
        ::testing::Values<size_t>(1, 7)));

// --- The quarantine fallback after an entry-ordered binding. ---

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " position " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << label << " position " << i;
  }
}

void ExpectSameIo(const IoStats& a, const IoStats& b,
                  const std::string& label) {
  EXPECT_EQ(a.pages_read, b.pages_read) << label;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << label;
  EXPECT_EQ(a.transactions_fetched, b.transactions_fetched) << label;
}

TEST(OracleEquivalenceScanTest, ScannerRejectsEntryOrderedLayout) {
  // Scanner ids are layout rows, so only a TID-order layout may be bound.
  Fixture fixture = MakeFixture(808, 8, 1, 300, 1);
  const CandidateLayout clustered =
      CandidateLayout::Build(fixture.db, fixture.table.EntryRowOrder());
  ASSERT_FALSE(clustered.in_tid_order());
  EXPECT_DEATH(SequentialScanner(&fixture.db, &clustered), "TID order");
}

TEST(OracleEquivalenceScanTest, QuarantinedEngineFallbackMatchesProbe) {
  // An engine that served a table (through its entry-ordered layout) and is
  // then quarantined by a corrupt open serves from the sequential fallback,
  // which must rebind a TID-order layout and match the probe scanner:
  // full, budgeted, filtered, range and budgeted range.
  Fixture fixture = MakeFixture(808, 8);
  SignatureTableEngine engine(&fixture.db);
  engine.AdoptTable(std::move(fixture.table));
  ASSERT_TRUE(engine.healthy());
  const std::string path = ::testing::TempDir() + "/oracle_garbage.mbst";
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_GE(std::fputs("not a signature table", file), 0);
  ASSERT_EQ(std::fclose(file), 0);
  ASSERT_EQ(engine.OpenIndex(path).code(), StatusCode::kCorruption);
  ASSERT_TRUE(engine.quarantined());
  ASSERT_FALSE(engine.healthy());

  const SequentialScanner probe(&fixture.db);
  DeletedRows deleted(fixture.db.size());
  for (TransactionId id = 0; id < fixture.db.size(); id += 3) {
    deleted.Insert(id);
  }
  QueryBudget capped;
  capped.max_entries = 600;  // Cuts the scan mid-way, between chunks.
  const DeletedRows* const filters[] = {nullptr, &deleted};
  uint64_t queries = 0;

  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    for (size_t q = 0; q < fixture.queries.size(); ++q) {
      const Transaction& target = fixture.queries[q];
      const std::string label =
          std::string(family_name) + "/q=" + std::to_string(q);
      for (size_t k : {size_t{1}, size_t{7}}) {
        for (const bool budgeted : {false, true}) {
          const QueryBudget budget = budgeted ? capped : QueryBudget{};
          for (const DeletedRows* filter : filters) {
            SearchOptions options;
            options.budget = budget;
            options.deleted_rows = filter;
            const NearestNeighborResult a =
                engine.FindKNearest(target, *family, k, options);
            ++queries;
            NearestNeighborResult b;
            probe.FindKNearest(target, *family, k, budget, &b, filter);
            EXPECT_EQ(a.stats.sequential_fallbacks, 1u) << label;
            ExpectSameResult(a, b,
                             label + (filter ? " filtered" : "") +
                                 (budgeted ? " budgeted" : "") +
                                 " k=" + std::to_string(k));
          }
        }
      }

      // Range: a threshold with a handful of matches.
      const std::vector<Neighbor> top = probe.FindKNearest(target, *family, 7);
      const double threshold = top.back().similarity;
      for (const bool budgeted : {false, true}) {
        const QueryBudget budget = budgeted ? capped : QueryBudget{};
        SearchOptions options;
        options.budget = budget;
        const RangeQueryResult a =
            engine.FindInRange(target, *family, threshold, options);
        ++queries;
        RangeQueryResult b;
        probe.FindInRange(target, *family, threshold, budget, &b);
        ExpectSameNeighbors(a.matches, b.matches, label + " range");
        if (!budgeted) {
          EXPECT_GE(a.matches.size(), 1u) << label;
        }
        EXPECT_EQ(a.guaranteed_complete, b.guaranteed_complete) << label;
        EXPECT_EQ(a.stats.entries_scanned, b.stats.entries_scanned) << label;
        EXPECT_EQ(a.stats.transactions_evaluated,
                  b.stats.transactions_evaluated)
            << label;
        EXPECT_EQ(a.stats.certificate_bound, b.stats.certificate_bound)
            << label;
        ExpectSameIo(a.stats.io, b.stats.io, label + " range");
      }
    }
  }
  EXPECT_EQ(engine.fallback_queries(), queries);
  std::remove(path.c_str());
}

// --- Multi-target aggregate. ---

TEST(OracleEquivalenceMultiTargetTest, MatchesReferenceAndSequentialScan) {
  Fixture fixture = MakeFixture(55, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  QueryContext context;

  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    std::vector<Transaction> targets(fixture.queries.begin(),
                                     fixture.queries.begin() + 3);
    for (EntrySortOrder order : {EntrySortOrder::kOptimisticBound,
                                 EntrySortOrder::kSupercoordinateSimilarity}) {
      SearchOptions options;
      options.sort_order = order;
      NearestNeighborResult reference =
          engine.FindKNearestMultiTargetReference(targets, *family, 5, options);
      NearestNeighborResult result = engine.FindKNearestMultiTarget(
          targets, *family, 5, options, &context);
      ExpectSameResult(result, reference,
                       std::string(family_name) + " multi-target");

      std::vector<Neighbor> oracle =
          scanner.FindKNearestMultiTarget(targets, *family, 5);
      ASSERT_EQ(result.neighbors.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(result.neighbors[i].id, oracle[i].id) << family_name;
      }
    }
  }
}

// --- Degenerate shapes the lazy orderer must handle like the sort did. ---

TEST(OracleEquivalenceEdgeTest, KLargerThanDatabase) {
  Fixture fixture = MakeFixture(13, 7, 1, /*db_size=*/40, /*num_queries=*/4);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("match_ratio");
  QueryContext context;
  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult reference =
        engine.FindKNearestReference(target, *family, 100);
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, 100, {}, &context);
    ExpectSameResult(result, reference, "k > db");
  }
}

TEST(OracleEquivalenceEdgeTest, FilteredKLargerThanLiveRows) {
  Fixture fixture = MakeFixture(17, 7, 1, /*db_size=*/40, /*num_queries=*/4);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("cosine");
  DeletedRows deleted(fixture.db.size());
  TransactionDatabase survivors(fixture.db.universe_size());
  for (TransactionId id = 0; id < fixture.db.size(); ++id) {
    if (id % 2 == 0) {
      deleted.Insert(id);
    } else {
      survivors.Add(fixture.db.Get(id));
    }
  }
  const SequentialScanner oracle(&survivors);
  SearchOptions options;
  options.deleted_rows = &deleted;
  QueryContext context;
  for (const Transaction& target : fixture.queries) {
    // k exceeds the live rows but not the physical ones: exactness is
    // judged against the live count.
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, 30, options, &context);
    EXPECT_TRUE(result.guaranteed_exact);
    const std::vector<Neighbor> expected =
        oracle.FindKNearest(target, *family, 30);
    ASSERT_EQ(result.neighbors.size(), survivors.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].similarity, expected[i].similarity);
    }
  }
}

TEST(OracleEquivalenceEdgeTest, EmptyTargetAndTinyBudget) {
  Fixture fixture = MakeFixture(29, 7, 1, /*db_size=*/200, /*num_queries=*/2);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("hamming");
  QueryContext context;
  SearchOptions options;
  options.max_access_fraction = 0.005;  // Budget of a single transaction.
  options.collect_trace = true;
  Transaction empty;
  NearestNeighborResult reference =
      engine.FindKNearestReference(empty, *family, 3, options);
  NearestNeighborResult result =
      engine.FindKNearest(empty, *family, 3, options, &context);
  ExpectSameResult(result, reference, "empty target, tiny budget");
}

TEST(OracleEquivalenceEdgeTest, BoundDominanceHoldsOnOverhauledEngine) {
  Fixture fixture = MakeFixture(91, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    // Aborts on any Lemma 2.1 violation; exercised here so the invariant
    // layer stays wired to the overhauled query path.
    engine.CheckBoundDominance(fixture.queries.front(), *family);
  }
  fixture.table.CheckInvariants(&fixture.db);
}

}  // namespace
}  // namespace mbi
