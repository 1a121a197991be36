#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "baseline/inverted_index.h"
#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "txn/deleted_rows.h"
#include "util/alloc_guard.h"
#include "util/deadline_clock.h"

namespace mbi {
namespace {

/// Deadlines, cancellation, and entry budgets: on expiry every query path
/// must return a *certified degraded answer* — never crash, never come back
/// structurally empty — whose certificate (QueryStats::certificate_bound)
/// upper-bounds everything the query did not look at (paper §4.2's
/// a-posteriori guarantee, Lemma 2.1).

constexpr double kInf = std::numeric_limits<double>::infinity();

/// CI sweeps MBI_FAULT_SEED; the concurrent test folds it into its data and
/// targets so each sweep point exercises a different workload and
/// interleaving.
uint64_t TestSeed() {
  const char* env = std::getenv("MBI_FAULT_SEED");
  if (env == nullptr) return 1;
  return std::strtoull(env, nullptr, 10) + 1;
}

TransactionDatabase MakeDatabase(size_t rows, uint64_t seed = 4242) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateDatabase(rows);
}

SignatureTable BuildOver(const TransactionDatabase& db, uint32_t k = 8) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = k;
  return BuildIndex(db, build);
}

Transaction QueryTarget(uint64_t seed = 77) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateQueries(1)[0];
}

/// The certificate contract (Lemma 2.1 applied a posteriori): every true
/// top-k neighbor the degraded answer does NOT return must be bounded by
/// max(k-th returned similarity, certificate). Returned neighbors are
/// covered by being in the answer — an exact duplicate with +inf similarity
/// that the first scanned entry happened to hold is fine.
void ExpectCertificateDominates(const NearestNeighborResult& result,
                                const std::vector<Neighbor>& oracle,
                                size_t k) {
  ASSERT_FALSE(result.neighbors.empty())
      << "degraded answers must never be structurally empty";
  const double kth_found = result.neighbors.back().similarity;
  const double reachable = std::max(kth_found, result.stats.certificate_bound);
  const size_t limit = std::min(k, oracle.size());
  for (size_t i = 0; i < limit; ++i) {
    const bool returned = std::any_of(
        result.neighbors.begin(), result.neighbors.end(),
        [&](const Neighbor& n) { return n.id == oracle[i].id; });
    if (returned) continue;
    EXPECT_GE(reachable, oracle[i].similarity)
        << "certificate misses oracle neighbor " << i;
  }
}

TEST(QueryBudgetTest, WithDeadlineAfterMsUsesTheInjectedClock) {
  ManualClock clock(1000.0);
  QueryBudget budget = QueryBudget::WithDeadlineAfterMs(2.0, &clock);
  EXPECT_DOUBLE_EQ(budget.deadline_us, 3000.0);
  EXPECT_FALSE(budget.deadline_expired());
  clock.AdvanceUs(2500.0);
  EXPECT_TRUE(budget.deadline_expired());
}

TEST(QueryBudgetTest, PollAppliesMinOneRuleAndFixedPrecedence) {
  // Unlimited: never trips, whatever has been scanned.
  EXPECT_EQ(QueryBudget{}.Poll(0), QueryTermination::kCompleted);
  EXPECT_EQ(QueryBudget{}.Poll(1u << 30), QueryTermination::kCompleted);

  // Every limit tripped at once: deadline past, cap reached, token set.
  ManualClock clock(1000.0);
  std::atomic<bool> cancel{true};
  QueryBudget budget;
  budget.deadline_us = 500.0;
  budget.max_entries = 4;
  budget.cancel = &cancel;
  budget.clock = &clock;

  // Min-one rule: nothing scanned yet → keep going, even though expired.
  EXPECT_EQ(budget.Poll(0), QueryTermination::kCompleted);

  // Precedence: cancel > entry cap > deadline.
  EXPECT_EQ(budget.Poll(4), QueryTermination::kCancelled);
  cancel.store(false);
  EXPECT_EQ(budget.Poll(4), QueryTermination::kEntryBudget);
  EXPECT_EQ(budget.Poll(3), QueryTermination::kDeadline);
  clock.AdvanceUs(-600.0);  // Back before the deadline.
  EXPECT_EQ(budget.Poll(3), QueryTermination::kCompleted);

  // The cap is tested before the clock: a tripped cap reads no time.
  ManualClock ticking(0.0, /*auto_advance_us=*/10.0);
  budget.clock = &ticking;
  budget.deadline_us = 1e9;
  EXPECT_EQ(budget.Poll(4), QueryTermination::kEntryBudget);
  EXPECT_EQ(ticking.NowUs(), 0.0);
}

TEST(QueryBudgetTest, PreExpiredDeadlineStillAnswersWithCertificate) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner oracle_scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  const size_t k = 5;

  ManualClock clock(1000.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;  // expired before the query even starts

  NearestNeighborResult result = engine.FindKNearest(target, family, k,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_FALSE(result.guaranteed_exact);
  // Min-one-entry guarantee: exactly one entry was scanned before the
  // budget check was allowed to fire.
  EXPECT_EQ(result.stats.entries_scanned, 1u);
  ExpectCertificateDominates(result,
                             oracle_scanner.FindKNearest(target, family, k),
                             k);
}

TEST(QueryBudgetTest, ManualClockWalksTheQueryIntoItsDeadline) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  // Unbudgeted baseline: how many entries does the full query scan?
  NearestNeighborResult full = engine.FindKNearest(target, family, 5);
  ASSERT_GT(full.stats.entries_scanned, 2u)
      << "need a multi-entry query to observe mid-flight expiry";

  // 10us per budget check, deadline 35us out: the query gets a scripted,
  // exact number of checks before time runs out — no sleeping, no flakes.
  ManualClock clock(0.0, /*auto_advance_us=*/10.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 35.0;
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_LT(result.stats.entries_scanned, full.stats.entries_scanned);
  EXPECT_GE(result.stats.entries_scanned, 1u);
}

TEST(QueryBudgetTest, DegradedAnswerIsDeterministic) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  CosineFamily family;
  const Transaction target = QueryTarget();

  auto run = [&] {
    ManualClock clock(0.0, /*auto_advance_us=*/7.0);
    SearchOptions options;
    options.budget.clock = &clock;
    options.budget.deadline_us = 50.0;
    return engine.FindKNearest(target, family, 5, options);
  };
  NearestNeighborResult first = run();
  NearestNeighborResult second = run();
  ASSERT_EQ(first.neighbors.size(), second.neighbors.size());
  for (size_t i = 0; i < first.neighbors.size(); ++i) {
    EXPECT_EQ(first.neighbors[i].id, second.neighbors[i].id);
    // Bit-identical, not approximately equal: the SIMD kernels guarantee
    // ISA-independent scores, so a scripted clock must reproduce the
    // degraded answer exactly (CI replays this under MBI_FORCE_ISA).
    EXPECT_EQ(first.neighbors[i].similarity, second.neighbors[i].similarity);
  }
  EXPECT_EQ(first.stats.certificate_bound, second.stats.certificate_bound);
  EXPECT_EQ(first.stats.entries_scanned, second.stats.entries_scanned);
}

TEST(QueryBudgetTest, CancellationTokenStopsTheQuery) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner oracle_scanner(&db);
  InverseHammingFamily family;
  const Transaction target = QueryTarget();

  std::atomic<bool> cancel{true};  // cancelled before the query starts
  SearchOptions options;
  options.budget.cancel = &cancel;
  NearestNeighborResult result = engine.FindKNearest(target, family, 4,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCancelled);
  EXPECT_FALSE(result.stats.is_exact);
  ExpectCertificateDominates(result,
                             oracle_scanner.FindKNearest(target, family, 4),
                             4);
}

TEST(QueryBudgetTest, MaxEntriesCapsTheScan) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget.max_entries = 2;
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.entries_scanned, 2u);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
}

TEST(QueryBudgetTest, CompletedQueryReportsExactAndCompleted) {
  TransactionDatabase db = MakeDatabase(1000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget = QueryBudget::WithDeadlineAfterMs(60000.0);  // generous
  NearestNeighborResult result = engine.FindKNearest(target, family, 3,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCompleted);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_TRUE(result.guaranteed_exact);
  // Exactness is certified *by* the bound: everything unevaluated (pruned
  // entries included) provably cannot beat the k-th returned similarity.
  EXPECT_LE(result.stats.certificate_bound, result.neighbors.back().similarity);
}

TEST(QueryBudgetTest, RangeQueryCarriesTheCertificate) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget.max_entries = 1;
  RangeQueryResult result =
      engine.FindInRange(target, family, 0.2, options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_FALSE(result.guaranteed_complete);
  for (const Neighbor& match : result.matches) {
    EXPECT_GE(match.similarity, 0.2);
  }
  // Unbudgeted, the same query completes exactly.
  RangeQueryResult full = engine.FindInRange(target, family, 0.2);
  EXPECT_EQ(full.stats.termination, QueryTermination::kCompleted);
  EXPECT_TRUE(full.stats.is_exact);
  EXPECT_GE(full.matches.size(), result.matches.size());
}

TEST(QueryBudgetTest, SequentialScannerBudgetedScanCertifies) {
  TransactionDatabase db = MakeDatabase(3000);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  const size_t k = 5;

  QueryBudget budget;
  budget.max_entries = 1;  // rows; the min-one-chunk rule rounds up
  NearestNeighborResult result;
  scanner.FindKNearest(target, family, k, budget, &result);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
  // Row-unit contract (DESIGN.md §13): entries_* count rows on the scan
  // path, so scanned == evaluated, and total is the database size.
  EXPECT_EQ(result.stats.entries_scanned, SequentialScanner::kScanChunk);
  EXPECT_EQ(result.stats.transactions_evaluated, SequentialScanner::kScanChunk);
  EXPECT_EQ(result.stats.entries_scanned, result.stats.transactions_evaluated);
  EXPECT_EQ(result.stats.entries_total, db.size());
  // f(|target|, 0) is a pointwise optimistic bound for every admissible
  // similarity, so it must dominate every score in the database.
  auto f = family.ForTarget(target);
  EXPECT_EQ(result.stats.certificate_bound,
            f->Evaluate(static_cast<int>(target.size()), 0));
  ExpectCertificateDominates(result, scanner.FindKNearest(target, family, k),
                             k);

  // Unlimited budget through the same entry point: exact, full coverage.
  NearestNeighborResult full;
  scanner.FindKNearest(target, family, k, QueryBudget{}, &full);
  EXPECT_TRUE(full.stats.is_exact);
  EXPECT_EQ(full.stats.termination, QueryTermination::kCompleted);
  std::vector<Neighbor> oracle = scanner.FindKNearest(target, family, k);
  ASSERT_EQ(full.neighbors.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(full.neighbors[i].id, oracle[i].id);
    EXPECT_EQ(full.neighbors[i].similarity, oracle[i].similarity);
  }
}

TEST(QueryBudgetTest, InvertedIndexRerankHonorsTheBudget) {
  TransactionDatabase db = MakeDatabase(3000);
  InvertedIndex index(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  QueryBudget budget;
  budget.max_entries = 1;
  InvertedIndex::Result limited = index.FindKNearest(target, family, 5,
                                                     budget);
  if (limited.stats.termination == QueryTermination::kEntryBudget) {
    EXPECT_FALSE(limited.stats.is_exact);
    // Row units: one full re-rank slice was scored before the budget hit.
    EXPECT_EQ(limited.stats.entries_scanned, InvertedIndex::kScanChunk);
    auto f = family.ForTarget(target);
    EXPECT_EQ(limited.stats.certificate_bound,
              f->Evaluate(static_cast<int>(target.size()), 0));
  } else {
    // Fewer candidates than one chunk: the budget never came into play.
    EXPECT_EQ(limited.stats.termination, QueryTermination::kCompleted);
  }
  InvertedIndex::Result full = index.FindKNearest(target, family, 5);
  EXPECT_TRUE(full.stats.is_exact);
}

TEST(QueryBudgetTest, QuarantineFallbackPropagatesTerminationStats) {
  // Regression: the fallback path used to rebuild QueryStats by hand and
  // silently dropped the termination / certificate fields the scanner had
  // filled in. An engine with no index at all serves every query through
  // the fallback, which makes the drop observable.
  TransactionDatabase db = MakeDatabase(3000);
  SignatureTableEngine engine(&db);
  ASSERT_FALSE(engine.healthy());
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(500.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;  // pre-expired
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_FALSE(result.neighbors.empty());
  EXPECT_GT(result.stats.certificate_bound, -kInf);
  EXPECT_EQ(engine.fallback_queries(), 1u);

  // Same drop risk on the range fallback.
  RangeQueryResult range = engine.FindInRange(target, family, 0.1, options);
  EXPECT_EQ(range.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(range.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(range.stats.is_exact);
}

TEST(QueryBudgetTest, QuarantineFallbackHonorsDeletedRows) {
  // The fallback must drop the same rows the branch-and-bound path would.
  TransactionDatabase db = MakeDatabase(600);
  SignatureTableEngine engine(&db);
  ASSERT_FALSE(engine.healthy());
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  const std::vector<Neighbor> unfiltered =
      SequentialScanner(&db).FindKNearest(target, family, 5);
  DeletedRows deleted(db.size());
  for (const Neighbor& neighbor : unfiltered) deleted.Insert(neighbor.id);

  SearchOptions options;
  options.deleted_rows = &deleted;
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(result.stats.database_size, db.size() - 5);
  ASSERT_EQ(result.neighbors.size(), 5u);
  for (const Neighbor& neighbor : result.neighbors) {
    EXPECT_FALSE(deleted.contains(neighbor.id));
  }
}

TEST(QueryBudgetTest, BudgetedSteadyStateAllocatesNothing) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(0.0, /*auto_advance_us=*/1.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 1e9;
  options.budget.max_entries = 4;

  QueryContext context;
  NearestNeighborResult result;
  // Warm-up grows every scratch buffer to its high-water mark.
  engine.FindKNearest(target, family, 5, options, &context, &result);
  {
    ScopedAllocationBan ban("budget-limited FindKNearest steady state");
    for (int i = 0; i < 10; ++i) {
      engine.FindKNearest(target, family, 5, options, &context, &result);
    }
  }
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
}

TEST(QueryBudgetTest, EngineCountsDegradedAndExpiredQueries) {
  TransactionDatabase db = MakeDatabase(1000);
  SignatureTableEngine engine(&db);
  engine.AdoptTable(BuildOver(db));
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(500.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;
  (void)engine.FindKNearest(target, family, 3, options);
  (void)engine.FindKNearest(target, family, 3);  // healthy, unlimited

  const Counter* degraded = registry.FindCounter("mbi.engine.query.degraded");
  const Counter* expired =
      registry.FindCounter("mbi.engine.query.deadline_expired");
  ASSERT_NE(degraded, nullptr);
  ASSERT_NE(expired, nullptr);
  EXPECT_EQ(degraded->value(), 1u);
  EXPECT_EQ(expired->value(), 1u);
}

TEST(QueryBudgetTest, ConcurrentClientsOnOneEngineGetCertifiedAnswers) {
  // Several clients share one healthy engine, each through its own
  // QueryContext, and each query carries only its own budget: a deadline
  // already expired on the client's ManualClock, a ManualClock deadline the
  // query walks into mid-search, or none. Runs under TSan in CI.
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = TestSeed();
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(1500);
  SignatureTableEngine engine(&db);
  engine.AdoptTable(BuildOver(db));
  ASSERT_TRUE(engine.healthy());
  MatchRatioFamily family;
  const size_t k = 5;

  const std::vector<Transaction> targets = generator.GenerateQueries(8);
  std::vector<NearestNeighborResult> unbudgeted;
  for (const Transaction& target : targets) {
    unbudgeted.push_back(engine.FindKNearest(target, family, k));
  }

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 6;
  // answers[c][round * targets.size() + i]: client c's answer for target i.
  std::vector<std::vector<NearestNeighborResult>> answers(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryContext context;
      // Odd clients' clocks move 10us per read, so a 35us deadline expires
      // after a scripted number of budget checks.
      ManualClock clock(1000.0, c % 2 == 1 ? 10.0 : 0.0);
      for (size_t round = 0; round < kRounds; ++round) {
        for (const Transaction& target : targets) {
          SearchOptions options;
          if (round % 3 != 2) {
            options.budget.clock = &clock;
            options.budget.deadline_us =
                c % 2 == 0 ? 0.0 : clock.NowUs() + 35.0;
          }
          answers[c].push_back(
              engine.FindKNearest(target, family, k, options, &context));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  size_t deadline_cut = 0;
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(answers[c].size(), kRounds * targets.size());
    for (size_t a = 0; a < answers[c].size(); ++a) {
      const NearestNeighborResult& result = answers[c][a];
      const NearestNeighborResult& truth = unbudgeted[a % targets.size()];
      ASSERT_FALSE(result.neighbors.empty())
          << "client " << c << " answer " << a;
      if (result.stats.termination == QueryTermination::kDeadline) {
        ++deadline_cut;
      }
      if (result.stats.is_exact) {
        ASSERT_EQ(result.neighbors.size(), truth.neighbors.size());
        for (size_t n = 0; n < truth.neighbors.size(); ++n) {
          EXPECT_EQ(result.neighbors[n].id, truth.neighbors[n].id);
          EXPECT_EQ(result.neighbors[n].similarity,
                    truth.neighbors[n].similarity);
        }
      } else {
        ExpectCertificateDominates(result, truth.neighbors, k);
      }
    }
  }
  EXPECT_GT(deadline_cut, 0u)
      << "expired deadlines should have produced deadline-terminated, "
         "certified answers";
}

}  // namespace
}  // namespace mbi
