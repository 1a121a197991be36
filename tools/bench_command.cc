#include <cstdio>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "storage/env.h"
#include "tools/cli_command.h"
#include "tools/metrics_io.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace mbi::cli {

int RunBench(int argc, char** argv) {
  FlagParser flags(
      "mbi bench: replay a query workload against an index and report "
      "latency / access-volume distributions.");
  std::string db_path, index_path, similarity;
  int64_t queries, k, seed;
  double termination;
  flags.AddString("db", "data.mbid", "database file", &db_path);
  flags.AddString("index", "index.mbst", "index file", &index_path);
  flags.AddString("similarity", "match_ratio",
                  "hamming | match_ratio | cosine", &similarity);
  flags.AddInt64("queries", 200, "number of query baskets", &queries, 1);
  flags.AddInt64("k", 10, "neighbours per query", &k, 1);
  flags.AddInt64("seed", 99, "workload generator seed", &seed);
  flags.AddDouble("termination", 1.0,
                  "early-termination access fraction in (0,1]", &termination,
                  0.0, 1.0, /*min_exclusive=*/true);
  double deadline_ms;
  flags.AddDouble("deadline_ms", 0.0,
                  "per-query deadline in milliseconds; expired queries return "
                  "certified degraded answers (0 = no deadline)",
                  &deadline_ms);
  std::string metrics_json;
  flags.AddString("metrics_json", "",
                  "write an mbi.metrics.v1 JSON snapshot of every metric to "
                  "this path after the replay ('-' for stdout)",
                  &metrics_json);
  if (!flags.Parse(argc, argv)) return 0;

  MetricsRegistry* metrics =
      metrics_json.empty() ? nullptr : MetricsRegistry::Global();
  if (metrics != nullptr) Env::Default()->set_metrics(metrics);

  auto db = LoadDatabase(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  SignatureTableEngine engine(&*db);
  engine.set_metrics(metrics);
  if (Status opened = engine.OpenIndex(index_path); !opened.ok()) {
    if (!engine.quarantined()) {
      std::fprintf(stderr, "error: %s\n", opened.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "warning: index quarantined (%s); replaying the workload "
                 "through the sequential scan fallback\n",
                 engine.quarantine_reason().ToString().c_str());
  }

  // Workload: fresh baskets from the same kind of generator, seeded
  // independently of the data.
  QuestGeneratorConfig gen_config;
  gen_config.universe_size = db->universe_size();
  gen_config.avg_transaction_size = std::max(1.0, db->AverageTransactionSize());
  gen_config.seed = static_cast<uint64_t>(seed);
  QuestGenerator generator(gen_config);
  std::vector<Transaction> targets =
      generator.GenerateQueries(static_cast<uint64_t>(queries));

  auto family = MakeSimilarityFamily(similarity);
  SearchOptions options;
  options.max_access_fraction = termination;

  Histogram latency_ms, access_percent, pages;
  int certified = 0;
  int degraded = 0;
  Stopwatch total;
  for (const Transaction& target : targets) {
    if (deadline_ms > 0.0) {
      options.budget = QueryBudget::WithDeadlineAfterMs(deadline_ms);
    }
    Stopwatch timer;
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, static_cast<size_t>(k), options);
    latency_ms.Add(timer.ElapsedMillis());
    access_percent.Add(100.0 * result.stats.AccessedFraction());
    pages.Add(static_cast<double>(result.stats.io.pages_read));
    certified += result.guaranteed_exact;
    degraded += !result.stats.is_exact;
  }

  std::printf("replayed %lld x top-%lld %s queries in %.2fs\n",
              static_cast<long long>(queries), static_cast<long long>(k),
              similarity.c_str(), total.ElapsedSeconds());
  std::printf("latency:  %s\n", latency_ms.Summary("ms").c_str());
  std::printf("accessed: %s\n", access_percent.Summary("%").c_str());
  std::printf("pages:    %s\n", pages.Summary("").c_str());
  std::printf("certified exact: %d/%lld\n", certified,
              static_cast<long long>(queries));
  if (degraded > 0) {
    std::printf("certified degraded (budget-limited): %d/%lld\n", degraded,
                static_cast<long long>(queries));
  }
  if (engine.fallback_queries() > 0) {
    std::printf("sequential fallbacks: %llu\n",
                static_cast<unsigned long long>(engine.fallback_queries()));
  }
  if (metrics != nullptr) {
    if (const LatencyHistogram* hist =
            metrics->FindHistogram("mbi.engine.latency.knn");
        hist != nullptr && hist->count() > 0) {
      const LatencyHistogram::Snapshot snapshot = hist->GetSnapshot();
      std::printf("metrics:  p50<=%.0fus p95<=%.0fus p99<=%.0fus max=%.0fus\n",
                  snapshot.Quantile(0.5), snapshot.Quantile(0.95),
                  snapshot.Quantile(0.99), snapshot.max);
    }
    if (!WriteMetricsJson(metrics_json, *metrics)) return 1;
  }
  return 0;
}

}  // namespace mbi::cli
