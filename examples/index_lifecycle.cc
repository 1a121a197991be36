// Index lifecycle: everything a deployment does around the paper's
// algorithm — build an index, persist it, reopen it without re-mining, and
// answer a parallel batch of queries against the reopened index.
//
// A built or reopened signature table is immutable. Deployments whose
// database keeps growing use the dynamized index instead (DynamicIndex in
// src/dyn, `mbi insert` on the command line), which absorbs inserts and
// deletes by rebuilding immutable tables in the background.
//
//   ./index_lifecycle [--transactions=30000] [--seed=23]

#include <cstdio>
#include <string>

#include "core/batch_query.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/table_io.h"
#include "gen/quest_generator.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  mbi::FlagParser flags("Index persistence, reopening, batches.");
  int64_t transactions, seed;
  std::string dir;
  flags.AddInt64("transactions", 30'000, "database size", &transactions);
  flags.AddInt64("seed", 23, "generator seed", &seed);
  flags.AddString("dir", "/tmp", "directory for the data and index files",
                  &dir);
  if (!flags.Parse(argc, argv)) return 0;

  const std::string db_path = dir + "/lifecycle.mbid";
  const std::string index_path = dir + "/lifecycle.mbst";

  // Day 0: build and persist.
  mbi::QuestGeneratorConfig gen_config;
  gen_config.universe_size = 1000;
  gen_config.num_large_itemsets = 2000;
  gen_config.avg_transaction_size = 10.0;
  gen_config.seed = static_cast<uint64_t>(seed);
  mbi::QuestGenerator generator(gen_config);
  mbi::TransactionDatabase db =
      generator.GenerateDatabase(static_cast<uint64_t>(transactions));

  mbi::Stopwatch timer;
  mbi::IndexBuildConfig build;
  build.clustering.target_cardinality = 14;
  mbi::SignatureTable built = mbi::BuildIndex(db, build);
  std::printf("built index over %zu transactions in %.2fs\n", db.size(),
              timer.ElapsedSeconds());

  if (!mbi::SaveDatabase(db, db_path).ok() ||
      !mbi::SaveSignatureTable(built, index_path).ok()) {
    std::fprintf(stderr, "error: cannot write to %s\n", dir.c_str());
    return 1;
  }
  std::printf("persisted database -> %s, index -> %s\n", db_path.c_str(),
              index_path.c_str());

  // Day 1: reopen without re-mining or re-clustering.
  timer.Reset();
  auto reopened_db = mbi::LoadDatabase(db_path);
  if (!reopened_db.ok()) {
    std::fprintf(stderr, "error: %s\n", reopened_db.status().ToString().c_str());
    return 1;
  }
  auto table = mbi::LoadSignatureTable(index_path, *reopened_db);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("reopened in %.2fs (no support mining, no clustering)\n",
              timer.ElapsedSeconds());

  // Evening batch job: score a batch of query baskets in parallel.
  mbi::BranchAndBoundEngine engine(&*reopened_db, &*table);
  mbi::MatchRatioFamily family;
  auto batch = generator.GenerateQueries(64);
  mbi::SearchOptions options;
  options.max_access_fraction = 0.02;
  timer.Reset();
  auto results = mbi::FindKNearestBatch(engine, batch, family, 5, options);
  double elapsed = timer.ElapsedSeconds();

  double avg_access = 0.0;
  int certified = 0;
  for (const auto& result : results) {
    avg_access += result.stats.AccessedFraction();
    certified += result.guaranteed_exact;
  }
  std::printf(
      "batch of %zu queries in %.2fs (%.1f ms/query): avg access %.2f%%, "
      "%d/%zu certified exact at 2%% termination\n",
      batch.size(), elapsed,
      1e3 * elapsed / static_cast<double>(batch.size()),
      100.0 * avg_access / static_cast<double>(results.size()), certified,
      results.size());

  std::remove(db_path.c_str());
  std::remove(index_path.c_str());
  return 0;
}
