#include <cstdio>
#include <limits>

#include "core/index_builder.h"
#include "core/signature_partition.h"
#include "core/table_io.h"
#include "storage/page_store.h"
#include "tools/cli_command.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace mbi::cli {

int RunBuild(int argc, char** argv) {
  FlagParser flags("mbi build: build and persist a signature table index.");
  std::string db_path, out;
  int64_t cardinality, activation_threshold, page_size;
  double min_pair_support;
  bool balanced;
  flags.AddString("db", "data.mbid", "input database file", &db_path);
  flags.AddString("out", "index.mbst", "output index file", &out);
  flags.AddInt64("cardinality", 15, "signature cardinality K (<= 31)",
                 &cardinality, 1, SignaturePartition::kMaxCardinality);
  flags.AddInt64("activation", 1, "activation threshold r",
                 &activation_threshold, 1, std::numeric_limits<int>::max());
  flags.AddInt64("page_size", 4096, "simulated disk page size in bytes",
                 &page_size, PageStore::kMinPageSizeBytes,
                 std::numeric_limits<uint32_t>::max());
  flags.AddDouble("min_pair_support", 0.0005,
                  "minimum pair support for clustering edges",
                  &min_pair_support, 0.0, 1.0);
  flags.AddBool("balanced", false,
                "use the correlation-blind balanced partitioner "
                "(ablation control)",
                &balanced);
  bool check_invariants;
  flags.AddBool("check_invariants", false,
                "walk the built index and verify its structural invariants "
                "before writing it (debug; O(N) extra work)",
                &check_invariants);
  if (!flags.Parse(argc, argv)) return 0;

  auto db = LoadDatabase(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  // The flags' range checks cannot know the database: clustering needs at
  // least K items, and every transaction must fit on one page.
  if (static_cast<uint64_t>(cardinality) > db->universe_size()) {
    std::fprintf(stderr, "--cardinality %lld exceeds the %u-item universe\n",
                 static_cast<long long>(cardinality), db->universe_size());
    return 2;
  }
  for (const Transaction& transaction : db->transactions()) {
    if (PageStore::SerializedSize(transaction) > page_size) {
      std::fprintf(stderr,
                   "--page_size %lld is smaller than a %zu-item transaction "
                   "(%u bytes)\n",
                   static_cast<long long>(page_size), transaction.size(),
                   PageStore::SerializedSize(transaction));
      return 2;
    }
  }

  Stopwatch timer;
  IndexBuildConfig config;
  config.clustering.target_cardinality = static_cast<uint32_t>(cardinality);
  config.clustering.min_pair_support = min_pair_support;
  config.table.activation_threshold = static_cast<int>(activation_threshold);
  config.table.page_size_bytes = static_cast<uint32_t>(page_size);
  config.use_balanced_partitioner = balanced;
  SignatureTable table = BuildIndex(*db, config);
  double build_seconds = timer.ElapsedSeconds();

  if (check_invariants) {
    table.CheckInvariants(&*db);
    std::printf("index invariants verified (%llu transactions, %zu entries)\n",
                static_cast<unsigned long long>(
                    table.num_indexed_transactions()),
                table.entries().size());
  }

  if (Status saved = SaveSignatureTable(table, out); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  SignatureTable::Stats stats = table.ComputeStats();
  std::printf(
      "wrote %s: K=%u, r=%d, %llu/%llu entries occupied, avg bucket %.1f, "
      "%llu pages, directory %llu KiB (built in %.1fs)\n",
      out.c_str(), stats.cardinality, table.activation_threshold(),
      static_cast<unsigned long long>(stats.occupied_entries),
      static_cast<unsigned long long>(stats.directory_entries),
      stats.avg_bucket_size, static_cast<unsigned long long>(stats.disk_pages),
      static_cast<unsigned long long>(stats.directory_bytes / 1024),
      build_seconds);
  return 0;
}

}  // namespace mbi::cli
