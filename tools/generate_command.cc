#include <cstdio>
#include <limits>

#include "gen/quest_generator.h"
#include "tools/cli_command.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace mbi::cli {

int RunGenerate(int argc, char** argv) {
  FlagParser flags("mbi generate: synthesize a market-basket database file.");
  std::string out;
  int64_t transactions, universe, itemsets, seed;
  double avg_tx_size, avg_itemset_size;
  flags.AddString("out", "data.mbid", "output database file", &out);
  flags.AddInt64("transactions", 100'000, "number of transactions",
                 &transactions, 0);
  flags.AddInt64("universe", 1000, "number of distinct items", &universe, 1,
                 std::numeric_limits<uint32_t>::max());
  flags.AddInt64("itemsets", 2000, "number of potentially large itemsets",
                 &itemsets, 1, std::numeric_limits<uint32_t>::max());
  flags.AddDouble("avg_tx_size", 10.0, "average transaction size (T)",
                  &avg_tx_size, 0.0, std::numeric_limits<double>::infinity(),
                  /*min_exclusive=*/true);
  flags.AddDouble("avg_itemset_size", 6.0, "average itemset size (I)",
                  &avg_itemset_size, 0.0,
                  std::numeric_limits<double>::infinity(),
                  /*min_exclusive=*/true);
  flags.AddInt64("seed", 42, "generator seed", &seed);
  if (!flags.Parse(argc, argv)) return 0;

  QuestGeneratorConfig config;
  config.universe_size = static_cast<uint32_t>(universe);
  config.num_large_itemsets = static_cast<uint32_t>(itemsets);
  config.avg_itemset_size = avg_itemset_size;
  config.avg_transaction_size = avg_tx_size;
  config.seed = static_cast<uint64_t>(seed);

  Stopwatch timer;
  QuestGenerator generator(config);
  TransactionDatabase db =
      generator.GenerateDatabase(static_cast<uint64_t>(transactions));
  if (Status saved = SaveDatabase(db, out); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  CorpusStats stats = ComputeCorpusStats(db);
  std::printf(
      "wrote %s: %llu transactions, avg size %.2f, %u distinct items, "
      "density %.4f (%.1fs)\n",
      out.c_str(), static_cast<unsigned long long>(stats.num_transactions),
      stats.avg_transaction_size, stats.distinct_items, stats.density,
      timer.ElapsedSeconds());
  return 0;
}

}  // namespace mbi::cli
