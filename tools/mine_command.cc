#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "mining/apriori.h"
#include "tools/cli_command.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace mbi::cli {
namespace {

std::string ItemsToString(const std::vector<ItemId>& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(items[i]);
  }
  return out + "}";
}

}  // namespace

int RunMine(int argc, char** argv) {
  FlagParser flags(
      "mbi mine: frequent itemsets and association rules (Apriori).");
  std::string db_path;
  double min_support, min_confidence;
  int64_t max_size, show;
  flags.AddString("db", "data.mbid", "database file", &db_path);
  flags.AddDouble("min_support", 0.01, "minimum itemset support",
                  &min_support, 0.0, 1.0, /*min_exclusive=*/true);
  flags.AddDouble("min_confidence", 0.5, "minimum rule confidence",
                  &min_confidence, 0.0, 1.0);
  flags.AddInt64("max_size", 0, "largest itemset size to mine (0 = all)",
                 &max_size, 0, std::numeric_limits<uint32_t>::max());
  flags.AddInt64("show", 15, "itemsets/rules to print", &show);
  if (!flags.Parse(argc, argv)) return 0;

  auto db = LoadDatabase(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  Stopwatch timer;
  AprioriConfig config;
  config.min_support = min_support;
  config.max_itemset_size = static_cast<uint32_t>(max_size);
  auto itemsets = MineFrequentItemsets(*db, config);
  std::printf("%zu frequent itemsets at support >= %.4f (%.1fs)\n",
              itemsets.size(), min_support, timer.ElapsedSeconds());

  // Print the highest-support itemsets of size >= 2.
  std::vector<const FrequentItemset*> interesting;
  for (const auto& itemset : itemsets) {
    if (itemset.items.size() >= 2) interesting.push_back(&itemset);
  }
  std::sort(interesting.begin(), interesting.end(),
            [](const FrequentItemset* a, const FrequentItemset* b) {
              return a->count > b->count;
            });
  const size_t show_limit = show > 0 ? static_cast<size_t>(show) : 0;
  for (size_t i = 0; i < show_limit && i < interesting.size(); ++i) {
    std::printf("  %-28s support %.4f\n",
                ItemsToString(interesting[i]->items).c_str(),
                interesting[i]->Support(db->size()));
  }

  auto rules = GenerateAssociationRules(itemsets, db->size(), min_confidence);
  std::printf("%zu rules at confidence >= %.2f; strongest:\n", rules.size(),
              min_confidence);
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.support > b.support;
            });
  for (size_t i = 0; i < show_limit && i < rules.size(); ++i) {
    std::printf("  %s => %s (conf %.3f, supp %.4f)\n",
                ItemsToString(rules[i].antecedent).c_str(),
                ItemsToString(rules[i].consequent).c_str(),
                rules[i].confidence, rules[i].support);
  }
  return 0;
}

}  // namespace mbi::cli
