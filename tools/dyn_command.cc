// `mbi insert` / `mbi compact`: the dynamized index from the command line.
//
// The dynamic index lives as a path-prefix artifact family (DESIGN.md §13.5):
// `<prefix>` is the manifest, `<prefix>.c<i>.rows` / `.c<i>.table` the
// per-component shards. `insert` creates the family on first use, appends
// rows (from a database file or a literal basket), applies deletes, and
// persists the result; `compact` folds everything into one freshly mined
// component, purging tombstones and healing quarantined shards.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/signature_partition.h"
#include "dyn/dyn_io.h"
#include "dyn/dynamic_index.h"
#include "storage/env.h"
#include "tools/cli_command.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace mbi::cli {
namespace {

/// Parses "3,17,204" into numeric ids; returns false on malformed input.
bool ParseIdList(const std::string& text, std::vector<uint32_t>* ids) {
  ids->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(pos, comma - pos);
    if (token.empty()) return false;
    char* end = nullptr;
    unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') return false;
    ids->push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  return !ids->empty();
}

/// Merges cluster the universe into K signatures, which needs at least K
/// items; the flag's range check cannot know the universe.
bool CardinalityFitsUniverse(int64_t cardinality, size_t universe) {
  if (static_cast<size_t>(cardinality) <= universe) return true;
  std::fprintf(stderr,
               "--cardinality %lld exceeds the %zu-item universe\n",
               static_cast<long long>(cardinality), universe);
  return false;
}

void PrintBreakdown(const DynamicIndex& index) {
  std::printf("  live rows %zu, buffered %zu, tombstones %zu\n",
              index.live_size(), index.buffered_rows(),
              index.tombstone_count());
  for (const auto& level : index.LevelBreakdown()) {
    std::printf("  level %d: %zu component%s, %zu rows\n", level.level,
                level.components, level.components == 1 ? "" : "s",
                level.rows);
  }
}

}  // namespace

int RunInsert(int argc, char** argv) {
  FlagParser flags(
      "mbi insert: append rows to (or create) a dynamic index family.");
  std::string index_prefix, db_path, items_text, delete_text;
  int64_t universe, buffer_capacity, fanout, cardinality;
  flags.AddString("index", "index.mbdyn",
                  "dynamic index path prefix (created if absent)",
                  &index_prefix);
  flags.AddString("db", "",
                  "database file whose transactions are all inserted",
                  &db_path);
  flags.AddString("items", "",
                  "a single basket to insert, as comma-separated item ids",
                  &items_text);
  flags.AddString("delete", "",
                  "comma-separated row gids to tombstone after inserting",
                  &delete_text);
  flags.AddInt64("universe", 0,
                 "item universe size when creating a fresh index (defaults "
                 "to the --db universe; required for --items-only creation)",
                 &universe, 0, std::numeric_limits<ItemId>::max());
  flags.AddInt64("buffer_capacity", 256,
                 "mutable buffer rows before a spill (creation only)",
                 &buffer_capacity, 1);
  flags.AddInt64("fanout", 4,
                 "components per level before a merge (creation only)",
                 &fanout, 2);
  flags.AddInt64("cardinality", 15, "signature cardinality K for merges",
                 &cardinality, 1, SignaturePartition::kMaxCardinality);
  if (!flags.Parse(argc, argv)) return 0;

  DynamicIndexOptions options;
  options.buffer_capacity = static_cast<size_t>(buffer_capacity);
  options.level_fanout = static_cast<size_t>(fanout);
  options.build.clustering.target_cardinality =
      static_cast<uint32_t>(cardinality);

  // Rows to insert, from the bulk file and/or the literal basket.
  std::vector<Transaction> rows;
  size_t db_universe = 0;
  if (!db_path.empty()) {
    auto db = LoadDatabase(db_path);
    if (!db.ok()) {
      std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
      return 1;
    }
    db_universe = db->universe_size();
    rows.reserve(db->size());
    for (TransactionId i = 0; i < db->size(); ++i) rows.push_back(db->Get(i));
  }
  if (!items_text.empty()) {
    std::vector<uint32_t> items;
    if (!ParseIdList(items_text, &items)) {
      std::fprintf(stderr, "error: cannot parse --items '%s'\n",
                   items_text.c_str());
      return 1;
    }
    rows.push_back(Transaction(std::vector<ItemId>(items.begin(), items.end())));
  }

  // Open or create the family.
  std::unique_ptr<DynamicIndex> index;
  if (Env::Default()->FileExists(index_prefix)) {
    auto loaded = DynIo::Load(index_prefix, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    index = std::move(loaded).value();
  } else {
    size_t universe_size = universe > 0 ? static_cast<size_t>(universe)
                                        : db_universe;
    if (universe_size == 0) {
      std::fprintf(stderr,
                   "error: creating %s needs --universe (or --db to infer "
                   "it from)\n",
                   index_prefix.c_str());
      return 1;
    }
    index = std::make_unique<DynamicIndex>(universe_size, options);
  }
  if (!CardinalityFitsUniverse(cardinality, index->universe_size())) return 2;

  Stopwatch timer;
  for (const Transaction& txn : rows) {
    for (ItemId item : txn.items()) {
      if (item >= index->universe_size()) {
        std::fprintf(stderr, "error: item %u outside the universe [0, %zu)\n",
                     item, index->universe_size());
        return 1;
      }
    }
    auto gid = index->Insert(txn);
    if (!gid.ok()) {
      std::fprintf(stderr, "error: %s\n", gid.status().ToString().c_str());
      return 1;
    }
  }

  size_t deleted = 0;
  if (!delete_text.empty()) {
    std::vector<uint32_t> gids;
    if (!ParseIdList(delete_text, &gids)) {
      std::fprintf(stderr, "error: cannot parse --delete '%s'\n",
                   delete_text.c_str());
      return 1;
    }
    for (uint32_t gid : gids) {
      if (Status status = index->Delete(gid); !status.ok()) {
        std::fprintf(stderr, "error: delete %u: %s\n", gid,
                     status.ToString().c_str());
        return 1;
      }
      ++deleted;
    }
  }
  index->WaitForMaintenance();

  if (Status saved = DynIo::Save(*index, index_prefix); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("%s: +%zu rows, -%zu deletes in %.1f ms\n", index_prefix.c_str(),
              rows.size(), deleted, timer.ElapsedMillis());
  PrintBreakdown(*index);
  return 0;
}

int RunCompact(int argc, char** argv) {
  FlagParser flags(
      "mbi compact: fold a dynamic index into one freshly mined component, "
      "purging tombstones and healing quarantined shards.");
  std::string index_prefix;
  int64_t cardinality;
  flags.AddString("index", "index.mbdyn", "dynamic index path prefix",
                  &index_prefix);
  flags.AddInt64("cardinality", 15, "signature cardinality K for the rebuild",
                 &cardinality, 1, SignaturePartition::kMaxCardinality);
  if (!flags.Parse(argc, argv)) return 0;

  DynamicIndexOptions options;
  options.build.clustering.target_cardinality =
      static_cast<uint32_t>(cardinality);
  auto loaded = DynIo::Load(index_prefix, options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<DynamicIndex> index = std::move(loaded).value();
  if (!CardinalityFitsUniverse(cardinality, index->universe_size())) return 2;
  std::printf("before:\n");
  PrintBreakdown(*index);

  Stopwatch timer;
  if (Status status = index->Compact(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const double compact_ms = timer.ElapsedMillis();
  if (Status saved = DynIo::Save(*index, index_prefix); !saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("after (%.1f ms):\n", compact_ms);
  PrintBreakdown(*index);
  return 0;
}

}  // namespace mbi::cli
