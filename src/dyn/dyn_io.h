#ifndef MBI_DYN_DYN_IO_H_
#define MBI_DYN_DYN_IO_H_

#include <memory>
#include <string>

#include "dyn/dynamic_index.h"
#include "storage/env.h"
#include "util/status.h"

namespace mbi {

/// Persistence for the dynamized index, sharded so durability damage
/// degrades one level, not the engine (DESIGN.md §13.5).
///
/// Env has no directory primitives, so an index is a *path-prefix family*:
///
///   <prefix>            manifest (v2 container, magic "MBDX"): universe,
///                       gid watermark, tombstones, per-component level +
///                       gid map, and the buffered rows verbatim
///   <prefix>.c<i>.rows  component i's rows   (SaveDatabase, "MBID")
///   <prefix>.c<i>.table component i's table  (SaveSignatureTable, "MBST")
///
/// Every artifact commits via write-temp → fsync → atomic-rename, and the
/// manifest is written LAST, so a crash mid-save leaves the old manifest
/// pointing at the old family (component files are content-complete before
/// the manifest names them; orphaned .c files from a wider old family are
/// best-effort removed after commit).
///
/// Load policy — rows are the source of truth, tables are derived:
///   * manifest or any .rows file corrupt → the load FAILS (kCorruption);
///   * a .table file corrupt/missing → that component alone serves through
///     its SignatureTableEngine's sequential fallback (exact, no pruning;
///     a corrupt shard also marks the engine quarantined) and the next merge
///     that consumes it rebuilds the table.
struct DynIo {
  /// Persists a consistent snapshot of `index` under `prefix`. Safe to call
  /// while queries run; concurrent writes land in the snapshot or don't,
  /// atomically.
  [[nodiscard]] static Status Save(const DynamicIndex& index,
                                   const std::string& prefix,
                                   Env* env = Env::Default());

  /// Restores an index saved under `prefix`. `options` is NOT serialized —
  /// the caller configures build/pool/metrics anew; a smaller
  /// buffer_capacity than at save time spills the excess on load.
  [[nodiscard]] static StatusOr<std::unique_ptr<DynamicIndex>> Load(
      const std::string& prefix, const DynamicIndexOptions& options = {},
      Env* env = Env::Default());

  /// Path helpers (exposed for tests that corrupt individual shards).
  static std::string RowsPath(const std::string& prefix, size_t i);
  static std::string TablePath(const std::string& prefix, size_t i);
};

}  // namespace mbi

#endif  // MBI_DYN_DYN_IO_H_
