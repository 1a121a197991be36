#ifndef MBI_DYN_DYNAMIC_INDEX_H_
#define MBI_DYN_DYNAMIC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "dyn/knn_merger.h"
#include "dyn/mutable_buffer.h"
#include "dyn/scheduler.h"
#include "engine/engine.h"
#include "storage/env.h"
#include "txn/database.h"
#include "txn/deleted_rows.h"
#include "txn/packed_target.h"
#include "txn/transaction.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mbi {

/// One immutable run of the dynamized index: a frozen set of rows, the
/// local→global id map, and the SignatureTableEngine that serves queries over
/// those rows. Published as shared_ptr<const DynComponent>; queries pin a
/// component with a snapshot and never observe it change, so level
/// reconstructions need no read locks.
///
/// The engine owns the component's layout, table, branch-and-bound engine,
/// sequential scanner and quarantine state, so the table-or-scan choice has
/// one home. A component whose persisted table did not load (missing or
/// corrupt shard) has no table: its rows (the source of truth) are intact and
/// the engine answers exactly through its sequential fallback, just without
/// pruning — durability damage degrades one level, not the index (DESIGN.md
/// §13.5). The next merge that consumes the component rebuilds its table.
struct DynComponent {
  /// Freezes `rows` (local ids [0, rows.size())) under `gids`; the engine
  /// starts without a table. Create/Open are the real constructors.
  DynComponent(int run_level, std::vector<TransactionId> run_gids,
               TransactionDatabase run_rows);

  /// Bentley–Saxe level. Level 0 holds fresh buffer spills; a merge of
  /// level-L components publishes at level L+1.
  int level = 0;

  /// Global transaction ids, ascending. Local row i of `rows` is global row
  /// gids[i]; components partition the live gid space (plus deleted rows
  /// not yet purged by a merge or rewrite).
  std::vector<TransactionId> gids;

  /// The component's rows under *local* ids [0, rows.size()).
  TransactionDatabase rows;

  /// Borrows `rows`, so the component must never be moved after
  /// construction — hence shared_ptr<const>.
  SignatureTableEngine engine;

  /// Builds a component from `(gid, row)` pairs sorted by gid: runs the full
  /// mining/clustering pass (BuildIndex) so signatures track the merged
  /// rows' correlation structure.
  static std::shared_ptr<const DynComponent> Create(
      int level, std::vector<TransactionId> gids, TransactionDatabase rows,
      const IndexBuildConfig& build);

  /// Load path: opens the persisted table at `table_path` instead of
  /// re-mining. Any load failure leaves the component on the engine's
  /// sequential fallback.
  static std::shared_ptr<const DynComponent> Open(
      int level, std::vector<TransactionId> gids, TransactionDatabase rows,
      const std::string& table_path, Env* env);

  size_t size() const { return rows.size(); }
};

/// Reusable per-query workspace for DynamicIndex::FindKNearest — the dyn
/// analogue of QueryContext (one per concurrent query; steady state
/// allocates nothing beyond result growth).
struct DynQueryContext {
  QueryContext context;
  NearestNeighborResult component_result;
  KnnMerger merger;
  PackedTarget packed;
  std::unique_ptr<SimilarityFunction> similarity;
};

struct DynamicIndexOptions {
  /// Rows the mutable buffer absorbs before spilling into a level-0
  /// component.
  size_t buffer_capacity = 256;

  /// Components a level may hold before they all merge one level up.
  /// Geometric by count: level L holds runs of roughly
  /// buffer_capacity * fanout^L rows.
  size_t level_fanout = 4;

  /// Admission control: when the buffer is full, a merge is already in
  /// flight, and level 0 holds this many components, Insert returns
  /// kUnavailable with a retry_after_ms hint instead of letting level 0 grow
  /// without bound.
  size_t max_l0_components = 8;

  /// Mining/clustering/table configuration re-run on every spill and merge.
  IndexBuildConfig build;

  /// Hint attached to backpressure kUnavailable statuses (util/retry parses
  /// it; the clamped-to-deadline sleep is tested in status_test.cc).
  double admission_retry_after_ms = 5.0;

  /// Budget for one background reconstruction; on expiry the merge is
  /// abandoned (victims stay queryable) and counted, never half-published.
  double merge_deadline_ms = std::numeric_limits<double>::infinity();

  /// Pool for background merges; null runs every reconstruction inline on
  /// the inserting thread (deterministic, still correct).
  ThreadPool* pool = nullptr;

  /// Optional sink for mbi.dyn.* metrics.
  MetricsRegistry* metrics = nullptr;
};

/// Bentley–Saxe dynamization of the paper's static signature-table index
/// (DESIGN.md §13).
///
/// Writes land in a MutableBuffer (exact scan path); a full buffer spills
/// into a level-0 static component built by the same mining/clustering pass
/// as the offline index. When a level accumulates `level_fanout` components
/// they merge — re-mining the union so signatures track correlation drift —
/// into one component a level up, on a background Scheduler off the query
/// path. Deletes are tagged: each published component (and the buffer)
/// carries a copy-on-write DeletedRows bitmap over its local rows, and every
/// scan drops flagged rows before the match kernel runs. A component more
/// than a quarter deleted is rewritten alone at its own level, so deleted
/// rows stay bounded by construction; level merges purge them too.
///
/// Queries fan out across buffer + every component, asking each component's
/// SignatureTableEngine — the static front door, with its own table-or-scan
/// fallback — for plain k (a part's answer is exact over its live rows), and
/// merge under the paper's optimistic-bound semantics (KnnMerger): values
/// and cutoff-tie behaviour are bit-identical to one SequentialScanner over
/// the live union (dyn_differential_test gates this), certificates merge as
/// max, and a budget that expires mid-fanout skips remaining components with
/// their rows certified unexplored.
///
/// Thread safety: any number of concurrent readers (each with its own
/// DynQueryContext) against one writer; Insert/Delete/Compact serialize on
/// the internal mutex. Reads copy a snapshot under the mutex and run
/// lock-free afterwards.
class DynamicIndex {
 public:
  explicit DynamicIndex(size_t universe_size,
                        const DynamicIndexOptions& options = {});
  ~DynamicIndex();

  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  /// Absorbs one row; returns its global id. Fails kUnavailable (with a
  /// retry_after_ms hint) under backpressure — see
  /// DynamicIndexOptions::max_l0_components.
  StatusOr<TransactionId> Insert(const Transaction& txn);

  /// Flags a live row deleted in its owning component's (or the buffer's)
  /// bitmap; cost is one binary search per component plus one bitmap copy.
  /// Claims a rewrite of the owning component once more than a quarter of
  /// its rows are deleted. kNotFound when `gid` was never assigned, is
  /// already deleted, or was purged by a merge after deletion.
  Status Delete(TransactionId gid);

  /// Top-k across buffer + all components, deletes applied. `k >= 1`.
  /// Budget semantics: SearchOptions::budget (merged tightest-wins with the
  /// context's session budget) spans the *whole* fan-out — max_entries is
  /// charged across components in each path's scan unit (DESIGN.md §13.4)
  /// and the first probe always runs (min-one rule); components skipped on
  /// an exhausted budget are folded into the certificate as unexplored.
  void FindKNearest(const Transaction& target, const SimilarityFamily& family,
                    size_t k, const SearchOptions& options,
                    DynQueryContext* context,
                    NearestNeighborResult* result) const;

  /// Convenience allocating form.
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options = {}) const;

  /// Merges everything (buffer + all levels) into a single component on the
  /// calling thread and purges every deleted row. Concurrent queries
  /// keep answering throughout; concurrent inserts are admitted.
  Status Compact();

  /// Blocks until no background reconstruction is running.
  void WaitForMaintenance() const;

  /// Structural self-check (gid partition, deleted-bitmap shapes, sorted
  /// invariants, live-row accounting). For tests and `mbi compact`.
  Status CheckInvariants() const;

  size_t universe_size() const { return universe_size_; }
  const DynamicIndexOptions& options() const { return options_; }

  /// Rows inserted and not deleted. (Deleted rows still occupy space in
  /// their component until a merge or rewrite purges them.)
  size_t live_size() const;

  /// Published components, buffer fill, and deleted-but-unpurged rows (the
  /// sum of the bitmap counts) — for tests, tools, and metrics.
  size_t num_components() const;
  size_t buffered_rows() const;
  size_t tombstone_count() const;
  TransactionId next_gid() const;

  struct LevelInfo {
    int level = 0;
    size_t components = 0;
    size_t rows = 0;
  };
  std::vector<LevelInfo> LevelBreakdown() const;

 private:
  friend struct DynIo;  // Persistence (dyn/dyn_io.h) rebuilds state directly.

  /// A component as published: the immutable run plus its copy-on-write
  /// deleted-row bitmap over local ids (null while nothing is deleted, so an
  /// untouched component runs the unfiltered engine path).
  struct Part {
    std::shared_ptr<const DynComponent> component;
    std::shared_ptr<const DeletedRows> deleted;

    size_t deleted_count() const {
      return deleted != nullptr ? deleted->count() : 0;
    }
    size_t live() const { return component->size() - deleted_count(); }
  };

  /// The queryable state, swapped atomically under mu_. Queries copy the
  /// shared_ptrs and drop the lock; old buffers/components/bitmaps stay
  /// alive for as long as any in-flight query pins them.
  struct State {
    /// Non-const only for the Append path (serialized under mu_); query
    /// snapshots touch const methods exclusively.
    std::shared_ptr<MutableBuffer> buffer;
    /// Deleted buffer slots (bitmap over the buffer's capacity; null while
    /// none). Replaced together with `buffer` at every spill.
    std::shared_ptr<const DeletedRows> buffer_deleted;
    std::vector<Part> components;
  };

  /// A planned reconstruction: consume `victims`, publish one component at
  /// `out_level`. Each victim's bitmap is the one at claim time: those rows
  /// are dropped, and deletes that land later carry over at publish.
  /// `rewrite` marks a delete-proportion rewrite (one victim, same level).
  struct MergePlan {
    std::vector<Part> victims;
    int out_level = 0;
    bool rewrite = false;
  };

  Status AppendRowLocked(TransactionId gid, const Transaction& txn)
      MBI_REQUIRES(mu_);
  /// Freezes the buffer into a level-0 component (dropping deleted rows) and
  /// installs a fresh buffer.
  void SpillLocked() MBI_REQUIRES(mu_);
  /// Flags `gid` in the bitmap of the part (or buffer) that owns it.
  Status MarkDeletedLocked(TransactionId gid) MBI_REQUIRES(mu_);
  /// Claims one reconstruction (setting merge_in_flight_) and returns its
  /// plan: the lowest overflowing level's merge first, else the rewrite of a
  /// component more than kMaxDeletedFraction deleted. nullopt when neither
  /// applies or a reconstruction is already running. The caller MUST release
  /// mu_ and pass the plan to
  /// SubmitMerge — submitting under mu_ deadlocks the inline (null-pool)
  /// scheduler, whose job re-acquires mu_ to publish.
  std::optional<MergePlan> MaybeStartMergeLocked() MBI_REQUIRES(mu_);
  /// Hands a claimed plan to the scheduler; unwinds merge_in_flight_ if the
  /// scheduler is stopping. Must be called WITHOUT mu_ held.
  void SubmitMerge(MergePlan plan);
  size_t CountAtLevelLocked(int level) const
      MBI_REQUIRES(mu_);
  /// The three-phase background job: gather (drop victims' deleted rows),
  /// build (re-mine the union), publish. Polls `budget` between phases and
  /// abandons — leaving victims queryable — on expiry or cancellation.
  void RunMerge(const MergePlan& plan, const QueryBudget& budget);
  /// Swaps victims for the merged run, re-flags in it the victim rows
  /// deleted since the claim, and returns the next claimed plan (a cascade
  /// or a pending rewrite), if any.
  std::optional<MergePlan> PublishMergeLocked(
      const MergePlan& plan, std::shared_ptr<const DynComponent> merged)
      MBI_REQUIRES(mu_);
  void AbandonMergeLocked() MBI_REQUIRES(mu_);
  void UpdateGaugesLocked() MBI_REQUIRES(mu_);

  /// One component's contribution to the fan-out. Returns entries charged
  /// (in the component path's unit) so the caller can split max_entries.
  uint64_t QueryComponent(const Part& part, const Transaction& target,
                          const SimilarityFamily& family, size_t k_component,
                          const SearchOptions& options,
                          DynQueryContext* context) const;

  const size_t universe_size_;
  const DynamicIndexOptions options_;

  mutable Mutex mu_;
  State state_ MBI_GUARDED_BY(mu_);
  TransactionId next_gid_ MBI_GUARDED_BY(mu_) = 0;
  size_t live_rows_ MBI_GUARDED_BY(mu_) = 0;
  /// Deleted-but-unpurged rows: the sum of every published bitmap's count,
  /// kept alongside the bitmaps (CheckInvariants recomputes it).
  size_t deleted_rows_ MBI_GUARDED_BY(mu_) = 0;
  bool merge_in_flight_ MBI_GUARDED_BY(mu_) = false;

  mutable Scheduler scheduler_;

  struct Metrics {
    Counter* inserts = nullptr;
    Counter* deletes = nullptr;
    Counter* spills = nullptr;
    Counter* merges = nullptr;
    Counter* rewrites = nullptr;
    Counter* merges_abandoned = nullptr;
    Counter* backpressure = nullptr;
    Counter* queries = nullptr;
    Gauge* components = nullptr;
    Gauge* tombstones = nullptr;
    Gauge* buffer_fill = nullptr;
    Gauge* live_rows = nullptr;
    LatencyHistogram* merge_latency = nullptr;
  };
  static Metrics MakeMetrics(MetricsRegistry* registry);

  // Immutable after construction; the Counter/Gauge/Histogram objects it
  // points at are internally synchronized, so no mu_ annotation is needed.
  const Metrics metrics_;
};

}  // namespace mbi

#endif  // MBI_DYN_DYNAMIC_INDEX_H_
