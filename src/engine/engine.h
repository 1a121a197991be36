#ifndef MBI_ENGINE_ENGINE_H_
#define MBI_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/signature_table.h"
#include "core/table_io.h"
#include "storage/env.h"
#include "txn/candidate_layout.h"
#include "txn/database.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mbi {

/// Query front end with graceful degradation: owns the loaded SignatureTable
/// (when one loads cleanly) and answers queries through BranchAndBoundEngine;
/// when the index artifact fails its checksum or invariant verification at
/// open time, the engine *quarantines* the index and serves every query via
/// SequentialScanner instead — correct (exact) answers at degraded speed,
/// with the fallback counted in QueryStats::sequential_fallbacks.
///
/// This is the paper's availability story for a disk-resident index: the
/// directory is derived data, the database is the source of truth, so a
/// corrupt index file should cost throughput, never correctness or uptime.
/// Rebuild the index (`mbi build`) to leave quarantine.
///
/// This is the one place that chooses between table search and scan: every
/// component of a DynamicIndex is a SignatureTableEngine over its own rows
/// (DynComponent), so a component whose table shard failed to load falls
/// back exactly like a static index does.
///
/// Its query surface is FindKNearest and FindInRange, one query per call,
/// each bounded only by its own SearchOptions::budget, plus optional
/// metrics. Concurrent callers each pass their own QueryContext; a batch
/// over a healthy table fans out through core/batch_query.h instead.
class SignatureTableEngine {
 public:
  /// `database` must outlive the engine and is always trusted (its own
  /// loader has already validated it).
  explicit SignatureTableEngine(const TransactionDatabase* database);

  SignatureTableEngine(const SignatureTableEngine&) = delete;
  SignatureTableEngine& operator=(const SignatureTableEngine&) = delete;

  /// Loads the index at `path`. On kCorruption the engine enters quarantine
  /// (queries keep working through the sequential fallback) and the status
  /// describing the damage is returned *and* retained as
  /// quarantine_reason(). Other failures (kNotFound, kIoError,
  /// kInvalidArgument) do not quarantine: there is no artifact to degrade
  /// around, so the caller must decide. A loaded table is bound as by
  /// AdoptTable; a failure that leaves no table builds the fallback's
  /// TID-order candidate layout unless it already has one.
  Status OpenIndex(const std::string& path, Env* env = Env::Default());

  /// Adopts an already-built table (e.g. fresh from BuildIndex), clearing
  /// any quarantine. The binding's one candidate layout, in the table's
  /// entry order, is built and owned by the branch-and-bound engine; the
  /// fallback's TID-order layout, if any, is dropped.
  void AdoptTable(SignatureTable table);

  /// True when a healthy index is loaded and queries use branch-and-bound.
  bool healthy() const { return engine_.has_value(); }
  bool quarantined() const MBI_EXCLUDES(state_mu_) {
    MutexLock lock(&state_mu_);
    return quarantined_;
  }
  /// The retained kCorruption status while quarantined, Ok() otherwise.
  /// Returned by value: the stored status is replaced by OpenIndex /
  /// AdoptTable, possibly while other threads query.
  Status quarantine_reason() const MBI_EXCLUDES(state_mu_) {
    MutexLock lock(&state_mu_);
    return quarantine_reason_;
  }

  /// Queries answered by the sequential fallback since construction.
  uint64_t fallback_queries() const {
    return fallback_queries_.load(std::memory_order_relaxed);
  }

  /// k-NN query: branch-and-bound when healthy, sequential scan when
  /// quarantined (stats.sequential_fallbacks == 1). `context` is used only
  /// on the healthy path. SearchOptions::budget, the query's only budget, is
  /// honored on both paths; the fallback propagates
  /// the scanner's full QueryStats — termination, is_exact, and
  /// certificate_bound included — so a degraded fallback answer carries the
  /// same certificate a degraded indexed answer would.
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options = {},
                                     QueryContext* context = nullptr) const;

  /// Result-out form of FindKNearest (the by-value form wraps it): `*result`
  /// is overwritten, keeping its capacity, so a healthy engine queried
  /// through a warm (context, result) pair allocates nothing — the form each
  /// dynamized component is queried through.
  void FindKNearest(const Transaction& target, const SimilarityFamily& family,
                    size_t k, const SearchOptions& options,
                    QueryContext* context, NearestNeighborResult* result) const;

  /// Range query with the same fallback contract as FindKNearest.
  RangeQueryResult FindInRange(const Transaction& target,
                               const SimilarityFamily& family,
                               double threshold,
                               const SearchOptions& options = {}) const;

  /// Enables engine-level instrumentation in `registry` (names mbi.engine.*,
  /// see DESIGN.md §8): query/prune/fallback counters that aggregate exactly
  /// the per-query QueryStats, per-shape latency histograms, and a
  /// quarantine gauge. Also forwards to the internal SequentialScanner
  /// (mbi.scan.*) and the loaded table's page store (mbi.pagestore.*), and
  /// re-applies itself to tables adopted later. Pass nullptr to disable (the
  /// default; disabled queries skip even the clock reads).
  void set_metrics(MetricsRegistry* registry);

  /// Loaded table, or nullptr while quarantined / before OpenIndex.
  const SignatureTable* table() const {
    return table_.has_value() ? &*table_ : nullptr;
  }
  const TransactionDatabase& database() const { return *database_; }

 private:
  /// Pre-resolved metric handles; null while metrics are disabled.
  struct MetricHandles {
    Counter* knn_queries = nullptr;
    Counter* range_queries = nullptr;
    Counter* fallbacks = nullptr;
    Counter* entries_considered = nullptr;
    Counter* entries_scanned = nullptr;
    Counter* entries_pruned = nullptr;
    Counter* entries_unexplored = nullptr;
    Counter* transactions_evaluated = nullptr;
    Counter* pages_read = nullptr;
    Counter* pages_cached = nullptr;
    Counter* bytes_read = nullptr;
    Counter* transactions_fetched = nullptr;
    LatencyHistogram* knn_latency = nullptr;
    LatencyHistogram* range_latency = nullptr;
    Gauge* quarantined = nullptr;
    /// Overload accounting: queries whose answer was certified non-exact,
    /// and the subset cut specifically by a deadline / a cancellation.
    Counter* degraded = nullptr;
    Counter* deadline_expired = nullptr;
    Counter* cancelled = nullptr;
  };

  void SequentialKNearest(const Transaction& target,
                          const SimilarityFamily& family, size_t k,
                          const QueryBudget& budget, const DeletedRows* deleted,
                          NearestNeighborResult* result) const;
  RangeQueryResult SequentialInRange(const Transaction& target,
                                     const SimilarityFamily& family,
                                     double threshold,
                                     const QueryBudget& budget) const;
  void FindKNearestImpl(const Transaction& target,
                        const SimilarityFamily& family, size_t k,
                        const SearchOptions& options, QueryContext* context,
                        NearestNeighborResult* result) const;
  RangeQueryResult FindInRangeImpl(const Transaction& target,
                                   const SimilarityFamily& family,
                                   double threshold,
                                   const SearchOptions& options) const;

  /// Folds one query's QueryStats into the aggregate counters (the
  /// counters-reconcile-with-QueryStats property holds by construction).
  void RecordQueryStats(const QueryStats& stats, bool is_range) const;
  /// RecordQueryStats plus the per-shape latency histogram.
  void RecordQuery(const QueryStats& stats, bool is_range,
                   double elapsed_us) const;

  /// Rebinds the fallback scanner: to a freshly built TID-order layout, or
  /// (false) to none, dropping the old one.
  void SetScanLayout(bool tid_order_layout);

  const TransactionDatabase* const database_;
  /// The sequential fallback's candidate layout, in TID order: held only
  /// while an open has left the engine without a table (empty before the
  /// first binding, when the fallback scans through the probe path). While
  /// a table is bound the branch-and-bound engine owns the one layout. The
  /// database must not grow after a layout is built: binding a table aborts
  /// unless table, layout and database cover the same rows.
  std::optional<CandidateLayout> scan_layout_;
  SequentialScanner scanner_;
  /// table_/engine_ are written only by OpenIndex/AdoptTable, which the
  /// caller must not run concurrently with queries (the engine swaps the
  /// whole index out from under them otherwise); queries only read. The
  /// quarantine flag and reason, however, are mutated on the same calls and
  /// *read* from concurrent query threads via the public accessors, so they
  /// get a real lock.
  std::optional<SignatureTable> table_;
  /// Valid only while table_ holds a value (points into it).
  std::optional<BranchAndBoundEngine> engine_;
  mutable Mutex state_mu_;
  bool quarantined_ MBI_GUARDED_BY(state_mu_) = false;
  Status quarantine_reason_ MBI_GUARDED_BY(state_mu_);
  mutable std::atomic<uint64_t> fallback_queries_{0};
  MetricsRegistry* metrics_registry_ = nullptr;
  MetricHandles metrics_;
  bool metrics_enabled_ = false;
};

}  // namespace mbi

#endif  // MBI_ENGINE_ENGINE_H_
