#include "dyn/dynamic_index.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "baseline/sequential_scan.h"
#include "util/macros.h"

namespace mbi {

namespace {

/// Rows-per-budget-check granularity for the buffer scan, matching the
/// scanner paths' chunk discipline (DESIGN.md §13.4). Buffers are usually
/// smaller than one chunk, so in practice the whole buffer scans atomically
/// under the min-one-chunk rule.
constexpr size_t kBufferScanChunk = SequentialScanner::kScanChunk;

/// Delete-proportion bound: once more than this fraction of a component's
/// rows are deleted, the component is rewritten alone at its own level
/// (dynamic-extension's maximum delete proportion). Bounds the deleted rows
/// any query still walks past to a quarter of each component.
constexpr double kMaxDeletedFraction = 0.25;

/// Copy-on-write flag of local row `row` in `*deleted`, a bitmap over `rows`
/// ids (null = nothing deleted yet). Readers holding the old version keep
/// it unchanged.
Status FlagRow(std::shared_ptr<const DeletedRows>* deleted, size_t rows,
               TransactionId row) {
  if (*deleted != nullptr && (*deleted)->contains(row)) {
    return Status::NotFound("row already deleted");
  }
  auto updated = *deleted != nullptr
                     ? std::make_shared<DeletedRows>(**deleted)
                     : std::make_shared<DeletedRows>(rows);
  updated->Insert(row);
  *deleted = std::move(updated);
  return Status::Ok();
}

/// Re-flags in `merged` the rows of `claimed` (a victim as of its claim)
/// that `now`, the victim's current bitmap, flags and the claim-time bitmap
/// did not: deletes that landed while the reconstruction was in flight.
/// Those rows were gathered into `merged`, so each is found there by gid.
void CarryOverDeletes(const DeletedRows* claimed_deleted,
                      const DynComponent& claimed, const DeletedRows& now,
                      const DynComponent& merged,
                      std::shared_ptr<DeletedRows>* carried) {
  for (size_t i = 0; i < claimed.size(); ++i) {
    const auto row = static_cast<TransactionId>(i);
    if (!now.contains(row) ||
        (claimed_deleted != nullptr && claimed_deleted->contains(row))) {
      continue;
    }
    const auto it = std::lower_bound(merged.gids.begin(), merged.gids.end(),
                                     claimed.gids[i]);
    MBI_CHECK(it != merged.gids.end() && *it == claimed.gids[i]);
    if (*carried == nullptr) {
      *carried = std::make_shared<DeletedRows>(merged.size());
    }
    (*carried)->Insert(static_cast<TransactionId>(it - merged.gids.begin()));
  }
}

double PointwiseBound(const SimilarityFunction& similarity,
                      size_t target_size) {
  // f(|target|, 0) dominates f(x, y) for every admissible f: matches cannot
  // exceed the target size and the Hamming distance cannot go below zero.
  return similarity.Evaluate(static_cast<int>(target_size), 0);
}

}  // namespace

// --- DynComponent -----------------------------------------------------------

DynComponent::DynComponent(int run_level, std::vector<TransactionId> run_gids,
                           TransactionDatabase run_rows)
    : level(run_level),
      gids(std::move(run_gids)),
      rows(std::move(run_rows)),
      engine(&rows) {
  MBI_CHECK(gids.size() == rows.size());
  MBI_CHECK(!rows.empty());
  MBI_CHECK(std::is_sorted(gids.begin(), gids.end()));
}

std::shared_ptr<const DynComponent> DynComponent::Create(
    int level, std::vector<TransactionId> gids, TransactionDatabase rows,
    const IndexBuildConfig& build) {
  auto component =
      std::make_shared<DynComponent>(level, std::move(gids), std::move(rows));
  component->engine.AdoptTable(BuildIndex(component->rows, build));
  return component;
}

std::shared_ptr<const DynComponent> DynComponent::Open(
    int level, std::vector<TransactionId> gids, TransactionDatabase rows,
    const std::string& table_path, Env* env) {
  auto component =
      std::make_shared<DynComponent>(level, std::move(gids), std::move(rows));
  // A failed open is not an error here: the rows are intact, and the engine
  // serves them through its sequential fallback until a merge rebuilds the
  // table.
  component->engine.OpenIndex(table_path, env).IgnoreError();
  return component;
}

// --- DynamicIndex: lifecycle ------------------------------------------------

DynamicIndex::DynamicIndex(size_t universe_size,
                           const DynamicIndexOptions& options)
    : universe_size_(universe_size),
      options_(options),
      scheduler_(options.pool, options.merge_deadline_ms),
      metrics_(MakeMetrics(options.metrics)) {
  MBI_CHECK(universe_size_ >= 1);
  MBI_CHECK(options_.buffer_capacity >= 1);
  MBI_CHECK(options_.level_fanout >= 2);
  MBI_CHECK(options_.max_l0_components >= 1);
  MutexLock lock(&mu_);
  state_.buffer = std::make_shared<MutableBuffer>(options_.buffer_capacity);
  UpdateGaugesLocked();
}

DynamicIndex::~DynamicIndex() {
  // Abandon pending reconstructions: RunMerge observes the cancellation at
  // its next phase boundary and returns without publishing.
  scheduler_.RequestStop();
  scheduler_.Drain();
}

DynamicIndex::Metrics DynamicIndex::MakeMetrics(MetricsRegistry* registry) {
  Metrics m;
  if (registry == nullptr) return m;
  m.inserts = registry->GetCounter("mbi.dyn.inserts", "rows", "Rows inserted");
  m.deletes =
      registry->GetCounter("mbi.dyn.deletes", "rows", "Rows deleted");
  m.spills = registry->GetCounter("mbi.dyn.spills", "spills",
                                  "Buffer spills into level 0");
  m.merges = registry->GetCounter("mbi.dyn.merges", "merges",
                                  "Level merges published");
  m.rewrites = registry->GetCounter(
      "mbi.dyn.rewrites", "rewrites",
      "Delete-proportion rewrites of one component published");
  m.merges_abandoned =
      registry->GetCounter("mbi.dyn.merges_abandoned", "merges",
                           "Level merges abandoned (budget/shutdown)");
  m.backpressure =
      registry->GetCounter("mbi.dyn.backpressure", "rejections",
                           "Inserts rejected by admission control");
  m.queries = registry->GetCounter("mbi.dyn.queries", "queries",
                                   "Fan-out k-NN queries answered");
  m.components = registry->GetGauge("mbi.dyn.components", "components",
                                    "Published static components");
  m.tombstones = registry->GetGauge("mbi.dyn.tombstones", "rows",
                                    "Deleted rows not yet purged");
  m.buffer_fill = registry->GetGauge("mbi.dyn.buffer_fill", "rows",
                                     "Rows in the mutable buffer");
  m.live_rows =
      registry->GetGauge("mbi.dyn.live_rows", "rows", "Live (queryable) rows");
  m.merge_latency = registry->GetHistogram(
      "mbi.dyn.merge_latency", "us", "Background reconstruction latency");
  return m;
}

void DynamicIndex::UpdateGaugesLocked() {
  if (options_.metrics == nullptr) return;
  metrics_.components->Set(static_cast<double>(state_.components.size()));
  metrics_.tombstones->Set(static_cast<double>(deleted_rows_));
  metrics_.buffer_fill->Set(static_cast<double>(state_.buffer->size()));
  metrics_.live_rows->Set(static_cast<double>(live_rows_));
}

// --- Writes -----------------------------------------------------------------

StatusOr<TransactionId> DynamicIndex::Insert(const Transaction& txn) {
  std::optional<MergePlan> plan;
  TransactionId gid;
  {
    MutexLock lock(&mu_);
    if (state_.buffer->full()) {
      // The eager spill below was blocked by backpressure on an earlier
      // insert; re-check admission before accepting more rows.
      if (merge_in_flight_ &&
          CountAtLevelLocked(0) >= options_.max_l0_components) {
        if (metrics_.backpressure != nullptr) {
          metrics_.backpressure->Increment();
        }
        return Status::Unavailable(
            "dynamic index overloaded: level 0 at capacity behind an "
            "in-flight merge; retry_after_ms=" +
            std::to_string(options_.admission_retry_after_ms));
      }
      SpillLocked();
      plan = MaybeStartMergeLocked();
    }
    gid = next_gid_++;
    MBI_CHECK(state_.buffer->Append(gid, txn));
    ++live_rows_;
    // Eager spill: freeze the buffer the moment it fills so buffer_capacity
    // bounds the un-indexed scan prefix. Skipped while backpressured (L0
    // saturated behind a merge) — the next insert re-checks admission above.
    if (state_.buffer->full() &&
        !(merge_in_flight_ &&
          CountAtLevelLocked(0) >= options_.max_l0_components)) {
      SpillLocked();
      if (!plan.has_value()) plan = MaybeStartMergeLocked();
    }
    if (metrics_.inserts != nullptr) metrics_.inserts->Increment();
    UpdateGaugesLocked();
  }
  // Outside mu_: the inline (null-pool) scheduler runs the merge right here
  // on the inserting thread, and its publish phase re-acquires mu_.
  if (plan.has_value()) SubmitMerge(std::move(*plan));
  return gid;
}

Status DynamicIndex::AppendRowLocked(TransactionId gid,
                                     const Transaction& txn) {
  // Load path: replays persisted rows with their original gids, spilling as
  // the (possibly reconfigured) buffer capacity dictates. No admission
  // control — a load must either fully succeed or fail.
  MBI_CHECK(state_.buffer->Append(gid, txn));
  ++live_rows_;
  if (state_.buffer->full()) SpillLocked();
  return Status::Ok();
}

void DynamicIndex::SpillLocked() {
  const MutableBuffer& buffer = *state_.buffer;
  const size_t n = buffer.size();
  MBI_CHECK(n >= 1);
  const DeletedRows* deleted = state_.buffer_deleted.get();

  // Freeze the live prefix; deleted buffer rows die here (the row never
  // reaches a component).
  std::vector<TransactionId> gids;
  TransactionDatabase rows(static_cast<uint32_t>(universe_size_));
  gids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (deleted != nullptr &&
        deleted->contains(static_cast<TransactionId>(i))) {
      continue;
    }
    const BufferedRow& row = buffer.row(i);
    gids.push_back(row.gid);
    rows.Add(row.txn);
  }
  if (!gids.empty()) {
    state_.components.push_back(
        {DynComponent::Create(/*level=*/0, std::move(gids), std::move(rows),
                              options_.build),
         nullptr});
  }
  state_.buffer = std::make_shared<MutableBuffer>(options_.buffer_capacity);
  if (deleted != nullptr) deleted_rows_ -= deleted->count();
  state_.buffer_deleted.reset();
  if (metrics_.spills != nullptr) metrics_.spills->Increment();
}

Status DynamicIndex::MarkDeletedLocked(TransactionId gid) {
  if (gid >= next_gid_) {
    return Status::NotFound("gid was never assigned");
  }
  for (Part& part : state_.components) {
    const std::vector<TransactionId>& gids = part.component->gids;
    if (gid < gids.front() || gid > gids.back()) continue;
    const auto it = std::lower_bound(gids.begin(), gids.end(), gid);
    if (*it != gid) continue;
    MBI_RETURN_IF_ERROR(FlagRow(&part.deleted, gids.size(),
                                static_cast<TransactionId>(it - gids.begin())));
    ++deleted_rows_;
    return Status::Ok();
  }
  // Buffer slots hold ascending gids (appends take next_gid_ in order).
  const MutableBuffer& buffer = *state_.buffer;
  size_t lo = 0;
  size_t hi = buffer.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (buffer.row(mid).gid < gid) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < buffer.size() && buffer.row(lo).gid == gid) {
    MBI_RETURN_IF_ERROR(FlagRow(&state_.buffer_deleted, buffer.capacity(),
                                static_cast<TransactionId>(lo)));
    ++deleted_rows_;
    return Status::Ok();
  }
  return Status::NotFound("row already deleted and purged");
}

Status DynamicIndex::Delete(TransactionId gid) {
  std::optional<MergePlan> plan;
  {
    MutexLock lock(&mu_);
    MBI_RETURN_IF_ERROR(MarkDeletedLocked(gid));
    --live_rows_;
    if (metrics_.deletes != nullptr) metrics_.deletes->Increment();
    plan = MaybeStartMergeLocked();
    UpdateGaugesLocked();
  }
  // Outside mu_, as in Insert: the inline scheduler publishes under mu_.
  if (plan.has_value()) SubmitMerge(std::move(*plan));
  return Status::Ok();
}

// --- Merging ----------------------------------------------------------------

size_t DynamicIndex::CountAtLevelLocked(int level) const {
  size_t count = 0;
  for (const Part& part : state_.components) {
    if (part.component->level == level) ++count;
  }
  return count;
}

std::optional<DynamicIndex::MergePlan> DynamicIndex::MaybeStartMergeLocked() {
  if (merge_in_flight_ || scheduler_.stopping()) return std::nullopt;
  int max_level = -1;
  const Part* stale = nullptr;  // First component past the delete bound.
  for (const Part& part : state_.components) {
    max_level = std::max(max_level, part.component->level);
    if (stale == nullptr &&
        static_cast<double>(part.deleted_count()) >
            kMaxDeletedFraction * static_cast<double>(part.component->size())) {
      stale = &part;
    }
  }
  // One reconstruction in flight at a time, lowest overflowing level first;
  // cascades and pending rewrites re-check at publish.
  MergePlan plan;
  for (int level = 0; level <= max_level && plan.victims.empty(); ++level) {
    if (CountAtLevelLocked(level) < options_.level_fanout) continue;
    plan.out_level = level + 1;
    for (const Part& part : state_.components) {
      if (part.component->level == level) plan.victims.push_back(part);
    }
  }
  // Delete-proportion rewrite: rebuild the stale component alone at its own
  // level, which purges its deleted rows.
  if (plan.victims.empty() && stale != nullptr) {
    plan.out_level = stale->component->level;
    plan.rewrite = true;
    plan.victims.push_back(*stale);
  }
  if (plan.victims.empty()) return std::nullopt;
  merge_in_flight_ = true;
  return plan;
}

void DynamicIndex::SubmitMerge(MergePlan plan) {
  const bool accepted = scheduler_.Submit(
      [this, plan = std::move(plan)](const QueryBudget& budget) {
        RunMerge(plan, budget);
      });
  if (!accepted) {
    // Shutting down: the claim must be unwound or writers wedge forever.
    MutexLock lock(&mu_);
    AbandonMergeLocked();
  }
}

void DynamicIndex::RunMerge(const MergePlan& plan, const QueryBudget& budget) {
  ScopedTimer timer(metrics_.merge_latency);
  // Phase 1: gather. Victims and their claim-time bitmaps are immutable, so
  // no lock is needed; rows deleted later carry over at publish.
  if (budget.cancelled() || budget.deadline_expired()) {
    MutexLock lock(&mu_);
    AbandonMergeLocked();
    return;
  }
  struct GatheredRow {
    TransactionId gid;
    const Transaction* txn;
  };
  std::vector<GatheredRow> gathered;
  for (const Part& victim : plan.victims) {
    const DynComponent& component = *victim.component;
    for (size_t i = 0; i < component.gids.size(); ++i) {
      const auto row = static_cast<TransactionId>(i);
      if (victim.deleted != nullptr && victim.deleted->contains(row)) continue;
      gathered.push_back({component.gids[i], &component.rows.Get(row)});
    }
  }
  std::sort(gathered.begin(), gathered.end(),
            [](const GatheredRow& a, const GatheredRow& b) {
              return a.gid < b.gid;
            });

  // Phase 2: build — the expensive re-mining pass, entirely off-lock.
  if (budget.cancelled() || budget.deadline_expired()) {
    MutexLock lock(&mu_);
    AbandonMergeLocked();
    return;
  }
  std::shared_ptr<const DynComponent> merged;
  if (!gathered.empty()) {
    std::vector<TransactionId> gids;
    gids.reserve(gathered.size());
    TransactionDatabase rows(static_cast<uint32_t>(universe_size_));
    for (const GatheredRow& row : gathered) {
      gids.push_back(row.gid);
      rows.Add(*row.txn);
    }
    merged = DynComponent::Create(plan.out_level, std::move(gids),
                                  std::move(rows), options_.build);
  }

  // Phase 3: publish. A cancellation here still abandons — the built
  // component is simply dropped; victims remain authoritative.
  std::optional<MergePlan> next;
  {
    MutexLock lock(&mu_);
    if (budget.cancelled()) {
      AbandonMergeLocked();
      return;
    }
    next = PublishMergeLocked(plan, std::move(merged));
  }
  if (next.has_value()) SubmitMerge(std::move(*next));
}

std::optional<DynamicIndex::MergePlan> DynamicIndex::PublishMergeLocked(
    const MergePlan& plan, std::shared_ptr<const DynComponent> merged) {
  auto claimed = [&plan](const DynComponent* c) -> const Part* {
    for (const Part& victim : plan.victims) {
      if (victim.component.get() == c) return &victim;
    }
    return nullptr;
  };
  // Deletes that landed on a victim after the claim: its rows are in
  // `merged`, so they are re-flagged there (by gid) before it goes live.
  std::shared_ptr<DeletedRows> carried;
  size_t removed = 0;
  auto& components = state_.components;
  for (size_t i = 0; i < components.size();) {
    const Part* victim = claimed(components[i].component.get());
    if (victim == nullptr) {
      ++i;
      continue;
    }
    const DeletedRows* now = components[i].deleted.get();
    if (now != nullptr && now != victim->deleted.get()) {
      MBI_CHECK(merged != nullptr);
      CarryOverDeletes(victim->deleted.get(), *victim->component, *now,
                       *merged, &carried);
    }
    deleted_rows_ -= components[i].deleted_count();
    components.erase(components.begin() + static_cast<ptrdiff_t>(i));
    ++removed;
  }
  MBI_CHECK(removed == plan.victims.size());
  if (merged != nullptr) {
    if (carried != nullptr) deleted_rows_ += carried->count();
    components.push_back({std::move(merged), std::move(carried)});
  }
  merge_in_flight_ = false;
  Counter* published = plan.rewrite ? metrics_.rewrites : metrics_.merges;
  if (published != nullptr) published->Increment();
  UpdateGaugesLocked();
  // Cascade: the merged run may overflow its destination level, or a
  // component crossed the delete bound while this one was in flight.
  return MaybeStartMergeLocked();
}

void DynamicIndex::AbandonMergeLocked() {
  merge_in_flight_ = false;
  if (metrics_.merges_abandoned != nullptr) {
    metrics_.merges_abandoned->Increment();
  }
}

Status DynamicIndex::Compact() {
  MergePlan plan;
  for (;;) {
    // Wait out any background merge so victim sets cannot overlap, then
    // re-check under the lock (a publish may have cascaded a new one).
    scheduler_.Drain();
    MutexLock lock(&mu_);
    if (merge_in_flight_) continue;
    if (state_.buffer->size() > 0) SpillLocked();
    if (state_.components.size() <= 1 && deleted_rows_ == 0) {
      return Status::Ok();  // Already fully compacted.
    }
    plan.victims = state_.components;
    int max_level = 0;
    for (const Part& part : state_.components) {
      max_level = std::max(max_level, part.component->level);
    }
    plan.out_level = max_level + 1;
    merge_in_flight_ = true;
    break;
  }
  // Unlimited budget: a compaction requested by the caller runs to
  // completion on the calling thread (never dropped by a stopping
  // scheduler — Compact is a foreground operation).
  RunMerge(plan, QueryBudget{});
  return Status::Ok();
}

void DynamicIndex::WaitForMaintenance() const { scheduler_.Drain(); }

// --- Queries ----------------------------------------------------------------

uint64_t DynamicIndex::QueryComponent(const Part& part,
                                      const Transaction& target,
                                      const SimilarityFamily& family,
                                      size_t k_component,
                                      const SearchOptions& options,
                                      DynQueryContext* context) const {
  const DynComponent& component = *part.component;
  NearestNeighborResult* out = &context->component_result;
  SearchOptions filtered = options;
  filtered.deleted_rows = part.deleted.get();
  component.engine.FindKNearest(target, family, k_component, filtered,
                                &context->context, out);
  // Map component-local ids to global ids before the merge sees them.
  for (Neighbor& neighbor : out->neighbors) {
    neighbor.id = component.gids[neighbor.id];
  }
  return out->stats.entries_scanned;
}

void DynamicIndex::FindKNearest(const Transaction& target,
                                const SimilarityFamily& family, size_t k,
                                const SearchOptions& options,
                                DynQueryContext* context,
                                NearestNeighborResult* result) const {
  MBI_CHECK(k >= 1);
  State snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = state_;
  }
  if (metrics_.queries != nullptr) metrics_.queries->Increment();
  context->merger.Reset(k);

  const QueryBudget budget =
      QueryBudget::Tightest(options.budget, context->context.budget());
  family.RebindTarget(target, &context->similarity);
  const SimilarityFunction& similarity = *context->similarity;
  const double optimistic = PointwiseBound(similarity, target.size());

  // --- Buffer scan: exact, row units, chunked budget checks. ---
  context->packed.Assign(target, universe_size_);
  const size_t buffered = snapshot.buffer->size();
  // Every flagged slot was published before the snapshot, so it lies below
  // `buffered`.
  const DeletedRows* buffer_deleted = snapshot.buffer_deleted.get();
  uint64_t charged = 0;
  QueryStats buffer_stats;
  buffer_stats.database_size =
      buffered - (buffer_deleted != nullptr ? buffer_deleted->count() : 0);
  buffer_stats.entries_total = buffered;
  if (buffered > 0) {
    size_t scanned = 0;
    uint64_t evaluated = 0;
    while (scanned < buffered) {
      // Min-one-chunk rule: the first chunk always scans; later chunks poll
      // the budget first (DESIGN.md §13.4).
      buffer_stats.termination = budget.Poll(scanned);
      if (buffer_stats.termination != QueryTermination::kCompleted) break;
      const size_t end = std::min(buffered, scanned + kBufferScanChunk);
      for (; scanned < end; ++scanned) {
        if (buffer_deleted != nullptr &&
            buffer_deleted->contains(static_cast<TransactionId>(scanned))) {
          continue;
        }
        const BufferedRow& row = snapshot.buffer->row(scanned);
        size_t match = 0;
        size_t hamming = 0;
        context->packed.MatchAndHamming(row.txn, &match, &hamming);
        context->merger.AddCandidate(
            row.gid, similarity.Evaluate(static_cast<int>(match),
                                         static_cast<int>(hamming)));
        ++evaluated;
      }
    }
    buffer_stats.entries_scanned = scanned;
    buffer_stats.transactions_evaluated = evaluated;
    buffer_stats.entries_unexplored = buffered - scanned;
    if (buffer_stats.termination != QueryTermination::kCompleted) {
      buffer_stats.is_exact = false;
      buffer_stats.certificate_bound = optimistic;
    }
    charged += scanned;
  }
  context->merger.AddStats(buffer_stats);

  // --- Component fan-out. ---
  // Each part drops its deleted rows inside its own scan, so its answer is
  // exact over its live rows and plain k suffices (KnnMerger invariants);
  // the budget's entry cap is split across the fan-out by charging each
  // component's scan units as they accrue.
  for (const Part& part : snapshot.components) {
    const size_t live = part.live();
    // Every row deleted: nothing to answer (its pending rewrite drops it).
    if (live == 0) continue;
    const QueryTermination skip_cause = budget.Poll(charged);
    if (skip_cause != QueryTermination::kCompleted) {
      // Budget exhausted mid-fanout: this component's rows are certified
      // unexplored under the pointwise bound (the min-one rule already ran
      // at least one probe somewhere).
      QueryStats skipped;
      skipped.database_size = live;
      skipped.entries_total = part.component->size();
      skipped.entries_unexplored = part.component->size();
      skipped.termination = skip_cause;
      skipped.is_exact = false;
      skipped.certificate_bound = optimistic;
      context->merger.AddStats(skipped);
      continue;
    }
    SearchOptions component_options = options;
    component_options.budget = budget;
    if (budget.max_entries != std::numeric_limits<uint64_t>::max()) {
      const uint64_t remaining =
          budget.max_entries > charged ? budget.max_entries - charged : 0;
      // The component's own min-one rule guarantees progress even at 0.
      component_options.budget.max_entries = remaining;
    }
    charged += QueryComponent(part, target, family, std::min(k, live),
                              component_options, context);
    context->merger.AddComponent(context->component_result);
  }

  context->merger.Finish(result);
}

NearestNeighborResult DynamicIndex::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options) const {
  DynQueryContext context;
  NearestNeighborResult result;
  FindKNearest(target, family, k, options, &context, &result);
  return result;
}

// --- Introspection ----------------------------------------------------------

size_t DynamicIndex::live_size() const {
  MutexLock lock(&mu_);
  return live_rows_;
}

size_t DynamicIndex::num_components() const {
  MutexLock lock(&mu_);
  return state_.components.size();
}

size_t DynamicIndex::buffered_rows() const {
  MutexLock lock(&mu_);
  return state_.buffer->size();
}

size_t DynamicIndex::tombstone_count() const {
  MutexLock lock(&mu_);
  return deleted_rows_;
}

TransactionId DynamicIndex::next_gid() const {
  MutexLock lock(&mu_);
  return next_gid_;
}

std::vector<DynamicIndex::LevelInfo> DynamicIndex::LevelBreakdown() const {
  MutexLock lock(&mu_);
  std::vector<LevelInfo> breakdown;
  for (const Part& part : state_.components) {
    const DynComponent* component = part.component.get();
    LevelInfo* info = nullptr;
    for (LevelInfo& existing : breakdown) {
      if (existing.level == component->level) {
        info = &existing;
        break;
      }
    }
    if (info == nullptr) {
      breakdown.push_back({component->level, 0, 0});
      info = &breakdown.back();
    }
    ++info->components;
    info->rows += component->size();
  }
  std::sort(breakdown.begin(), breakdown.end(),
            [](const LevelInfo& a, const LevelInfo& b) {
              return a.level < b.level;
            });
  return breakdown;
}

Status DynamicIndex::CheckInvariants() const {
  State snapshot;
  TransactionId next_gid;
  size_t live_rows;
  size_t deleted_rows;
  {
    MutexLock lock(&mu_);
    snapshot = state_;
    next_gid = next_gid_;
    live_rows = live_rows_;
    deleted_rows = deleted_rows_;
  }
  size_t flagged = 0;
  std::vector<TransactionId> all_gids;
  for (const Part& part : snapshot.components) {
    const DynComponent& component = *part.component;
    if (component.gids.size() != component.rows.size()) {
      return Status::Corruption("component gid map size mismatch");
    }
    if (!std::is_sorted(component.gids.begin(), component.gids.end())) {
      return Status::Corruption("component gids not sorted");
    }
    if (part.deleted != nullptr &&
        part.deleted->size() != component.size()) {
      return Status::Corruption("deleted bitmap does not cover its component");
    }
    flagged += part.deleted_count();
    all_gids.insert(all_gids.end(), component.gids.begin(),
                    component.gids.end());
  }
  const size_t buffered = snapshot.buffer->size();
  for (size_t i = 0; i < buffered; ++i) {
    const TransactionId gid = snapshot.buffer->row(i).gid;
    if (i > 0 && gid <= snapshot.buffer->row(i - 1).gid) {
      return Status::Corruption("buffer gids not ascending");
    }
    all_gids.push_back(gid);
  }
  if (const DeletedRows* deleted = snapshot.buffer_deleted.get()) {
    flagged += deleted->count();
    if (deleted->size() != snapshot.buffer->capacity()) {
      return Status::Corruption("deleted bitmap does not cover the buffer");
    }
    for (size_t i = buffered; i < deleted->size(); ++i) {
      if (deleted->contains(static_cast<TransactionId>(i))) {
        return Status::Corruption("deleted flag on an empty buffer slot");
      }
    }
  }
  std::sort(all_gids.begin(), all_gids.end());
  if (std::adjacent_find(all_gids.begin(), all_gids.end()) !=
      all_gids.end()) {
    return Status::Corruption("gid owned by more than one component");
  }
  if (!all_gids.empty() && all_gids.back() >= next_gid) {
    return Status::Corruption("gid beyond the allocation watermark");
  }
  if (flagged != deleted_rows) {
    return Status::Corruption("deleted-row accounting drifted");
  }
  if (all_gids.size() - flagged != live_rows) {
    return Status::Corruption("live-row accounting drifted");
  }
  return Status::Ok();
}

}  // namespace mbi
