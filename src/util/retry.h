#ifndef MBI_UTIL_RETRY_H_
#define MBI_UTIL_RETRY_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "util/deadline_clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace mbi {

/// Policy for retrying transient (kUnavailable) failures with bounded
/// exponential backoff. Delays double per attempt from `initial_backoff_ms`
/// up to `max_backoff_ms`, then get a multiplicative jitter drawn from the
/// caller's seeded Rng — so a whole retry schedule is reproducible
/// bit-for-bit from the seed, which the durability tests rely on.
struct RetryOptions {
  /// Total tries, including the first one. 1 disables retrying.
  int max_attempts = 6;
  double initial_backoff_ms = 0.2;
  double max_backoff_ms = 20.0;
  /// Delay is scaled by a uniform factor in [1 - jitter, 1 + jitter].
  double jitter = 0.5;
  /// Test seam: when set, called with the computed delay instead of actually
  /// sleeping (durability tests run a whole backoff schedule in microseconds
  /// and assert on the delays it would have used).
  std::function<void(double)> sleep_ms;
  /// Absolute give-up point on the DeadlineClock timeline (microseconds),
  /// mirroring QueryBudget::deadline_us (util cannot see core's QueryBudget,
  /// so callers copy the field: `retry.deadline_us = budget.deadline_us`).
  /// Every backoff sleep — including a server-supplied retry_after_ms hint —
  /// is clamped to the time remaining, and once the deadline has passed no
  /// further attempt is made: a retry must never sleep past the budget that
  /// is paying for it. +inf (the default) disables the clamp.
  double deadline_us = std::numeric_limits<double>::infinity();
  /// Clock the deadline is measured against. Null means the process-wide
  /// real clock; tests inject a ManualClock to script expiry.
  const DeadlineClock* clock = nullptr;
};

/// Computed delay before attempt `next_attempt` (1-based: the delay between
/// the first failure and the second try has next_attempt == 1). Draws one
/// value from `rng` for the jitter; `rng` may be null for the deterministic
/// un-jittered delay.
double BackoffDelayMs(const RetryOptions& options, int next_attempt, Rng* rng);

/// Blocks the calling thread for `ms` milliseconds.
void SleepForMs(double ms);

/// Parses a server-supplied retry-after hint out of a status message. By
/// convention an overloaded component rejects with kUnavailable and appends
/// "retry_after_ms=<float>" to the message (DynamicIndex::Insert does under
/// backpressure); this returns that value, or 0 when the status carries no
/// hint (so callers can always take max(backoff, hint)).
double RetryAfterHintMs(const Status& status);

/// What one RetryTransient call did, for instrumentation: how many times the
/// body ran and how long the schedule (would have) slept. The Env layer
/// aggregates these into the mbi.env.* metrics.
struct RetryStats {
  /// Times `fn` was invoked (1 = first try succeeded or failed terminally).
  int attempts = 0;
  /// Total backoff delay between attempts, in milliseconds (the computed
  /// schedule, whether slept for real or through the test seam).
  double backoff_ms = 0.0;
};

/// Runs `fn` (returning Status) up to `options.max_attempts` times, sleeping
/// between attempts, until it returns anything other than kUnavailable.
/// Every other code — success, corruption, ENOSPC — is returned immediately:
/// only transient faults are worth paying latency for. When the kUnavailable
/// status carries a retry_after_ms hint (RetryAfterHintMs), the delay before
/// the next attempt is max(backoff, hint): the server knows how long its
/// queue is, the client knows how often it has already failed. Both the
/// backoff and the hint are then clamped to what remains of
/// `options.deadline_us` — an overloaded server may ask for a 5-second
/// nap, but a caller with 10ms of budget left sleeps 10ms and, if the
/// retry still fails, gives up rather than queueing behind a deadline it
/// has already blown. When `stats` is non-null it is overwritten with this
/// call's attempt/backoff accounting.
template <typename Fn>
Status RetryTransient(const RetryOptions& options, Rng* rng, Fn&& fn,
                      RetryStats* stats = nullptr) {
  if (stats != nullptr) *stats = RetryStats{};
  const bool deadline_limited =
      options.deadline_us != std::numeric_limits<double>::infinity();
  const DeadlineClock* clock =
      options.clock != nullptr ? options.clock : DeadlineClock::Real();
  Status status = fn();
  if (stats != nullptr) ++stats->attempts;
  for (int attempt = 1;
       !status.ok() && status.code() == StatusCode::kUnavailable &&
       attempt < options.max_attempts;
       ++attempt) {
    double delay_ms = std::max(BackoffDelayMs(options, attempt, rng),
                               RetryAfterHintMs(status));
    if (deadline_limited) {
      const double remaining_ms =
          (options.deadline_us - clock->NowUs()) / 1000.0;
      // Deadline already blown: another attempt could not be served in
      // time, so surface the transient failure instead of retrying late.
      if (remaining_ms <= 0.0) return status;
      delay_ms = std::min(delay_ms, remaining_ms);
    }
    if (stats != nullptr) stats->backoff_ms += delay_ms;
    if (options.sleep_ms) {
      options.sleep_ms(delay_ms);
    } else {
      SleepForMs(delay_ms);
    }
    status = fn();
    if (stats != nullptr) ++stats->attempts;
  }
  return status;
}

}  // namespace mbi

#endif  // MBI_UTIL_RETRY_H_
