#ifndef MBI_UTIL_DEADLINE_CLOCK_H_
#define MBI_UTIL_DEADLINE_CLOCK_H_

// The time seam for query deadlines, mirroring the storage `Env` seam: all
// wall-clock reads in the query stack flow through a DeadlineClock so tests
// can expire budgets deterministically (ManualClock) instead of sleeping.
//
// This file is also the *only* place allowed to call
// std::chrono::steady_clock::now() directly (mbi-lint rule `no-raw-clock`);
// everything else — metrics timers, stopwatches, retry deadlines — reads
// time through SteadyNowUs() or a DeadlineClock*. Keeping the raw clock
// confined here is what makes every time-dependent behavior mockable.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace mbi {

/// Monotonic wall-clock microseconds since an arbitrary process-local epoch.
/// The single sanctioned raw-clock read; inline so hot-path timers
/// (ScopedTimer, Stopwatch) pay exactly one clock read and no virtual call.
inline double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Mockable monotonic clock. Budget expiry checks call NowUs() through this
/// interface; production code uses Real() (a thin wrapper over
/// SteadyNowUs()), tests inject a ManualClock to script expiry.
///
/// Implementations must be thread-safe: batch queries share one clock across
/// worker threads.
class DeadlineClock {
 public:
  virtual ~DeadlineClock() = default;

  /// Monotonic microseconds. Must never decrease.
  virtual double NowUs() const = 0;

  /// The process-wide real clock (never null, never deleted).
  static const DeadlineClock* Real();
};

/// Deterministic test clock: time advances only when told to (Advance) or,
/// optionally, by a fixed amount per NowUs() read (auto-advance), which lets
/// a single-threaded test walk a query into its deadline after an exact
/// number of budget checks. Thread-safe via a single atomic counter.
class ManualClock : public DeadlineClock {
 public:
  explicit ManualClock(double start_us = 0.0,
                       double auto_advance_us = 0.0)
      : now_half_us_(static_cast<int64_t>(start_us * 2.0)),
        auto_advance_half_us_(static_cast<int64_t>(auto_advance_us * 2.0)) {}

  double NowUs() const override {
    // fetch_add even when auto-advance is zero: one atomic RMW keeps the
    // "read then advance" step indivisible under TSan.
    const int64_t before =
        now_half_us_.fetch_add(auto_advance_half_us_, std::memory_order_relaxed);
    return static_cast<double>(before) / 2.0;
  }

  void AdvanceUs(double delta_us) {
    now_half_us_.fetch_add(static_cast<int64_t>(delta_us * 2.0),
                           std::memory_order_relaxed);
  }

 private:
  // Half-microsecond integer ticks: atomic<double> has no fetch_add until
  // C++20 library support is universal, and half-ticks keep 0.5us
  // auto-advance steps exact.
  mutable std::atomic<int64_t> now_half_us_;
  const int64_t auto_advance_half_us_;
};

}  // namespace mbi

#endif  // MBI_UTIL_DEADLINE_CLOCK_H_
