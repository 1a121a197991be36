#include "util/status.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "storage/fault_injector.h"
#include "util/crc32c.h"
#include "util/deadline_clock.h"
#include "util/retry.h"
#include "util/rng.h"

namespace mbi {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status corrupt = Status::Corruption("index.mbst: bad section");
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kCorruption);
  EXPECT_EQ(corrupt.message(), "index.mbst: bad section");
  EXPECT_EQ(corrupt.ToString(), "corruption: index.mbst: bad section");

  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NoSpace("x").code(), StatusCode::kNoSpace);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FromCode(StatusCode::kNoSpace, "disk full").ToString(),
            "no space: disk full");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_TRUE(value.status().ok());

  StatusOr<int> error(Status::NotFound("missing"));
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, SupportsMoveOnlyPayloads) {
  StatusOr<std::unique_ptr<int>> boxed(std::make_unique<int>(7));
  ASSERT_TRUE(boxed.ok());
  EXPECT_EQ(**boxed, 7);
  std::unique_ptr<int> taken = std::move(boxed).value();
  EXPECT_EQ(*taken, 7);
}

Status FailAt(int fail_step, int step) {
  if (step == fail_step) return Status::IoError("step " + std::to_string(step));
  return Status::Ok();
}

Status RunSteps(int fail_step) {
  MBI_RETURN_IF_ERROR(FailAt(fail_step, 0));
  MBI_RETURN_IF_ERROR(FailAt(fail_step, 1));
  return Status::Ok();
}

StatusOr<int> Double(StatusOr<int> input) {
  MBI_ASSIGN_OR_RETURN(int value, std::move(input));
  return value * 2;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(RunSteps(-1).ok());
  EXPECT_EQ(RunSteps(0).message(), "step 0");
  EXPECT_EQ(RunSteps(1).message(), "step 1");
}

TEST(StatusMacrosTest, AssignOrReturnUnwrapsAndPropagates) {
  auto doubled = Double(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(*doubled, 42);
  auto failed = Double(Status::Corruption("bad"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
}

// --- CRC32C ------------------------------------------------------------

TEST(Crc32cTest, MatchesKnownVectors) {
  // The canonical CRC-32C check value, shared with iSCSI / LevelDB.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes, from RFC 3720 appendix B.4.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendEqualsOneShot) {
  const char* data = "durable artifact payload bytes";
  const size_t size = std::strlen(data);
  for (size_t split = 0; split <= size; ++split) {
    uint32_t prefix = Crc32c(data, split);
    EXPECT_EQ(Crc32cExtend(prefix, data + split, size - split),
              Crc32c(data, size))
        << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    for (uint32_t bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(data.data(), data.size()), clean)
          << "missed flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

// --- Retry / backoff ---------------------------------------------------

TEST(RetryTest, BackoffDoublesAndCaps) {
  RetryOptions options;
  options.initial_backoff_ms = 1.0;
  options.max_backoff_ms = 8.0;
  options.jitter = 0.0;
  EXPECT_DOUBLE_EQ(BackoffDelayMs(options, 1, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(options, 2, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(options, 3, nullptr), 4.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(options, 4, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelayMs(options, 9, nullptr), 8.0);  // capped
}

TEST(RetryTest, JitterIsDeterministicPerSeed) {
  RetryOptions options;
  Rng rng_a(77), rng_b(77), rng_c(78);
  std::vector<double> a, b, c;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    a.push_back(BackoffDelayMs(options, attempt, &rng_a));
    b.push_back(BackoffDelayMs(options, attempt, &rng_b));
    c.push_back(BackoffDelayMs(options, attempt, &rng_c));
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (int attempt = 0; attempt < 5; ++attempt) {
    // Jitter keeps every delay within [1 - j, 1 + j] of the base schedule.
    double base = BackoffDelayMs(options, attempt + 1, nullptr);
    EXPECT_GE(a[static_cast<size_t>(attempt)],
              base * (1.0 - options.jitter));
    EXPECT_LE(a[static_cast<size_t>(attempt)],
              base * (1.0 + options.jitter));
  }
}

TEST(RetryTest, RetriesOnlyUnavailable) {
  RetryOptions options;
  options.max_attempts = 5;
  int slept = 0;
  options.sleep_ms = [&slept](double) { ++slept; };

  int calls = 0;
  Status status = RetryTransient(options, nullptr, [&calls] {
    ++calls;
    if (calls < 3) return Status::Unavailable("EAGAIN");
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept, 2);

  calls = 0;
  status = RetryTransient(options, nullptr, [&calls] {
    ++calls;
    return Status::Corruption("permanent");
  });
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);  // non-transient codes are never retried
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  RetryOptions options;
  options.max_attempts = 4;
  options.sleep_ms = [](double) {};
  int calls = 0;
  Status status = RetryTransient(options, nullptr, [&calls] {
    ++calls;
    return Status::Unavailable("still busy");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RetryAfterHintTest, ParsesShedStatusesAndRejectsGarbage) {
  EXPECT_DOUBLE_EQ(
      RetryAfterHintMs(Status::Unavailable("queue full; retry_after_ms=12.5")),
      12.5);
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(Status::Unavailable("no hint here")), 0.0);
  EXPECT_DOUBLE_EQ(
      RetryAfterHintMs(Status::Unavailable("retry_after_ms=bogus")), 0.0);
  EXPECT_DOUBLE_EQ(RetryAfterHintMs(Status::Unavailable("retry_after_ms=-4")),
                   0.0);
  // A mangled hint must not turn into a surprise multi-minute sleep.
  EXPECT_DOUBLE_EQ(
      RetryAfterHintMs(Status::Unavailable("retry_after_ms=9000000")), 0.0);
}

TEST(RetryTest, RetryAfterHintIsClampedToRemainingDeadline) {
  // Regression for the oversleep bug: an overloaded server's retry_after_ms
  // hint used to be honored verbatim, so a caller with 10ms of budget left
  // could be parked for a 50ms nap. The hint (and the backoff) must be
  // clamped to what remains of the caller's deadline.
  ManualClock clock(1'000.0);  // now = 1000us
  RetryOptions options;
  options.max_attempts = 3;
  options.jitter = 0.0;
  options.initial_backoff_ms = 0.5;
  options.clock = &clock;
  options.deadline_us = 11'000.0;  // 10ms remaining
  std::vector<double> slept;
  options.sleep_ms = [&slept](double ms) { slept.push_back(ms); };

  RetryStats stats;
  Status status = RetryTransient(
      options, nullptr,
      [] { return Status::Unavailable("shed; retry_after_ms=50"); }, &stats);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ASSERT_FALSE(slept.empty());
  for (double ms : slept) {
    EXPECT_LE(ms, 10.0) << "slept past the caller's deadline";
  }
  EXPECT_DOUBLE_EQ(slept.front(), 10.0);  // min(hint=50, remaining=10)
  EXPECT_EQ(stats.attempts, options.max_attempts);
  EXPECT_LE(stats.backoff_ms, 10.0 * (options.max_attempts - 1));
}

TEST(RetryTest, StopsRetryingOncePastTheDeadline) {
  // An expired deadline means another attempt cannot be served in time:
  // the transient failure surfaces immediately, with zero sleeps.
  ManualClock clock(5'000.0);
  RetryOptions options;
  options.max_attempts = 6;
  options.clock = &clock;
  options.deadline_us = 4'000.0;  // already in the past
  int slept = 0;
  options.sleep_ms = [&slept](double) { ++slept; };

  int calls = 0;
  Status status = RetryTransient(options, nullptr, [&calls] {
    ++calls;
    return Status::Unavailable("busy; retry_after_ms=5");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 1);  // the mandatory first try, nothing after
  EXPECT_EQ(slept, 0);
}

TEST(RetryTest, UnlimitedDeadlineKeepsHonoringTheHint) {
  // Without a deadline the pre-existing contract holds: delay is
  // max(backoff, hint), uncapped by any clock.
  RetryOptions options;
  options.max_attempts = 2;
  options.jitter = 0.0;
  options.initial_backoff_ms = 1.0;
  std::vector<double> slept;
  options.sleep_ms = [&slept](double ms) { slept.push_back(ms); };

  Status status = RetryTransient(options, nullptr, [] {
    return Status::Unavailable("shed; retry_after_ms=25");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_DOUBLE_EQ(slept.front(), 25.0);
}

// --- FaultInjector spec parsing ----------------------------------------

TEST(FaultInjectorSpecTest, ParsesEveryKind) {
  auto injector = FaultInjector::FromSpec(
      "fail_write=3;nospace_write=5;torn_write=7:16;flip_bit=100:4;"
      "transient_write=2:3;fail_open=1;fail_rename=1;seed=42");
  ASSERT_TRUE(injector.ok()) << injector.status().ToString();
  EXPECT_EQ((*injector)->seed(), 42u);
}

TEST(FaultInjectorSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"bogus=1", "fail_write", "fail_write=", "fail_write=abc",
        "torn_write=3", "flip_bit=5", "transient_write=1:2:3", ";;=;"}) {
    auto injector = FaultInjector::FromSpec(bad);
    EXPECT_FALSE(injector.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(injector.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FaultInjectorSpecTest, EmptySpecIsCleanInjector) {
  auto injector = FaultInjector::FromSpec("");
  ASSERT_TRUE(injector.ok());
  auto outcome = (*injector)->OnWrite("f", 0, "abc", 3);
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.prefix, 3u);
}

}  // namespace
}  // namespace mbi
