#ifndef MBI_UTIL_RNG_H_
#define MBI_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mbi {

/// Deterministic pseudo-random number generator (xoshiro256** seeded through
/// splitmix64) with the sampling primitives needed by the synthetic data
/// generator of Aggarwal, Wolf & Yu (SIGMOD 1999), Section 5.
///
/// All randomness in this repository flows through this class so that every
/// experiment is reproducible bit-for-bit from its seed. The generator is
/// copyable: copying forks the stream (both copies produce the same future
/// values), which tests use to replay sequences.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. Any seed value is acceptable;
  /// splitmix64 whitens it into the full 256-bit state.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t NextUint64();

  /// Returns a uniform integer in `[0, bound)`. `bound` must be positive.
  /// Uses rejection sampling, so the result is exactly uniform.
  uint64_t UniformUint64(uint64_t bound);

  /// Returns a uniform integer in `[lo, hi]` (inclusive). Requires `lo <= hi`.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in `[0, 1)` with 53 bits of precision.
  double UniformDouble();

  /// Returns true with probability `p` (clamped to `[0, 1]`).
  bool Bernoulli(double p);

  /// Samples a Poisson random variable with the given mean (`mean > 0`).
  /// Uses Knuth's product method for small means and PTRS transformed
  /// rejection for large means, so it is safe for any mean the generator uses.
  int Poisson(double mean);

  /// Samples an exponential random variable with the given mean (`mean > 0`).
  double Exponential(double mean);

  /// Samples a geometric random variable counting the number of failures
  /// before the first success, success probability `p` in (0, 1]. Returns 0
  /// when `p == 1`.
  int Geometric(double p);

  /// Samples a standard normal via Box-Muller (no state caching, both values
  /// derived on demand).
  double StandardNormal();

  /// Samples a normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

 private:
  uint64_t state_[4];
};

}  // namespace mbi

#endif  // MBI_UTIL_RNG_H_
