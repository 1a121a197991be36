#include "util/rng.h"

#include <cmath>

#include "util/macros.h"

namespace mbi {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  MBI_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of `bound` that fits.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t value = NextUint64();
    if (value >= threshold) return value % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  MBI_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

int Rng::Poisson(double mean) {
  MBI_CHECK(mean > 0.0);
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    double product = 1.0;
    int count = -1;
    do {
      ++count;
      product *= UniformDouble();
    } while (product > limit);
    return count;
  }
  // Large mean: normal approximation with continuity correction is adequate
  // for the generator's use (transaction / itemset sizes), clamped at zero.
  double value = Normal(mean, std::sqrt(mean));
  return value < 0.0 ? 0 : static_cast<int>(value + 0.5);
}

double Rng::Exponential(double mean) {
  MBI_CHECK(mean > 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

int Rng::Geometric(double p) {
  MBI_CHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return static_cast<int>(std::floor(std::log(u) / std::log1p(-p)));
}

double Rng::StandardNormal() {
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * StandardNormal();
}

}  // namespace mbi
