#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace mbi {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, CopyForksTheStream) {
  Rng a(77);
  a.NextUint64();
  Rng b = a;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, UniformUint64StaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

TEST(RngTest, UniformUint64CoversRangeRoughlyUniformly) {
  Rng rng(5);
  std::vector<int> histogram(8, 0);
  constexpr int kDraws = 80'000;
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.UniformUint64(8)];
  for (int count : histogram) {
    EXPECT_NEAR(count, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t value = rng.UniformInt(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= (value == -3);
    saw_hi |= (value == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 50'000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 50'000, 0.5, 0.01);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 50'000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 50'000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PoissonMeanAndVariance) {
  Rng rng(19);
  constexpr int kDraws = 50'000;
  for (double mean : {2.0, 10.0, 45.0}) {
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      int value = rng.Poisson(mean);
      EXPECT_GE(value, 0);
      sum += value;
      sum_sq += static_cast<double>(value) * value;
    }
    double sample_mean = sum / kDraws;
    double sample_var = sum_sq / kDraws - sample_mean * sample_mean;
    EXPECT_NEAR(sample_mean, mean, mean * 0.05) << "mean " << mean;
    EXPECT_NEAR(sample_var, mean, mean * 0.15) << "mean " << mean;
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    double value = rng.Exponential(2.5);
    EXPECT_GE(value, 0.0);
    sum += value;
  }
  EXPECT_NEAR(sum / kDraws, 2.5, 0.1);
}

TEST(RngTest, GeometricMean) {
  Rng rng(29);
  // Failures before first success: mean (1-p)/p.
  const double p = 0.4;
  double sum = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    int value = rng.Geometric(p);
    EXPECT_GE(value, 0);
    sum += value;
  }
  EXPECT_NEAR(sum / kDraws, (1 - p) / p, 0.05);
  EXPECT_EQ(rng.Geometric(1.0), 0);
}

TEST(RngTest, NormalMoments) {
  Rng rng(31);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) {
    double value = rng.Normal(3.0, 2.0);
    sum += value;
    sum_sq += value * value;
  }
  double mean = sum / kDraws;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / kDraws - mean * mean), 2.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

}  // namespace
}  // namespace mbi
