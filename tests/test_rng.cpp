// Unit tests for the deterministic RNG substrate.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace pcs {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng r(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-2.5, 3.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 3.5);
  }
}

TEST(Rng, UniformIntInBound) {
  Rng r(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const u64 v = r.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIntBoundOne) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(1), 0u);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng r(29);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianShifted) {
  Rng r(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.gaussian(5.0, 0.25);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, GaussianTailProbability) {
  Rng r(37);
  int beyond2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (r.gaussian() > 2.0) ++beyond2;
  }
  // Q(2) ~ 0.02275.
  EXPECT_NEAR(static_cast<double>(beyond2) / n, 0.02275, 0.002);
}

TEST(Rng, NoShortCycles) {
  Rng r(47);
  std::set<u64> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(r.next_u64());
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace pcs
