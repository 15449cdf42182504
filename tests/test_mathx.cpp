// Unit tests for the numerical helpers (Q-function, binomials, stable pows).
#include "util/mathx.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pcs {
namespace {

TEST(QFunction, KnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-5);
  EXPECT_NEAR(q_function(2.0), 0.0227501, 1e-6);
  EXPECT_NEAR(q_function(3.0), 1.349898e-3, 1e-8);
  EXPECT_NEAR(q_function(6.0), 9.8659e-10, 1e-13);
}

TEST(QFunction, Symmetry) {
  for (double x : {0.1, 0.5, 1.3, 2.7}) {
    EXPECT_NEAR(q_function(x) + q_function(-x), 1.0, 1e-12);
  }
}

TEST(QFunction, Monotone) {
  double prev = 1.0;
  for (double x = -5.0; x <= 8.0; x += 0.25) {
    const double q = q_function(x);
    EXPECT_LT(q, prev);
    prev = q;
  }
}

class InvQRoundtrip : public ::testing::TestWithParam<double> {};

TEST_P(InvQRoundtrip, QOfInvQIsIdentity) {
  const double p = GetParam();
  const double x = inv_q_function(p);
  EXPECT_NEAR(q_function(x), p, p * 1e-9 + 1e-300);
}

INSTANTIATE_TEST_SUITE_P(TailSweep, InvQRoundtrip,
                         ::testing::Values(0.5, 0.1, 1e-2, 1e-3, 1e-5, 1e-7,
                                           1e-9, 1e-12, 1e-15, 0.9, 0.99));

TEST(InvQ, Extremes) {
  EXPECT_TRUE(std::isinf(inv_q_function(0.0)));
  EXPECT_TRUE(std::isinf(inv_q_function(1.0)));
  EXPECT_GT(inv_q_function(0.0), 0.0);
  EXPECT_LT(inv_q_function(1.0), 0.0);
}

TEST(InvQ, KnownQuantiles) {
  EXPECT_NEAR(inv_q_function(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inv_q_function(0.0227501), 2.0, 1e-5);
}

TEST(PowOneMinus, MatchesDirectForModerateP) {
  EXPECT_NEAR(pow_one_minus(0.1, 10), std::pow(0.9, 10), 1e-12);
  EXPECT_NEAR(pow_one_minus(0.5, 3), 0.125, 1e-12);
}

TEST(PowOneMinus, Extremes) {
  EXPECT_EQ(pow_one_minus(0.0, 1000), 1.0);
  EXPECT_EQ(pow_one_minus(1.0, 5), 0.0);
  EXPECT_EQ(pow_one_minus(1.0, 0), 1.0);
}

TEST(OneMinusPow, TinyPLargeN) {
  // 1 - (1-1e-12)^1e6 ~ 1e-6: catastrophic cancellation if done naively.
  const double v = one_minus_pow(1e-12, 1e6);
  EXPECT_NEAR(v, 1e-6, 1e-11);
}

TEST(OneMinusPow, ComplementsPowOneMinus) {
  for (double p : {1e-9, 1e-4, 0.01, 0.3}) {
    for (double n : {1.0, 512.0, 1e5}) {
      EXPECT_NEAR(one_minus_pow(p, n) + pow_one_minus(p, n), 1.0, 1e-12);
    }
  }
}

TEST(BinomialPmf, SumsToOne) {
  for (double p : {0.01, 0.3, 0.77}) {
    double sum = 0.0;
    for (unsigned k = 0; k <= 22; ++k) sum += binomial_pmf(22, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(BinomialPmf, KnownValues) {
  EXPECT_NEAR(binomial_pmf(4, 2, 0.5), 0.375, 1e-12);
  EXPECT_NEAR(binomial_pmf(10, 0, 0.1), std::pow(0.9, 10), 1e-12);
  EXPECT_EQ(binomial_pmf(5, 6, 0.4), 0.0);
}

TEST(BinomialPmf, DegenerateP) {
  EXPECT_EQ(binomial_pmf(8, 0, 0.0), 1.0);
  EXPECT_EQ(binomial_pmf(8, 3, 0.0), 0.0);
  EXPECT_EQ(binomial_pmf(8, 8, 1.0), 1.0);
  EXPECT_EQ(binomial_pmf(8, 7, 1.0), 0.0);
}

TEST(BinomialCdf, Monotone) {
  double prev = 0.0;
  for (unsigned k = 0; k <= 16; ++k) {
    const double c = binomial_cdf(16, k, 0.2);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

TEST(BinomialCdf, KAtLeastNIsOne) {
  EXPECT_EQ(binomial_cdf(5, 5, 0.3), 1.0);
  EXPECT_EQ(binomial_cdf(5, 9, 0.3), 1.0);
}

}  // namespace
}  // namespace pcs
