// Unit tests for the analytical yield model, cross-checked against
// Monte-Carlo manufacturing.
#include "fault/yield_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "fault/cell_fault_field.hpp"
#include "fault/fault_map.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

YieldModel model_for(const CacheOrg& org) {
  return YieldModel(BerModel(Technology::soi45()), org);
}

TEST(YieldModel, NearPerfectAtNominal) {
  const auto m = model_for({64 * 1024, 4, 64, 31});
  EXPECT_GT(m.yield(1.0), 0.999999);
  EXPECT_GT(m.expected_capacity(1.0), 0.999999);
}

TEST(YieldModel, YieldMonotoneInVdd) {
  const auto m = model_for({64 * 1024, 4, 64, 31});
  double prev = -1.0;
  for (Volt v = 0.40; v <= 1.0; v += 0.02) {
    const double y = m.yield(v);
    EXPECT_GE(y, prev - 1e-12);
    prev = y;
  }
}

TEST(YieldModel, CapacityMonotoneInVdd) {
  const auto m = model_for({2 * 1024 * 1024, 8, 64, 31});
  double prev = -1.0;
  for (Volt v = 0.40; v <= 1.0; v += 0.02) {
    const double c = m.expected_capacity(v);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

TEST(YieldModel, ConventionalYieldCollapsesFirst) {
  // A cache with no fault tolerance dies on the first faulty block, so its
  // yield curve must sit at or below the PCS set-constrained yield.
  const auto m = model_for({64 * 1024, 4, 64, 31});
  for (Volt v = 0.5; v <= 1.0; v += 0.05) {
    EXPECT_LE(m.conventional_yield(v), m.yield(v) + 1e-12);
  }
}

TEST(YieldModel, HigherAssocLowersMinVdd) {
  // Paper section 3.1: higher associativity naturally results in lower
  // min-VDD under the set constraint.
  const auto m4 = model_for({64 * 1024, 4, 64, 31});
  const auto m8 = model_for({64 * 1024, 8, 64, 31});
  const Volt v4 = m4.min_vdd(0.99, 0.3, 1.0, 0.01);
  const Volt v8 = m8.min_vdd(0.99, 0.3, 1.0, 0.01);
  EXPECT_LT(v8, v4);
}

TEST(YieldModel, SmallerBlocksLowerMinVdd) {
  const auto m64 = model_for({64 * 1024, 4, 64, 31});
  const auto m32 = model_for({64 * 1024, 4, 32, 31});
  EXPECT_LE(m32.min_vdd(0.99, 0.3, 1.0, 0.01),
            m64.min_vdd(0.99, 0.3, 1.0, 0.01));
}

TEST(YieldModel, MinVddSatisfiesTarget) {
  const auto m = model_for({256 * 1024, 8, 64, 31});
  const Volt v = m.min_vdd(0.99, 0.3, 1.0, 0.01);
  EXPECT_GE(m.yield(v), 0.99);
  // One step below must violate the target (v is minimal), unless v is the
  // floor already.
  if (v > 0.301) {
    EXPECT_LT(m.yield(v - 0.01), 0.99);
  }
}

TEST(YieldModel, CapacityRuleBindsAtSpcsPoint) {
  const auto m = model_for({64 * 1024, 4, 64, 31});
  const Volt v = m.min_vdd_for_capacity(0.99, 0.99, 0.3, 1.0, 0.01);
  EXPECT_GE(m.expected_capacity(v), 0.99);
  EXPECT_GE(m.yield(v), 0.99);
  if (v > 0.301) {
    const Volt below = v - 0.01;
    EXPECT_TRUE(m.expected_capacity(below) < 0.99 || m.yield(below) < 0.99);
  }
}

TEST(YieldModel, SpcsPointNearPaperValue) {
  // The paper's Table 2 shows VDD2 ~ 0.7 V for these organisations.
  for (CacheOrg org : {CacheOrg{64 * 1024, 4, 64, 31},
                       CacheOrg{2 * 1024 * 1024, 8, 64, 31}}) {
    const auto m = model_for(org);
    const Volt v = m.min_vdd_for_capacity(0.99, 0.99, 0.3, 1.0, 0.01);
    EXPECT_NEAR(v, 0.70, 0.03);
  }
}

TEST(YieldModel, MonteCarloAgreesOnSetYield) {
  // Manufacture many small caches and compare the fraction whose every set
  // keeps a good block against the analytical yield.
  const CacheOrg org{8 * 1024, 4, 64, 31};  // 32 sets, 128 blocks
  const auto m = model_for(org);
  const Volt v = 0.55;
  const double predicted = m.yield(v);
  ASSERT_GT(predicted, 0.05);
  ASSERT_LT(predicted, 0.995);

  Rng rng(11);
  BerModel ber(Technology::soi45());
  const int chips = 3000;
  int ok = 0;
  for (int c = 0; c < chips; ++c) {
    const auto field = CellFaultField::sample_fast(ber, org.num_blocks(),
                                                   org.bits_per_block(), rng);
    const FaultMap map({v, 1.0}, field.fail_voltages());
    if (map.viable(org.assoc, 1)) ++ok;
  }
  const double measured = static_cast<double>(ok) / chips;
  const double se = std::sqrt(predicted * (1 - predicted) / chips);
  EXPECT_NEAR(measured, predicted, 5.0 * se + 0.01);
}

TEST(YieldModel, BlockFailProbMatchesBerModel) {
  const CacheOrg org{64 * 1024, 4, 64, 31};
  const auto m = model_for(org);
  BerModel ber(Technology::soi45());
  EXPECT_NEAR(m.block_fail_prob(0.7), ber.block_fail_prob(0.7, 512), 1e-15);
}

TEST(YieldModel, GridSearchReturnsNominalWhenImpossible) {
  // Demanding 100%+ yield is unmeetable; the search tops out at nominal.
  const auto m = model_for({64 * 1024, 4, 64, 31});
  EXPECT_EQ(m.min_vdd(1.1, 0.3, 1.0, 0.01), 1.0);
}

}  // namespace
}  // namespace pcs
