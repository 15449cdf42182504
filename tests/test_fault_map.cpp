// Unit tests for the compressed multi-VDD fault map.
#include "fault/fault_map.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/cell_fault_field.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

const std::vector<Volt> kLevels = {0.6, 0.7, 1.0};

FaultMap map_from(std::vector<float> vf) {
  return FaultMap(kLevels, std::span<const float>(vf));
}

TEST(FaultMap, CodesEncodeLowestNonFaultyLevel) {
  // Block fail voltages: never faulty, faulty at L1 only, at L1+L2, at all.
  const auto m = map_from({0.1f, 0.6f, 0.75f, 1.5f});
  EXPECT_EQ(m.code(0), 0);
  EXPECT_EQ(m.code(1), 1);
  EXPECT_EQ(m.code(2), 2);
  EXPECT_EQ(m.code(3), 3);
}

TEST(FaultMap, BoundaryVoltageIsFaulty) {
  // A block with Vf exactly at a level voltage is faulty at that level
  // (cells fail at V <= Vf).
  const auto m = map_from({0.7f});
  EXPECT_TRUE(m.faulty_at(0, 2));
  EXPECT_TRUE(m.faulty_at(0, 1));
  EXPECT_FALSE(m.faulty_at(0, 3));
}

TEST(FaultMap, InclusionPropertyHolds) {
  Rng rng(1);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 4096, 512, rng);
  const FaultMap m(kLevels, field.fail_voltages());
  for (u64 b = 0; b < m.num_blocks(); ++b) {
    for (u32 level = 2; level <= m.num_levels(); ++level) {
      if (m.faulty_at(b, level)) {
        EXPECT_TRUE(m.faulty_at(b, level - 1))
            << "inclusion violated at block " << b << " level " << level;
      }
    }
  }
}

TEST(FaultMap, FaultyCountsAndCapacity) {
  const auto m = map_from({0.1f, 0.6f, 0.75f, 1.5f});
  EXPECT_EQ(m.faulty_count(1), 3u);
  EXPECT_EQ(m.faulty_count(2), 2u);
  EXPECT_EQ(m.faulty_count(3), 1u);
  EXPECT_NEAR(m.effective_capacity(1), 0.25, 1e-12);
  EXPECT_NEAR(m.effective_capacity(3), 0.75, 1e-12);
}

TEST(FaultMap, CapacityMonotoneInLevel) {
  Rng rng(2);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 8192, 512, rng);
  const FaultMap m(kLevels, field.fail_voltages());
  for (u32 level = 2; level <= m.num_levels(); ++level) {
    EXPECT_GE(m.effective_capacity(level), m.effective_capacity(level - 1));
  }
}

TEST(FaultMap, ViabilityRequiresOneGoodBlockPerSet) {
  // 2 sets x 2 ways. Set 0: both faulty at level 1 -> not viable at level 1.
  const auto m = map_from({0.65f, 0.62f, 0.1f, 0.1f});
  EXPECT_FALSE(m.viable(2, 1));
  EXPECT_TRUE(m.viable(2, 2));
  EXPECT_TRUE(m.viable(2, 3));
}

TEST(FaultMap, LowestViableLevelWithCapacity) {
  // 4 blocks, 1 faulty at level 1 => capacity(1) = 0.75.
  const auto m = map_from({0.6f, 0.1f, 0.1f, 0.1f});
  EXPECT_EQ(m.lowest_level_with_capacity(2, 0.99), 2u);
  EXPECT_EQ(m.lowest_level_with_capacity(2, 0.75), 1u);
}

TEST(FaultMap, LowestViableLevelZeroWhenImpossible) {
  // Both blocks of the single set faulty even at nominal.
  const auto m = map_from({2.0f, 2.0f});
  EXPECT_EQ(m.lowest_level_with_capacity(2, 0.5), 0u);
}

TEST(FaultMap, FmBitsForLevels) {
  // N levels need ceil(log2(N+1)) bits: the paper's N=3 -> 2 bits.
  EXPECT_EQ(FaultMap::fm_bits_for_levels(1), 1u);
  EXPECT_EQ(FaultMap::fm_bits_for_levels(2), 2u);
  EXPECT_EQ(FaultMap::fm_bits_for_levels(3), 2u);
  EXPECT_EQ(FaultMap::fm_bits_for_levels(4), 3u);
  EXPECT_EQ(FaultMap::fm_bits_for_levels(7), 3u);
  EXPECT_EQ(FaultMap::fm_bits_for_levels(8), 4u);
}

TEST(FaultMap, StorageBitsIncludeFaultyBit) {
  const auto m = map_from({0.1f, 0.1f, 0.1f, 0.1f});
  // 3 levels -> 2 FM bits + 1 Faulty bit per block.
  EXPECT_EQ(m.storage_bits(), 4u * 3u);
}

TEST(FaultMap, RejectsBadLevels) {
  std::vector<float> vf = {0.1f};
  EXPECT_THROW(FaultMap({}, std::span<const float>(vf)),
               std::invalid_argument);
  EXPECT_THROW(FaultMap({0.7, 0.6}, std::span<const float>(vf)),
               std::invalid_argument);
  EXPECT_THROW(FaultMap({0.7, 0.7}, std::span<const float>(vf)),
               std::invalid_argument);
}

TEST(FaultMap, LevelVddAccessors) {
  const auto m = map_from({0.1f});
  EXPECT_EQ(m.num_levels(), 3u);
  EXPECT_EQ(m.level_vdd(1), 0.6);
  EXPECT_EQ(m.level_vdd(3), 1.0);
}

TEST(FaultMap, AgreesWithFieldCounts) {
  Rng rng(3);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 4096, 512, rng);
  const FaultMap m(kLevels, field.fail_voltages());
  for (u32 level = 1; level <= 3; ++level) {
    EXPECT_EQ(m.faulty_count(level), field.faulty_count(kLevels[level - 1]));
  }
}

TEST(FaultMap, RejectsMoreLevelsThanItsCodesHold) {
  // 300 levels once wrapped a code of 299 to 43, so a block faulty at the
  // operating point looked usable there.
  std::vector<Volt> levels(256);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i] = 0.4 + 0.001 * static_cast<double>(i);
  }
  const std::vector<float> vf = {0.3f, 0.9f};
  const BerModel ber(Technology::soi45());
  Rng rng(1);
  EXPECT_THROW(FaultMap(levels, std::span<const float>(vf)),
               std::invalid_argument);
  EXPECT_THROW(FaultMap::sample(levels, ber, 64, 512, 4, rng),
               std::invalid_argument);
  levels.pop_back();  // 255 levels: the most a u8 code holds
  const FaultMap m(levels, std::span<const float>(vf));
  EXPECT_EQ(m.code(0), 0);
  EXPECT_EQ(m.code(1), 255);
  EXPECT_EQ(m.faulty_count(255), 1u);
}

}  // namespace
}  // namespace pcs
