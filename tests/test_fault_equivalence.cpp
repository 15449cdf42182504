// Differential tests pinning the batched/word-parallel fault pipeline
// bit-identical to the retained scalar references.
//
// The fast paths (Rng block draws + batched sampling chain, histogram
// fault-map build with the O(1) viability summary, word-parallel March SS)
// must agree with their *_reference counterparts to the last bit: same
// output bytes, same draw counts, same RNG state afterwards. Randomized
// over sizes, associativities, and every VDD level count Table 2 uses, so a
// divergence anywhere in the chain shows up as a concrete mismatch here
// before it can silently shift a figure. The fault maps the system builders
// manufacture from draws (FaultMap::sample) are pinned the same way to the
// maps of sample_fast's fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/vdd_levels.hpp"
#include "fault/ber_model.hpp"
#include "fault/bist.hpp"
#include "fault/cell_fault_field.hpp"
#include "fault/fault_map.hpp"
#include "fault/rung_cuts.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"
#include "util/mathx.hpp"
#include "util/vecmath.hpp"

namespace pcs {
namespace {

bool same_float_bits(float a, float b) {
  u32 ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

void expect_rng_state_identical(Rng& a, Rng& b) {
  // Indirect state probe: identical internal state iff the next draws agree.
  for (int i = 0; i < 8; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngBlocks, UniformBlockMatchesScalarSequence) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
    Rng a(42), b(42);
    std::vector<double> block(n), scalar(n);
    a.uniform_block(std::span<double>(block));
    for (double& v : scalar) v = b.uniform();
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(block[i], scalar[i]);
    expect_rng_state_identical(a, b);
  }
}

TEST(RngBlocks, GaussianBlockMatchesScalarSequence) {
  // Odd/even lengths and back-to-back calls exercise the cached Box-Muller
  // deviate carrying across block boundaries.
  for (std::size_t n : {0u, 1u, 2u, 3u, 64u, 255u, 1001u}) {
    Rng a(99), b(99);
    std::vector<double> block(n), scalar(n);
    for (int round = 0; round < 3; ++round) {
      a.gaussian_block(std::span<double>(block));
      for (double& v : scalar) v = b.gaussian();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(block[i], scalar[i]) << "n=" << n << " round=" << round;
      }
    }
    expect_rng_state_identical(a, b);
  }
}

TEST(RngBlocks, GaussianBlockScaledMatchesScalarSequence) {
  Rng a(7), b(7);
  std::vector<double> block(333), scalar(333);
  a.gaussian_block(std::span<double>(block), 0.62, 0.04);
  for (double& v : scalar) v = b.gaussian(0.62, 0.04);
  for (std::size_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block[i], scalar[i]);
  }
  expect_rng_state_identical(a, b);
}

// Table 2 evaluates N in {1, 2, 3, 4, 8}; sweep those level counts with the
// associativities the cache organizations use.
TEST(FaultEquivalence, ViableMatchesReferenceAcrossOrgs) {
  const BerModel ber(Technology::soi45());
  const std::vector<Volt> full = {0.54, 0.58, 0.62, 0.66,
                                  0.71, 0.80, 0.90, 1.00};
  for (u32 num_levels : {1u, 2u, 3u, 4u, 8u}) {
    const std::vector<Volt> levels(full.begin(), full.begin() + num_levels);
    for (u32 assoc : {1u, 16u, 32u}) {
      Rng rng(num_levels * 100 + assoc);
      const auto field = CellFaultField::sample_fast(ber, 8192, 512, rng);
      const FaultMap hinted(levels, field.fail_voltages(), assoc);
      const FaultMap unhinted(levels, field.fail_voltages());
      ASSERT_EQ(hinted.assoc_hint(), assoc);
      for (u32 l = 1; l <= num_levels; ++l) {
        ASSERT_EQ(hinted.viable(assoc, l), hinted.viable_reference(assoc, l))
            << "N=" << num_levels << " assoc=" << assoc << " level=" << l;
        // A query with a different assoc must fall back, not misuse the hint.
        const u32 other = assoc == 1 ? 16 : assoc / 2;
        ASSERT_EQ(hinted.viable(other, l), unhinted.viable(other, l));
        ASSERT_EQ(hinted.faulty_count(l), unhinted.faulty_count(l));
        ASSERT_EQ(hinted.code(0), unhinted.code(0));
      }
      ASSERT_EQ(hinted.lowest_level_with_capacity(assoc, 0.99),
                unhinted.lowest_level_with_capacity(assoc, 0.99));
    }
  }
}

// ---- Fault maps manufactured from draws -------------------------------------

/// got == want in every code, every level's faulty count and viability
/// (got's hinted summary against want's reference scan), and the SPCS pick
/// at three capacity targets.
void expect_maps_identical(const FaultMap& got, const FaultMap& want,
                           u32 assoc, const std::string& where) {
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << where;
  for (u64 b = 0; b < got.num_blocks(); ++b) {
    ASSERT_EQ(got.code(b), want.code(b)) << where << ", block " << b;
  }
  for (u32 l = 1; l <= want.num_levels(); ++l) {
    ASSERT_EQ(got.faulty_count(l), want.faulty_count(l))
        << where << ", level " << l;
    ASSERT_EQ(got.viable(assoc, l), want.viable_reference(assoc, l))
        << where << ", level " << l;
  }
  for (const double capacity : {0.9, 0.99, 1.0}) {
    ASSERT_EQ(got.lowest_level_with_capacity(assoc, capacity),
              want.lowest_level_with_capacity(assoc, capacity))
        << where << ", capacity " << capacity;
  }
}

/// FaultMap::sample against its definition: the map of the fail voltages
/// sample_fast draws from the same seed. The RNG must end in the same
/// state too.
void expect_sample_matches_field(const std::vector<Volt>& levels,
                                 const BerModel& ber, const CacheOrg& org,
                                 u64 seed, const std::string& where) {
  Rng ra(seed), rb(seed);
  const FaultMap got = FaultMap::sample(levels, ber, org.num_blocks(),
                                        org.bits_per_block(), org.assoc, ra);
  const auto field = CellFaultField::sample_fast(ber, org.num_blocks(),
                                                 org.bits_per_block(), rb);
  expect_maps_identical(
      got, FaultMap(levels, field.fail_voltages(), org.assoc), org.assoc,
      where + ", seed " + std::to_string(seed));
  expect_rng_state_identical(ra, rb);
}

/// One cache level of config A or B, and how many dies to sample per
/// ladder.
struct SampledLevel {
  const char* name;
  bool config_b;
  CacheLevelConfig SystemConfig::*level;
  u32 seeds;
};

void PrintTo(const SampledLevel& c, std::ostream* os) { *os << c.name; }

class SampledMap : public ::testing::TestWithParam<SampledLevel> {};

// The system builders' maps, on the ladders VddSelector picks for each
// cache level at 2, 3, 4 and 8 levels.
TEST_P(SampledMap, MatchesTheFieldMapOfTheSameSeed) {
  const SampledLevel& param = GetParam();
  const SystemConfig cfg =
      param.config_b ? SystemConfig::config_b() : SystemConfig::config_a();
  const CacheOrg& org = (cfg.*param.level).org;
  const BerModel ber(cfg.tech);
  const VddSelector selector(cfg.tech, ber, org);
  for (const u32 n : {2u, 3u, 4u, 8u}) {
    VddSelectionParams sel;
    sel.yield_target = cfg.yield_target;
    sel.capacity_target = cfg.capacity_target;
    sel.vdd1_capacity_floor = cfg.vdd1_capacity_floor;
    sel.num_levels = n;
    const VddLadder ladder = selector.select(sel);
    for (u32 i = 0; i < param.seeds; ++i) {
      expect_sample_matches_field(
          ladder.levels, ber, org, derive_seed(n, param.config_b, i),
          std::string(param.name) + ", " + std::to_string(n) + " levels");
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigLevels, SampledMap,
    ::testing::Values(
        SampledLevel{"A_L1I", false, &SystemConfig::l1i, 200},
        SampledLevel{"A_L1D", false, &SystemConfig::l1d, 200},
        SampledLevel{"A_L2", false, &SystemConfig::l2, 20},
        SampledLevel{"B_L1I", true, &SystemConfig::l1i, 200},
        SampledLevel{"B_L1D", true, &SystemConfig::l1d, 200},
        SampledLevel{"B_L2", true, &SystemConfig::l2, 20}),
    [](const ::testing::TestParamInfo<SampledLevel>& param_info) {
      return std::string(param_info.param.name);
    });

/// Ladders whose float-rounded thresholds are awkward for the cuts.
std::vector<std::pair<std::string, std::vector<Volt>>> hostile_ladders() {
  const float f = 0.62f;
  const float f1 = std::nextafter(f, 1.0f);
  const float f2 = std::nextafter(f1, 1.0f);
  std::vector<Volt> widest(FaultMap::kMaxLevels);
  for (std::size_t i = 0; i < widest.size(); ++i) {
    widest[i] = 0.40 + 0.0015 * static_cast<double>(i);
  }
  return {
      {"two levels round to one float",
       {0.55, 0.6, std::nextafter(0.6, 1.0), 0.65, 1.0}},
      {"a level exactly on a float", {0.5, static_cast<double>(0.6f), 0.7}},
      {"levels one float ulp apart",
       {0.5, static_cast<double>(f), static_cast<double>(f1),
        static_cast<double>(f2), 0.9}},
      {"one level", {0.62}},
      {"255 levels", widest},
  };
}

TEST(SampledMap, HostileLaddersMatchTheFieldMap) {
  const BerModel ber(Technology::soi45());
  const CacheOrg org{64 * 1024, 4, 64, 31};
  for (const auto& [name, levels] : hostile_ladders()) {
    for (u64 seed = 0; seed < 20; ++seed) {
      expect_sample_matches_field(levels, ber, org, seed, name);
      if (HasFatalFailure()) return;
    }
  }
}

// A die of draws within +-64 of every cut FaultMap::sample's table holds,
// where the chain is not monotone: the code each draw gets from the cuts
// must be the code the chain's fail voltage gets from the float compare.
TEST(SampledMap, CodesAroundEveryCutMatchTheFloatCompare) {
  const BerModel ber(Technology::soi45());
  constexpr u32 kBits = 512;
  constexpr i64 kDraws = static_cast<i64>(RungCuts::kDraws);
  for (const auto& [name, levels] : hostile_ladders()) {
    std::vector<Volt> thresholds(levels.size());
    for (std::size_t l = 0; l < levels.size(); ++l) {
      thresholds[l] = static_cast<double>(static_cast<float>(levels[l]));
    }
    const RungCuts cuts(thresholds, ber.mu(), ber.sigma(), kBits);
    std::vector<u64> draws;
    for (const i64 c : cuts.cuts()) {
      for (i64 k = std::max<i64>(c - 64, 0);
           k <= std::min<i64>(c + 64, kDraws - 1); ++k) {
        draws.push_back(static_cast<u64>(k));
      }
    }
    std::vector<u16> codes(draws.size());
    cuts.bucket_draws(draws, codes);
    std::vector<double> u(draws.size());
    for (std::size_t i = 0; i < draws.size(); ++i) {
      u[i] = static_cast<double>(draws[i]) * 0x1p-53;
    }
    std::vector<float> vf(draws.size());
    vecmath::sample_vf_block(u.data(), u.size(), kBits, ber.mu(),
                             ber.sigma(), vf.data());
    const FaultMap want(levels, vf);
    for (std::size_t i = 0; i < draws.size(); ++i) {
      ASSERT_EQ(codes[i], want.code(i))
          << name << ", draw " << draws[i] << " (vf " << vf[i] << ")";
    }
  }
}

// Adversarial maps (hand-built codes) where viability flips exactly at the
// max-of-set-minima boundary.
TEST(FaultEquivalence, ViableHandBuiltBoundaries) {
  const std::vector<Volt> levels = {0.5, 0.6, 0.7, 0.8};
  // vf just below/at each level: codes become 0..4 in a controlled pattern.
  const std::vector<float> vf = {0.45f, 0.55f, 0.65f, 0.75f,   // set 0
                                 0.85f, 0.85f, 0.85f, 0.85f,   // set 1: dead
                                 0.45f, 0.45f, 0.45f, 0.45f};  // set 2
  for (u32 assoc : {1u, 2u, 4u}) {
    const FaultMap hinted(levels, std::span<const float>(vf), assoc);
    for (u32 l = 1; l <= 4; ++l) {
      ASSERT_EQ(hinted.viable(assoc, l), hinted.viable_reference(assoc, l))
          << "assoc=" << assoc << " level=" << l;
    }
  }
}

TEST(FaultEquivalence, MarchSsMatchesReference) {
  const BerModel ber(Technology::soi45());
  // Sizes straddle word boundaries (partial last word, exactly one word,
  // multi-word); voltages span none-faulty to heavily-faulty regimes.
  for (u64 cells : {1ull, 63ull, 64ull, 65ull, 1000ull, 16384ull}) {
    Rng rng(cells * 7);
    SramArraySim sram(ber, cells, rng);
    for (Volt v : {0.40, 0.55, 0.60, 0.66, 0.75, 1.00}) {
      sram.set_vdd(v);
      const BistResult fast = march_ss(sram);
      sram.set_vdd(v);  // re-arm: both passes start from identical state
      const BistResult ref = march_ss_reference(sram);
      ASSERT_EQ(fast.reads, ref.reads) << "cells=" << cells << " v=" << v;
      ASSERT_EQ(fast.writes, ref.writes);
      ASSERT_EQ(fast.faulty_cells, ref.faulty_cells)
          << "cells=" << cells << " v=" << v;
    }
  }
}

TEST(FaultEquivalence, SramCtorDrawSequenceMatchesScalar) {
  const BerModel ber(Technology::soi45());
  for (u64 cells : {1ull, 4095ull, 4096ull, 5000ull}) {
    Rng ra(cells), rb(cells);
    SramArraySim sram(ber, cells, ra);
    for (u64 i = 0; i < cells; ++i) {
      const auto expect =
          static_cast<float>(rb.gaussian(ber.mu(), ber.sigma()));
      ASSERT_TRUE(same_float_bits(static_cast<float>(sram.fail_voltage(i)),
                                  expect))
          << "cell " << i;
    }
    expect_rng_state_identical(ra, rb);
  }
}

TEST(FaultEquivalence, WordInterfaceMatchesCellInterface) {
  const BerModel ber(Technology::soi45());
  Rng rng(12);
  SramArraySim sram(ber, 777, rng);
  sram.set_vdd(0.6);
  for (u64 w = 0; w < sram.num_words(); ++w) sram.write_word(w, true);
  for (u64 w = 0; w < sram.num_words(); ++w) {
    const u64 word = sram.read_word(w);
    for (u64 b = 0; b < 64 && w * 64 + b < sram.num_cells(); ++b) {
      ASSERT_EQ(((word >> b) & 1) != 0, sram.read(w * 64 + b));
    }
  }
  // Per-cell writes land in the packed words.
  sram.write(5, false);
  if (!sram.truly_faulty(5)) {
    ASSERT_EQ((sram.read_word(0) >> 5) & 1, 0u);
  }
}

// The population grid engine's sample-once split: the (mu, sigma)-free z
// chain composed with the per-sigma affine pass must reproduce the fused
// sample_vf_block bit for bit -- for every count (chunk-boundary coverage),
// every bits-per-block, and sigmas well away from the calibration value.
TEST(FaultEquivalence, ZSplitComposesToSampleVfBlock) {
  Rng rng(77);
  for (const std::size_t count : {1ul, 63ul, 64ul, 65ul, 513ul, 4096ul}) {
    for (const double bits : {64.0, 512.0, 4096.0}) {
      std::vector<double> us(count), z(count);
      for (double& u : us) u = rng.uniform();
      us[0] = 0.0;  // the clamped draw must round-trip too
      vecmath::sample_z_block(us.data(), count, bits, z.data());
      for (std::size_t i = 0; i < count; ++i) {
        const double u = us[i] > 0.0 ? us[i] : 1e-300;
        ASSERT_EQ(z[i], inv_q_function(-std::expm1(std::log(u) / bits)));
        // For real uniform draws (>= 2^-53) at the engine's block widths,
        // the order-statistic deviate is strictly positive -- this is what
        // makes every fail voltage pointwise non-decreasing in sigma (the
        // grid engine's exact sigma-monotonicity property).
        if (bits >= 512.0 && us[i] > 0.0) {
          ASSERT_GT(z[i], 0.0);
        }
      }
      for (const double mu : {0.0489, 0.1}) {
        for (const double sigma : {0.1426, 0.1585, 0.1823}) {
          std::vector<float> fused(count), split(count);
          vecmath::sample_vf_block(us.data(), count, bits, mu, sigma,
                                   fused.data());
          vecmath::vf_from_z_block(z.data(), count, mu, sigma, split.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_TRUE(same_float_bits(split[i], fused[i]))
                << "i=" << i << " count=" << count << " bits=" << bits
                << " mu=" << mu << " sigma=" << sigma;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pcs
