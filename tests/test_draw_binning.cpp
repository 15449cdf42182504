// Exactness of binning dies straight from their uniform draws (RungCuts,
// bin_chip at one size and one assoc) against the chain composition it
// replaced: sample_vf_block -> chip_fail_voltage -> count_fail_rungs ->
// bin_from_fail_summary.
//
//   * Per draw, on 8 ladders x 4 bits-per-block sizes x 4 (mu, sigma):
//     every draw within +-2^12 of each cut, the draws at and just past
//     each guard band's edges, K = 0 and K = 2^53 - 1, and 2^16 random
//     draws per case -- over 10^6 per ladder. Each draw's bucket
//     must equal upper_bound(ladder, chain vf) (count_fail_rungs' bucket,
//     pinned by tests/test_binning_kernels.cpp), and the buckets'
//     histogram must equal count_fail_rungs over the chain's values.
//   * Canary: away from +-64 draws of a cut, the chain agrees with the
//     bare cut rule (no guard band). The guard band is 2^30 draws wide, so
//     a libm whose rounding fuzz outgrows 64 draws fails here long before
//     it could break exactness.
//   * Per die: 20k dies at assoc 1, 2, 3, 4, 8 and 16 at two (mu, sigma),
//     dies whose every draw sits inside a guard band, and dies at the
//     0 V and 2.0 V clamps of the viability fold; and a PopulationEngine
//     run against the oracle's accumulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cachemodel/cache_org.hpp"
#include "exp/population_engine.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/ber_model.hpp"
#include "tech/technology.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"

namespace pcs {
namespace {

constexpr i64 kDraws = static_cast<i64>(RungCuts::kDraws);
constexpr i64 kGuard = static_cast<i64>(RungCuts::kGuardDraws);
constexpr i64 kWindow = i64{1} << 12;  // per-cut scan half-width
constexpr i64 kFuzzBound = 64;         // canary: chain fuzz around a cut
constexpr std::size_t kRandomDraws = std::size_t{1} << 16;

struct Ladder {
  const char* name;
  std::vector<Volt> rungs;
};

std::vector<Volt> spec_ladder(Volt lo, Volt hi, Volt step) {
  PopulationSpec spec;
  spec.grid_lo = lo;
  spec.grid_hi = hi;
  spec.grid_step = step;
  return spec.grid();
}

std::vector<Ladder> ladders() {
  const PopulationSpec def;
  return {
      {"default", def.grid()},
      {"service", spec_ladder(0.45, 1.00, 0.02)},
      {"fine1001", spec_ladder(0.0, 1.0, 0.001)},
      {"above2V", spec_ladder(0.45, 2.5, 0.05)},
      {"below0V", spec_ladder(-0.5, 0.6, 0.05)},
      {"onelevel", {0.7}},
      {"duplicates", {0.5, 0.5, 0.62, 0.62, 0.62, 0.7, 0.9, 0.9}},
      {"uneven", {0.3, 0.31, 0.45, 0.452, 0.6, 0.61, 0.8, 1.0, 1.3}},
  };
}

struct Model {
  const char* name;
  double mu;
  double sigma;
};

/// soi45, the grid's outer sigmas, and the worst corner (mu moves too).
std::vector<Model> models() {
  const BerModel soi(Technology::soi45());
  const BerModel worst(Technology::soi45_worst_corner());
  return {{"soi45", soi.mu(), soi.sigma()},
          {"sigma0p1426", soi.mu(), 0.1426},
          {"sigma0p1823", soi.mu(), 0.1823},
          {"worst", worst.mu(), worst.sigma()}};
}

/// The chain's fail voltage for each draw index.
std::vector<float> chain_vf(std::span<const u64> draws, double bits,
                            const Model& m) {
  std::vector<double> u(draws.size());
  for (std::size_t i = 0; i < draws.size(); ++i) {
    u[i] = static_cast<double>(draws[i]) * 0x1p-53;
  }
  std::vector<float> vf(draws.size());
  vecmath::sample_vf_block(u.data(), u.size(), bits, m.mu, m.sigma,
                           vf.data());
  return vf;
}

u16 chain_bucket(float vf, std::span<const Volt> grid) {
  return static_cast<u16>(std::upper_bound(grid.begin(), grid.end(),
                                           static_cast<double>(vf)) -
                          grid.begin());
}

// ---- Per draw ---------------------------------------------------------------

struct DrawCase {
  std::size_t ladder;
  u32 bits;
  std::size_t model;
};

std::string case_name(const DrawCase& c) {
  return std::string(ladders()[c.ladder].name) + "_" +
         std::to_string(c.bits) + "bits_" + models()[c.model].name;
}

// Keeps gtest from printing the struct's bytes (padding included) into
// the test's listing.
void PrintTo(const DrawCase& c, std::ostream* os) { *os << case_name(c); }

class PerDraw : public ::testing::TestWithParam<DrawCase> {};

/// Compares one batch of draws; `near_cut` batches also feed the canary.
struct DrawChecker {
  const RungCuts& cuts;
  std::span<const Volt> grid;
  double bits;
  Model model;
  std::string where;
  i64 max_fuzz = 0;  // farthest cut-rule disagreement from its nearest cut

  void check(std::span<const u64> draws, bool near_cut) {
    std::vector<u16> got(draws.size());
    cuts.bucket_draws(draws, got);
    const std::vector<float> vf = chain_vf(draws, bits, model);
    const std::span<const i64> cut = cuts.cuts();
    for (std::size_t i = 0; i < draws.size(); ++i) {
      const u16 want = chain_bucket(vf[i], grid);
      ASSERT_EQ(got[i], want)
          << where << ": draw " << draws[i] << " (vf " << vf[i] << ")";
      if (!near_cut) continue;
      const auto k = static_cast<i64>(draws[i]);
      const auto rule = static_cast<u16>(
          std::upper_bound(cut.begin(), cut.end(), k) - cut.begin());
      if (rule == want) continue;
      // Distance to the nearest cut (cuts are sorted).
      const auto it = std::lower_bound(cut.begin(), cut.end(), k);
      i64 d = std::numeric_limits<i64>::max();
      if (it != cut.end()) d = *it - k;
      if (it != cut.begin()) d = std::min(d, k - *(it - 1));
      max_fuzz = std::max(max_fuzz, d);
    }
    // The buckets' histogram is count_fail_rungs' over the chain values.
    std::vector<u64> want_hist(grid.size() + 2, 0);
    std::vector<u64> got_hist(grid.size() + 2, 0);
    count_fail_rungs(vf, grid, want_hist);
    count_buckets(got, got_hist);
    ASSERT_EQ(got_hist, want_hist) << where;
  }
};

TEST_P(PerDraw, BucketsMatchTheChainAroundEveryCut) {
  const DrawCase& param = GetParam();
  const Ladder ladder = ladders()[param.ladder];
  const Model m = models()[param.model];
  const RungCuts cuts(ladder.rungs, m.mu, m.sigma, param.bits);
  const std::string where = std::string(ladder.name) + " ladder, " + m.name +
                            ", " + std::to_string(param.bits) + " bits";
  DrawChecker checker{cuts, ladder.rungs, static_cast<double>(param.bits), m,
                      where};

  std::vector<i64> distinct(cuts.cuts().begin(), cuts.cuts().end());
  ASSERT_TRUE(std::is_sorted(distinct.begin(), distinct.end())) << where;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  // Every draw within kWindow of a cut, overlapping windows merged, in
  // batches.
  std::vector<u64> batch;
  i64 next = 0;  // first draw not yet scanned
  for (const i64 c : distinct) {
    for (i64 k = std::max({c - kWindow, next, i64{0}});
         k <= std::min(c + kWindow, kDraws - 1); ++k) {
      batch.push_back(static_cast<u64>(k));
      if (batch.size() == kRandomDraws) {
        checker.check(batch, true);
        if (HasFatalFailure()) return;
        batch.clear();
      }
    }
    next = std::max(next, c + kWindow + 1);
  }
  // The guard bands' edges: first and last guarded draws and the draws
  // just outside. Then both ends of the draw range.
  for (const i64 c : distinct) {
    for (const i64 k : {c - kGuard - 1, c - kGuard, c + kGuard - 1,
                        c + kGuard}) {
      if (k >= 0 && k < kDraws) batch.push_back(static_cast<u64>(k));
    }
  }
  batch.push_back(0);
  batch.push_back(static_cast<u64>(kDraws - 1));
  checker.check(batch, true);
  if (HasFatalFailure()) return;

  std::vector<u64> anywhere(kRandomDraws);
  Rng rng(derive_seed(param.ladder, param.bits, param.model));
  rng.uniform_bits_block(anywhere);
  checker.check(anywhere, false);
  if (HasFatalFailure()) return;

  EXPECT_LE(checker.max_fuzz, kFuzzBound)
      << where << ": the chain disagrees with the bare cut rule "
      << checker.max_fuzz << " draws from the nearest cut";
}

std::vector<DrawCase> draw_cases() {
  std::vector<DrawCase> out;
  for (std::size_t l = 0; l < ladders().size(); ++l) {
    for (const u32 bits : {256u, 512u, 1024u, 2048u}) {
      for (std::size_t m = 0; m < models().size(); ++m) {
        out.push_back({l, bits, m});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    LaddersBlocksModels, PerDraw, ::testing::ValuesIn(draw_cases()),
    [](const ::testing::TestParamInfo<DrawCase>& param_info) {
      return case_name(param_info.param);
    });

TEST(RungCuts, CutsAreTheChainsCrossings) {
  // Each reachable rung's cut is a draw the chain puts at or above the
  // rung, with the draw before it below; unreachable rungs cut at kDraws,
  // rungs below every draw at 0.
  const BerModel ber(Technology::soi45());
  for (const Ladder& ladder : ladders()) {
    const RungCuts cuts(ladder.rungs, ber.mu(), ber.sigma(), 512);
    ASSERT_EQ(cuts.num_levels(), ladder.rungs.size());
    const Model m{"soi45", ber.mu(), ber.sigma()};
    for (std::size_t k = 0; k < ladder.rungs.size(); ++k) {
      const i64 c = cuts.cuts()[k];
      ASSERT_GE(c, 0);
      ASSERT_LE(c, kDraws);
      const Volt rung = ladder.rungs[k];
      if (c < kDraws) {
        const u64 at = static_cast<u64>(c);
        EXPECT_GE(static_cast<double>(chain_vf({&at, 1}, 512, m)[0]), rung)
            << ladder.name << " rung " << k;
      }
      if (c > 0) {
        const u64 before = static_cast<u64>(c - 1);
        EXPECT_LT(static_cast<double>(chain_vf({&before, 1}, 512, m)[0]),
                  rung)
            << ladder.name << " rung " << k;
      }
    }
  }
}

TEST(RungCuts, RejectsSigmaAndMuTheCutsCannotUse) {
  const std::vector<Volt> grid = PopulationSpec{}.grid();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double sigma : {0.0, -0.0, -0.1, kInf, -kInf, kNaN}) {
    try {
      const RungCuts cuts(grid, 0.05, sigma, 512);
      ADD_FAILURE() << "sigma " << sigma << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sigma"), std::string::npos)
          << e.what();
    }
  }
  for (const double mu : {kInf, -kInf, kNaN}) {
    EXPECT_THROW(RungCuts(grid, mu, 0.15, 512), std::invalid_argument);
  }
  const std::vector<Volt> long_ladder(kMaxPopulationLevels + 1, 0.5);
  EXPECT_THROW(RungCuts(long_ladder, 0.05, 0.15, 512), std::invalid_argument);
}

// ---- Per die -----------------------------------------------------------------

/// The chain composition for one die of `draws`.
ChipBinPoint oracle_bin(std::span<const float> vf, u32 assoc,
                        std::span<const Volt> grid, double min_capacity) {
  const float vf_chip = chip_fail_voltage(vf, assoc);
  std::vector<u64> faulty_at(grid.size() + 2, 0);
  count_fail_rungs(vf, grid, faulty_at);
  for (std::size_t l = grid.size(); l >= 1; --l) {
    faulty_at[l] += faulty_at[l + 1];
  }
  return bin_from_fail_summary(vf_chip, faulty_at, vf.size(), grid,
                               min_capacity);
}

void expect_same(const ChipBinPoint& got, const ChipBinPoint& want,
                 const std::string& where) {
  EXPECT_EQ(got.floor_level, want.floor_level) << where;
  EXPECT_EQ(got.spcs_level, want.spcs_level) << where;
  EXPECT_EQ(got.capacity_bin, want.capacity_bin) << where;
}

/// 16 KB orgs at each associativity (12 KB for 3-way: 64 sets).
CacheOrg org_for(u32 assoc) {
  CacheOrg org{(assoc == 3 ? 12u : 16u) * 1024, assoc, 64, 31};
  org.validate();
  return org;
}

TEST(DrawBinning, PerDieMatchesChainComposition) {
  constexpr u64 kDies = 20'000;
  const PopulationSpec spec;
  const std::vector<Volt> grid = spec.grid();
  const u32 bits = org_for(1).bits_per_block();
  const std::size_t max_blocks = org_for(1).num_blocks();
  std::vector<u64> draws(max_blocks);
  std::vector<u16> buckets(max_blocks);
  std::vector<u64> rungs(grid.size() + 2);
  std::vector<u64> faulty_at(grid.size() + 2);
  u64 unusable = 0, usable = 0;
  for (const Model& m : {models()[0], models()[3]}) {
    const RungCuts cuts(grid, m.mu, m.sigma, bits);
    for (u64 die = 0; die < kDies; ++die) {
      Rng rng(derive_seed(spec.seed, 0, die));
      rng.uniform_bits_block(draws);
      const std::vector<float> vf = chain_vf(draws, bits, m);
      for (const u32 assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
        const u64 blocks = org_for(assoc).num_blocks();
        const ChipBinPoint want = oracle_bin(
            std::span<const float>(vf).first(blocks), assoc, grid,
            spec.spcs_min_capacity);
        ChipBinPoint got;
        bin_chip(std::span<const u64>(draws).first(blocks), cuts,
                 std::span<const u64>(&blocks, 1),
                 std::span<const u32>(&assoc, 1), spec.spcs_min_capacity,
                 buckets, rungs, faulty_at, std::span<ChipBinPoint>(&got, 1));
        if (got.floor_level != want.floor_level ||
            got.spcs_level != want.spcs_level ||
            got.capacity_bin != want.capacity_bin) {
          expect_same(got, want,
                      std::string(m.name) + " die " + std::to_string(die) +
                          " assoc " + std::to_string(assoc));
          return;
        }
        ++(want.floor_level == 0 ? unusable : usable);
      }
    }
  }
  // The dies cover both outcomes: usable and unusable floors.
  EXPECT_GT(unusable, 0u);
  EXPECT_GT(usable, 0u);
}

TEST(DrawBinning, DiesInsideGuardBandsMatchChainComposition) {
  // Every block's draw sits within a few draws of a cut, so every bucket
  // (and through them the floor and the histogram) comes from the guarded
  // exact path.
  const PopulationSpec spec;
  const std::vector<Volt> grid = spec.grid();
  const CacheOrg org = org_for(4);
  const Model m = models()[0];
  const RungCuts cuts(grid, m.mu, m.sigma, org.bits_per_block());
  std::vector<i64> inner;
  for (const i64 c : cuts.cuts()) {
    if (c > kGuard && c < kDraws - kGuard) inner.push_back(c);
  }
  ASSERT_GT(inner.size(), 10u);
  const u64 blocks = org.num_blocks();
  std::vector<u64> draws(blocks);
  std::vector<u16> buckets(draws.size());
  std::vector<u64> rungs(grid.size() + 2);
  std::vector<u64> faulty_at(grid.size() + 2);
  for (u64 die = 0; die < 200; ++die) {
    Rng rng(derive_seed(77, 0, die));
    for (u64& k : draws) {
      const i64 c = inner[rng.uniform_int(inner.size())];
      k = static_cast<u64>(c + static_cast<i64>(rng.uniform_int(17)) - 8);
    }
    const std::vector<float> vf = chain_vf(draws, org.bits_per_block(), m);
    ChipBinPoint got;
    bin_chip(draws, cuts, std::span<const u64>(&blocks, 1),
             std::span<const u32>(&org.assoc, 1), spec.spcs_min_capacity,
             buckets, rungs, faulty_at, std::span<ChipBinPoint>(&got, 1));
    expect_same(got,
                oracle_bin(vf, org.assoc, grid, spec.spcs_min_capacity),
                "guard-band die " + std::to_string(die));
    if (HasFailure()) return;
  }
}

TEST(DrawBinning, FoldClampsMatchChainComposition) {
  const CacheOrg org = org_for(4);
  const u64 blocks = org.num_blocks();
  std::vector<u64> draws(blocks);
  std::vector<u16> buckets(draws.size());
  const double min_capacity = PopulationSpec{}.spcs_min_capacity;
  ChipBinPoint got;

  // 2.0 V: every block fails above 2.0 V, so each set's min stays at the
  // 2.0f seed; the ladder has rungs above 2.0 V, so the seed's bucket is
  // what places the die.
  {
    const std::vector<Volt> grid = spec_ladder(0.45, 2.5, 0.05);
    const Model m{"sigma0p3", models()[0].mu, 0.3};
    const RungCuts cuts(grid, m.mu, m.sigma, org.bits_per_block());
    std::vector<u64> rungs(grid.size() + 2);
    std::vector<u64> faulty_at(grid.size() + 2);
    for (std::size_t i = 0; i < draws.size(); ++i) {
      draws[i] = RungCuts::kDraws - 1 - i;
    }
    const std::vector<float> vf = chain_vf(draws, org.bits_per_block(), m);
    ASSERT_EQ(chip_fail_voltage(vf, org.assoc), 2.0f);
    const ChipBinPoint want = oracle_bin(vf, org.assoc, grid, min_capacity);
    ASSERT_NE(want.floor_level, 0u);
    bin_chip(draws, cuts, std::span<const u64>(&blocks, 1),
             std::span<const u32>(&org.assoc, 1), min_capacity, buckets,
             rungs, faulty_at, std::span<ChipBinPoint>(&got, 1));
    expect_same(got, want, "2.0 V clamp");
  }
  // 0 V: draw 0 gives every block a negative fail voltage, so the max over
  // sets stays at the +0.0f seed; the ladder has rungs below 0 V.
  {
    const std::vector<Volt> grid = spec_ladder(-0.5, 0.6, 0.05);
    const Model m = models()[0];
    const RungCuts cuts(grid, m.mu, m.sigma, org.bits_per_block());
    std::vector<u64> rungs(grid.size() + 2);
    std::vector<u64> faulty_at(grid.size() + 2);
    std::fill(draws.begin(), draws.end(), u64{0});
    const std::vector<float> vf = chain_vf(draws, org.bits_per_block(), m);
    ASSERT_LT(vf[0], 0.0f);
    ASSERT_EQ(chip_fail_voltage(vf, org.assoc), 0.0f);
    const ChipBinPoint want = oracle_bin(vf, org.assoc, grid, min_capacity);
    ASSERT_GT(want.floor_level, 1u);
    bin_chip(draws, cuts, std::span<const u64>(&blocks, 1),
             std::span<const u32>(&org.assoc, 1), min_capacity, buckets,
             rungs, faulty_at, std::span<ChipBinPoint>(&got, 1));
    expect_same(got, want, "0 V clamp");
  }
}

TEST(DrawBinning, EngineEqualsAccumulatedChainComposition) {
  PopulationSpec spec;
  spec.org = org_for(4);
  spec.num_chips = 5'000;
  spec.chips_per_shard = 1'000;
  spec.seed = 31;
  const BerModel ber(Technology::soi45());
  const std::vector<Volt> grid = spec.grid();
  PopulationResult want = make_empty_population_result(grid);
  std::vector<u64> draws(spec.org.num_blocks());
  for (u64 c = 0; c < spec.num_chips; ++c) {
    Rng rng(derive_seed(spec.seed, 0, c));
    rng.uniform_bits_block(draws);
    const std::vector<float> vf = chain_vf(
        draws, spec.org.bits_per_block(), {"soi45", ber.mu(), ber.sigma()});
    accumulate_chip(want, oracle_bin(vf, spec.org.assoc, grid,
                                     spec.spcs_min_capacity));
  }
  EXPECT_EQ(PopulationEngine(ber, 3).run(spec), want);
}

}  // namespace
}  // namespace pcs
