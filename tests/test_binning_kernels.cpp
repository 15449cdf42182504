// Exactness wall for the population engines' two binning kernels: the
// O(1) rung bucketing of count_fail_rungs and the interleaved
// chip_fail_voltage fold, each against the plain loop it replaced. Those
// loops live here, and only here, as the oracles: one std::upper_bound per
// block, and a set-by-set min/max fold.
//
// count_fail_rungs is checked on every float around the ladders the
// engines and the job service use, on the special values (signed zeros,
// infinities, NaN, denormals, FLT_MAX), and on 1-level, empty and
// non-uniform sorted ladders, where its guess is poor. The fold is checked
// bit for bit on random spans full of NaN, infinities, signed zeros and
// negatives, at every associativity the engines use plus 1 and 3, with
// set counts that are not a multiple of its interleave width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "exp/population_engine.hpp"
#include "exp/sweep_engine.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// ---- Oracles ---------------------------------------------------------------

/// The histogram loop count_fail_rungs replaced: one binary search per
/// block.
void count_fail_rungs_oracle(std::span<const float> vf,
                             std::span<const Volt> grid,
                             std::span<u64> rung_counts) {
  for (const float v : vf) {
    const auto rungs_below = std::upper_bound(grid.begin(), grid.end(),
                                              static_cast<Volt>(v)) -
                             grid.begin();
    ++rung_counts[static_cast<std::size_t>(rungs_below)];
  }
}

/// The fold chip_fail_voltage replaced: sets in order, ways in order.
float chip_fail_voltage_oracle(std::span<const float> vf, u32 assoc) {
  const u64 num_sets = vf.size() / assoc;
  float worst_set = 0.0f;
  for (u64 s = 0; s < num_sets; ++s) {
    float best_way = 2.0f;
    for (u32 w = 0; w < assoc; ++w) {
      best_way = std::min(best_way, vf[s * assoc + w]);
    }
    worst_set = std::max(worst_set, best_way);
  }
  return worst_set;
}

// ---- Helpers ---------------------------------------------------------------

std::size_t oracle_bucket(std::span<const Volt> grid, float v) {
  return static_cast<std::size_t>(
      std::upper_bound(grid.begin(), grid.end(), static_cast<Volt>(v)) -
      grid.begin());
}

/// The bucket count_fail_rungs gives one value: the index of the single
/// count a one-element span adds.
std::size_t kernel_bucket(std::span<const Volt> grid, float v) {
  std::vector<u64> counts(grid.size() + 2, 0);
  count_fail_rungs(std::span<const float>(&v, 1), grid, counts);
  return static_cast<std::size_t>(
      std::find(counts.begin(), counts.end(), u64{1}) - counts.begin());
}

void expect_same_bucket(std::span<const Volt> grid, float v) {
  EXPECT_EQ(kernel_bucket(grid, v), oracle_bucket(grid, v))
      << "v = " << v << " (" << std::hexfloat << v << std::defaultfloat
      << ") on a " << grid.size() << "-level ladder";
}

/// Every float in [lo, hi] through count_fail_rungs in runs of consecutive
/// floats. A run the oracle puts in one bucket is checked as a batch: a
/// histogram with the whole run in that one bucket pins every element. A
/// run that straddles a rung is checked float by float.
void expect_exact_on_every_float(std::span<const Volt> grid, float lo,
                                 float hi) {
  constexpr std::size_t kRun = 4096;
  std::vector<float> run;
  run.reserve(kRun);
  std::vector<u64> got(grid.size() + 2), want(grid.size() + 2);
  u64 floats = 0;
  float v = lo;
  while (v <= hi) {
    run.clear();
    while (run.size() < kRun && v <= hi) {
      run.push_back(v);
      v = std::nextafter(v, kInf);
    }
    floats += run.size();
    std::fill(got.begin(), got.end(), u64{0});
    std::fill(want.begin(), want.end(), u64{0});
    count_fail_rungs(run, grid, got);
    count_fail_rungs_oracle(run, grid, want);
    ASSERT_EQ(got, want) << "run of floats from " << run.front();
    if (oracle_bucket(grid, run.front()) != oracle_bucket(grid, run.back())) {
      for (const float x : run) expect_same_bucket(grid, x);
    }
  }
  // Sanity: the range really was swept float by float.
  EXPECT_GT(floats, u64{1'000'000});
}

std::vector<float> special_values() {
  std::vector<float> s = {0.0f,
                          -0.0f,
                          kInf,
                          -kInf,
                          kNaN,
                          -kNaN,
                          std::numeric_limits<float>::signaling_NaN(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          FLT_MIN * 0.5f,  // a mid-range denormal
                          -FLT_MIN * 0.5f,
                          FLT_MIN,
                          -FLT_MIN,
                          FLT_MAX,
                          -FLT_MAX,
                          1.0f,
                          -1.0f,
                          2.0f};
  // A NaN with a payload.
  const u32 payload_nan_bits = 0x7fc12345u;
  float payload_nan = 0.0f;
  std::memcpy(&payload_nan, &payload_nan_bits, sizeof payload_nan);
  s.push_back(payload_nan);
  return s;
}

/// Each rung's float neighbourhood: float(rung) and the floats on either
/// side, where an off-by-one would show.
std::vector<float> rung_neighbours(std::span<const Volt> grid) {
  std::vector<float> s;
  for (const Volt g : grid) {
    float f = static_cast<float>(g);
    for (int i = 0; i < 3; ++i) f = std::nextafter(f, -kInf);
    for (int i = 0; i < 7; ++i) {
      s.push_back(f);
      f = std::nextafter(f, kInf);
    }
  }
  return s;
}

PopulationSpec ladder_spec(Volt lo, Volt hi, Volt step) {
  PopulationSpec spec;
  spec.grid_lo = lo;
  spec.grid_hi = hi;
  spec.grid_step = step;
  return spec;
}

/// Ladders beyond the engines' evenly spaced ones: single rungs,
/// duplicates, uneven gaps, negative and enormous values.
std::vector<std::vector<Volt>> odd_ladders() {
  return {
      {0.7},
      {-0.0},
      {0.3, 0.31, 0.5, 0.52, 0.9, 1.4},
      {0.5, 0.5, 0.6, 0.6, 0.6, 0.7},
      {-2.0, -1.0, -0.5, 0.0, 1e-40, 0.25, 0.5, 1.0},
      {0.45, 0.46, 0.47, 0.48, 0.49, 0.5, 5.0},  // one wide last gap
      {-1e300, 0.0, 1e300},
      {-std::numeric_limits<double>::infinity(), 0.5, 0.75,
       std::numeric_limits<double>::infinity()},
      {1e-300, 2e-300, 3e-300},
  };
}

// ---- count_fail_rungs ------------------------------------------------------

TEST(CountFailRungsExactness, EveryFloatAroundTheDefaultLadder) {
  const PopulationSpec spec;  // 0.45..1.00 step 0.01: 56 levels
  const std::vector<Volt> grid = spec.grid();
  ASSERT_EQ(grid.size(), 56u);
  const Volt margin = 2 * spec.grid_step;
  expect_exact_on_every_float(
      grid,
      std::nextafter(static_cast<float>(grid.front() - margin), -kInf),
      std::nextafter(static_cast<float>(grid.back() + margin), kInf));
}

TEST(CountFailRungsExactness, EveryFloatAroundTheServiceTestLadder) {
  // The 0.5..0.9 step 0.02 ladder the job-service tests submit.
  const PopulationSpec spec = ladder_spec(0.5, 0.9, 0.02);
  const std::vector<Volt> grid = spec.grid();
  ASSERT_EQ(grid.size(), 21u);
  const Volt margin = 2 * spec.grid_step;
  expect_exact_on_every_float(
      grid,
      std::nextafter(static_cast<float>(grid.front() - margin), -kInf),
      std::nextafter(static_cast<float>(grid.back() + margin), kInf));
}

TEST(CountFailRungsExactness, SpecialValuesAndRungNeighbours) {
  std::vector<std::vector<Volt>> ladders = {
      PopulationSpec{}.grid(), ladder_spec(0.5, 0.9, 0.02).grid(),
      ladder_spec(0.3, 1.2, 0.005).grid()};
  for (auto& l : odd_ladders()) ladders.push_back(std::move(l));
  for (const auto& grid : ladders) {
    for (const float v : special_values()) expect_same_bucket(grid, v);
    for (const float v : rung_neighbours(grid)) expect_same_bucket(grid, v);
  }
}

TEST(CountFailRungsExactness, EndsOfTheLadder) {
  const std::vector<Volt> grid = PopulationSpec{}.grid();
  const std::size_t n = grid.size();
  EXPECT_EQ(kernel_bucket(grid, kNaN), n);
  EXPECT_EQ(kernel_bucket(grid, -kNaN), n);
  EXPECT_EQ(kernel_bucket(grid, kInf), n);
  EXPECT_EQ(kernel_bucket(grid, FLT_MAX), n);
  EXPECT_EQ(kernel_bucket(grid, 1.5f), n);
  EXPECT_EQ(kernel_bucket(grid, -kInf), 0u);
  EXPECT_EQ(kernel_bucket(grid, -FLT_MAX), 0u);
  EXPECT_EQ(kernel_bucket(grid, 0.0f), 0u);
  EXPECT_EQ(kernel_bucket(grid, 0.4f), 0u);
}

TEST(CountFailRungsExactness, EmptyLadderPutsEveryBlockInBucketZero) {
  const std::vector<Volt> grid;
  std::vector<float> vf = special_values();
  vf.push_back(0.5f);
  std::vector<u64> counts(2, 0);
  count_fail_rungs(vf, grid, counts);
  EXPECT_EQ(counts[0], vf.size());
  EXPECT_EQ(counts[1], 0u);
}

TEST(CountFailRungsExactness, RandomFloatsOnEveryLadder) {
  std::vector<std::vector<Volt>> ladders = {PopulationSpec{}.grid(),
                                            ladder_spec(0.5, 0.9, 0.02).grid()};
  for (auto& l : odd_ladders()) ladders.push_back(std::move(l));
  Rng rng(20240611);
  std::vector<float> vf(10'000);
  for (const auto& grid : ladders) {
    for (int trial = 0; trial < 4; ++trial) {
      for (float& v : vf) {
        if (trial % 2 == 0) {
          // Any bit pattern: NaNs, infinities and denormals included.
          const auto bits = static_cast<u32>(rng.next_u64());
          std::memcpy(&v, &bits, sizeof v);
        } else {
          v = static_cast<float>(rng.uniform(-0.5, 2.0));
        }
      }
      std::vector<u64> got(grid.size() + 2, 0), want(grid.size() + 2, 0);
      count_fail_rungs(vf, grid, got);
      count_fail_rungs_oracle(vf, grid, want);
      EXPECT_EQ(got, want) << grid.size() << "-level ladder, trial " << trial;
    }
  }
}

TEST(CountFailRungsExactness, RejectsLaddersAboveTheCap) {
  std::vector<Volt> grid(kMaxPopulationLevels + 1);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = 0.001 * static_cast<double>(i);
  }
  std::vector<u64> counts(grid.size() + 2, 0);
  const float v = 0.5f;
  EXPECT_THROW(count_fail_rungs(std::span<const float>(&v, 1), grid, counts),
               std::invalid_argument);
  grid.pop_back();  // exactly at the cap: accepted and exact
  expect_same_bucket(grid, v);
  expect_same_bucket(grid, 0.0f);
  expect_same_bucket(grid, 2.0f);
}

// ---- chip_fail_voltage -----------------------------------------------------

bool same_bits(float a, float b) {
  u32 ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// A fail voltage drawn from a palette heavy in the values a min/max fold
/// can get wrong.
float hostile_value(Rng& rng) {
  switch (rng.uniform_int(12)) {
    case 0: return kNaN;
    case 1: return -kNaN;
    case 2: return kInf;
    case 3: return -kInf;
    case 4: return 0.0f;
    case 5: return -0.0f;
    case 6: return static_cast<float>(rng.uniform(-1.0, 0.0));
    case 7: return std::numeric_limits<float>::denorm_min();
    case 8: return rng.bernoulli(0.5) ? 2.0f : 3.0f;
    default: return static_cast<float>(rng.uniform(0.3, 1.1));
  }
}

void expect_fold_exact(std::span<const float> vf, u32 assoc) {
  const float got = chip_fail_voltage(vf, assoc);
  const float want = chip_fail_voltage_oracle(vf, assoc);
  EXPECT_TRUE(same_bits(got, want))
      << "assoc " << assoc << ", " << vf.size() / assoc << " sets: got "
      << got << ", want " << want;
}

TEST(ChipFailVoltageExactness, RandomHostileSpans) {
  Rng rng(314159);
  const u64 set_counts[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 65, 127, 129,
                            1000};
  for (const u32 assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
    for (const u64 sets : set_counts) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> vf(static_cast<std::size_t>(sets * assoc));
        // Mix dense hostile spans with mostly-ordinary ones, where a
        // single odd value has to survive the fold.
        const double odd_share = trial % 2 == 0 ? 1.0 : 0.02;
        for (float& v : vf) {
          v = rng.bernoulli(odd_share)
                  ? hostile_value(rng)
                  : static_cast<float>(rng.uniform(0.3, 1.1));
        }
        expect_fold_exact(vf, assoc);
      }
    }
  }
}

TEST(ChipFailVoltageExactness, StructuredEdgeCases) {
  for (const u32 assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
    for (const u64 sets : {1u, 8u, 13u, 64u}) {
      const auto n = static_cast<std::size_t>(sets * assoc);
      // All NaN: every set min stays at its 2.0f start.
      std::vector<float> vf(n, kNaN);
      expect_fold_exact(vf, assoc);
      EXPECT_EQ(chip_fail_voltage(vf, assoc), 2.0f);
      // All -0.0f: the max keeps its +0.0f start.
      vf.assign(n, -0.0f);
      expect_fold_exact(vf, assoc);
      // All negative: +0.0f again.
      vf.assign(n, -0.25f);
      expect_fold_exact(vf, assoc);
      // All +inf.
      vf.assign(n, kInf);
      expect_fold_exact(vf, assoc);
      // One worst set at every position, with a NaN and a -0.0f beside it.
      for (u64 s = 0; s < sets; ++s) {
        vf.assign(n, 0.5f);
        for (u32 w = 0; w < assoc; ++w) vf[s * assoc + w] = 0.9f;
        vf[s * assoc] = kNaN;
        if (s + 1 < sets) vf[(s + 1) * assoc] = -0.0f;
        expect_fold_exact(vf, assoc);
      }
    }
  }
}

}  // namespace
}  // namespace pcs
