// Cross-module property suites (parameterized sweeps over organisations,
// voltages, and seeds) checking the invariants DESIGN.md calls out.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/fft_cache.hpp"
#include "cache/cache_level.hpp"
#include "cachemodel/cache_power_model.hpp"
#include "core/mechanism.hpp"
#include "core/vdd_levels.hpp"
#include "fault/cell_fault_field.hpp"
#include "fault/fault_map.hpp"
#include "fault/yield_model.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {

// Names each OrgSweep case by its geometry (64KB_4w, ...), so the test IDs
// are the same in every build; gtest finds this by argument lookup.
void PrintTo(const CacheOrg& org, std::ostream* os) {
  *os << org.size_bytes / 1024 << "KB_" << org.assoc << "w";
}

namespace {

// ---------------------------------------------------------------------------
// Property: across all paper organisations, the static-power ordering of
// Fig. 3 holds at the matched-capacity point.
class OrgSweep : public ::testing::TestWithParam<CacheOrg> {};

TEST_P(OrgSweep, SelectionMeetsTargetsAndOrderingHolds) {
  const CacheOrg org = GetParam();
  const auto tech = Technology::soi45();
  BerModel ber(tech);
  VddSelector sel(tech, ber, org);
  const auto ladder = sel.select({});
  const auto& ym = sel.yield_model();

  // Selection targets.
  EXPECT_GE(ym.yield(ladder.min_vdd()), 0.99);
  EXPECT_GE(ym.expected_capacity(ladder.spcs_vdd()), 0.99);

  // Power at the SPCS point beats FFT-Cache at matched capacity.
  CachePowerModel pm(tech, org, MechanismSpec::pcs(3));
  FftCacheModel fft(tech, org, ber);
  const Volt v_fft = fft.vdd_for_capacity(0.99, 0.99);
  EXPECT_LT(pm.static_power(ladder.spcs_vdd(), 0.01).total(),
            fft.static_power(v_fft));
}

TEST_P(OrgSweep, MechanismRoundTripIsLossless) {
  // Manufacture a chip, walk the ladder down and back up: the faulty-block
  // population must return exactly to the initial state.
  const CacheOrg org = GetParam();
  if (org.size_bytes > 4 * 1024 * 1024) GTEST_SKIP() << "keep CI fast";
  const auto tech = Technology::soi45();
  BerModel ber(tech);
  VddSelector sel(tech, ber, org);
  const auto ladder = sel.select({});
  Rng rng(99);
  const auto field = CellFaultField::sample_fast(ber, org.num_blocks(),
                                                 org.bits_per_block(), rng);
  CacheLevel cache("t", org, 2);
  PcsMechanism mech(cache, FaultMap(ladder.levels, field.fail_voltages()),
                    ladder, ladder.spcs_level, 40);
  const u64 initial = cache.faulty_block_count();
  mech.transition(1);
  EXPECT_GE(cache.faulty_block_count(), initial);
  mech.transition(ladder.num_levels());
  EXPECT_LE(cache.faulty_block_count(), initial);
  mech.transition(ladder.spcs_level);
  EXPECT_EQ(cache.faulty_block_count(), initial);
}

INSTANTIATE_TEST_SUITE_P(
    PaperOrgs, OrgSweep,
    ::testing::Values(CacheOrg{64 * 1024, 4, 64, 31},
                      CacheOrg{256 * 1024, 8, 64, 31},
                      CacheOrg{2 * 1024 * 1024, 8, 64, 31},
                      CacheOrg{8 * 1024 * 1024, 16, 64, 31}));

// ---------------------------------------------------------------------------
// Property: static power is monotone in VDD for every (org, gating) combo.
class PowerMonotone
    : public ::testing::TestWithParam<std::tuple<u64, double>> {};

TEST_P(PowerMonotone, StaticPowerNondecreasingInVdd) {
  const auto [size, gated] = GetParam();
  CachePowerModel pm(Technology::soi45(), CacheOrg{size, 8, 64, 31},
                     MechanismSpec::pcs(3));
  double prev = -1.0;
  for (Volt v = 0.4; v <= 1.0; v += 0.05) {
    const double p = pm.static_power(v, gated).total();
    EXPECT_GT(p, prev);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeGatingGrid, PowerMonotone,
    ::testing::Combine(::testing::Values(256 * 1024ULL, 2 * 1024 * 1024ULL),
                       ::testing::Values(0.0, 0.05, 0.5)));

// ---------------------------------------------------------------------------
// Property: the fault-inclusion property survives the whole pipeline
// (field -> BIST-style quantization -> fault map) for any seed.
class SeedSweep : public ::testing::TestWithParam<u64> {};

TEST_P(SeedSweep, InclusionThroughPipeline) {
  Rng rng(GetParam());
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 2048, 512, rng);
  const std::vector<Volt> levels = {0.55, 0.65, 0.75, 1.0};
  const FaultMap map(levels, field.fail_voltages());
  for (u64 b = 0; b < map.num_blocks(); ++b) {
    for (u32 l = 2; l <= map.num_levels(); ++l) {
      if (map.faulty_at(b, l)) {
        ASSERT_TRUE(map.faulty_at(b, l - 1));
      }
    }
  }
}

TEST_P(SeedSweep, FieldFaultMonotoneUnderVoltageSteps) {
  // The fault-inclusion property at the field level: a block faulty at VDD
  // v must stay faulty at every v' < v. Walk a descending voltage grid and
  // assert no block ever recovers.
  Rng rng(GetParam() ^ 0x5eed);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 2048, 512, rng);
  for (u64 b = 0; b < field.num_blocks(); ++b) {
    bool was_faulty = false;
    for (Volt v = 1.0; v >= 0.30; v -= 0.01) {
      const bool faulty = field.is_faulty(b, v);
      if (was_faulty) {
        ASSERT_TRUE(faulty) << "block " << b << " recovered at " << v;
      }
      was_faulty = faulty;
    }
  }
}

TEST_P(SeedSweep, MapEncodingMonotoneUnderVoltageSteps) {
  // Min-VDD encoding vs ladder placement: a block is faulty at vdd <= vf,
  // so stepping every ladder voltage *down* pushes each level deeper into
  // the failure region -- codes can only rise (more levels faulty), never
  // clear, and capacity at every level index is non-increasing. The dual
  // holds stepping up.
  Rng rng(GetParam() ^ 0xfa017u);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 2048, 512, rng);
  const std::vector<Volt> base = {0.55, 0.65, 0.75, 1.0};
  const FaultMap map(base, field.fail_voltages());
  for (Volt step : {0.01, 0.025, 0.05}) {
    std::vector<Volt> lowered = base, raised = base;
    for (auto& v : lowered) v -= step;
    for (auto& v : raised) v += step;
    const FaultMap down(lowered, field.fail_voltages());
    const FaultMap up(raised, field.fail_voltages());
    for (u64 b = 0; b < map.num_blocks(); ++b) {
      ASSERT_GE(down.code(b), map.code(b))
          << "block " << b << " code cleared when the ladder dropped by "
          << step;
      ASSERT_LE(up.code(b), map.code(b))
          << "block " << b << " code rose when the ladder rose by " << step;
    }
    for (u32 l = 1; l <= map.num_levels(); ++l) {
      EXPECT_LE(down.effective_capacity(l), map.effective_capacity(l));
      EXPECT_GE(up.effective_capacity(l), map.effective_capacity(l));
    }
  }
}

TEST_P(SeedSweep, MapCapacityMatchesFieldAtEveryLevel) {
  Rng rng(GetParam() ^ 0xabcdef);
  BerModel ber(Technology::soi45());
  const auto field = CellFaultField::sample_fast(ber, 4096, 512, rng);
  const std::vector<Volt> levels = {0.55, 0.65, 0.75, 1.0};
  const FaultMap map(levels, field.fail_voltages());
  for (u32 l = 1; l <= map.num_levels(); ++l) {
    EXPECT_NEAR(map.effective_capacity(l),
                field.effective_capacity(levels[l - 1]), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 17, 1234, 99999));

// ---------------------------------------------------------------------------
// Property: every SPEC profile drives every cache level with some traffic.
class ProfileSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileSweep, ProducesTrafficAtAllLevels) {
  auto trace = make_spec_trace(GetParam(), 5);
  u64 data = 0, code = 0, writes = 0;
  TraceEvent e;
  for (int i = 0; i < 50'000; ++i) {
    ASSERT_TRUE(trace->next(e));
    if (e.ref.ifetch) {
      ++code;
    } else {
      ++data;
      if (e.ref.write) ++writes;
    }
  }
  EXPECT_GT(data, 10'000u);
  EXPECT_GT(code, 100u);
  EXPECT_GT(writes, 100u);
}

INSTANTIATE_TEST_SUITE_P(AllSixteen, ProfileSweep,
                         ::testing::ValuesIn(spec_profile_names()));

// ---------------------------------------------------------------------------
// Property: yield model consistency -- PCS yield sits between conventional
// yield (no tolerance) and 1, and tracks capacity sensibly.
class VoltSweep : public ::testing::TestWithParam<double> {};

TEST_P(VoltSweep, YieldOrderingAtEveryVoltage) {
  const Volt v = GetParam();
  YieldModel ym(BerModel(Technology::soi45()),
                CacheOrg{2 * 1024 * 1024, 8, 64, 31});
  EXPECT_LE(ym.conventional_yield(v), ym.yield(v) + 1e-12);
  EXPECT_GE(ym.yield(v), 0.0);
  EXPECT_LE(ym.yield(v), 1.0);
  EXPECT_GE(ym.expected_capacity(v), 0.0);
  EXPECT_LE(ym.expected_capacity(v), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, VoltSweep,
                         ::testing::Values(0.45, 0.55, 0.65, 0.75, 0.85,
                                           0.95));

// ---------------------------------------------------------------------------
// Property: per-lane fault inclusion. One die, one cache per candidate VDD
// (descending): a lower VDD can only add faulty blocks, so each lane's
// faulty masks are per-set supersets of the lane above it, effective
// capacity is non-increasing -- and, because the lanes run true LRU over
// nested usable-way sets, the LRU stack property makes demand hits on the
// SAME address stream non-increasing as well.
class LaneSweepProps : public ::testing::TestWithParam<u64> {};

TEST_P(LaneSweepProps, FaultInclusionMonotoneAcrossVddLanes) {
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(Technology::soi45());
  Rng rng(GetParam());
  const auto field = CellFaultField::sample_fast(ber, org.num_blocks(),
                                                 org.bits_per_block(), rng);

  const std::vector<Volt> vdd = {1.0, 0.85, 0.75, 0.70, 0.65, 0.60, 0.55};
  std::vector<CacheLevel> lanes;
  lanes.reserve(vdd.size());
  for (std::size_t l = 0; l < vdd.size(); ++l) {
    CacheLevel& c = lanes.emplace_back("v" + std::to_string(l), org, 1);
    for (u64 s = 0; s < org.num_sets(); ++s) {
      for (u32 w = 0; w < org.assoc; ++w) {
        if (!(vdd[l] > field.block_fail_voltage(s * org.assoc + w))) {
          c.set_block_faulty(s, w, true);
        }
      }
    }
  }

  for (std::size_t l = 1; l < vdd.size(); ++l) {
    const CacheLevel& hi = lanes[l - 1];
    const CacheLevel& lo = lanes[l];
    for (u64 s = 0; s < org.num_sets(); ++s) {
      ASSERT_EQ(hi.faulty_mask(s) & lo.faulty_mask(s), hi.faulty_mask(s))
          << "set " << s << ": lane at " << vdd[l]
          << " V lost a fault present at " << vdd[l - 1] << " V";
    }
    EXPECT_LE(lo.effective_capacity(), hi.effective_capacity());
  }

  // Same decoded stream into every lane; recency state over nested
  // usable-way sets => the deeper lane can never out-hit the shallower one.
  Rng ops(GetParam() ^ 0x1a9e5u);
  for (u64 n = 0; n < 200'000; ++n) {
    const u64 r = ops.next_u64();
    for (CacheLevel& c : lanes) {
      c.access((r >> 7) & (4 * 64 * 1024 - 1), (r >> 6) & 1);
    }
  }
  for (std::size_t l = 1; l < vdd.size(); ++l) {
    EXPECT_LE(lanes[l].stats().hits, lanes[l - 1].stats().hits)
        << "lane at " << vdd[l] << " V out-hit the lane at " << vdd[l - 1]
        << " V on the same stream";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneSweepProps,
                         ::testing::Values(7u, 1234u, 99999u));

}  // namespace
}  // namespace pcs
