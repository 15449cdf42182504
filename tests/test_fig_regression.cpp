// Golden figure-regression suite: a shrunk Fig. 4 grid (2 configs x 2
// workloads, 50k refs) run point by point through run_one, with the
// paper-shape invariants from the fig4 bench header asserted so that figure
// drift fails CI instead of waiting for someone to eyeball the tables.
// SweepRunner, which the fig4 bench runs, must reproduce that grid.
//
// hmmer (small hot working set, descends deepest) and libquantum (pure
// streaming) are used because their shapes are the most robust at short
// trace lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "exp/population_engine.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/ber_model.hpp"
#include "fault/cell_fault_field.hpp"
#include "run_one_loop.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

struct FigRow {
  SimReport base, spcs, dpcs;
};

/// The shrunk Fig. 4 grid every golden assertion runs against.
ExperimentGrid golden_grid() {
  RunParams rp;
  rp.max_refs = 50'000;
  rp.warmup_refs = 12'500;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_config(SystemConfig::config_b())
      .add_workload("hmmer")
      .add_workload("libquantum")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  return grid;
}

class FigRegression : public ::testing::Test {
 protected:
  // One grid run shared by every assertion in the suite.
  static void SetUpTestSuite() {
    reports_ =
        new std::vector<SimReport>(run_one_loop(golden_grid().expand()));
    rows_ = new std::vector<FigRow>;
    for (u64 i = 0; i < reports_->size(); i += 3) {
      rows_->push_back(
          {(*reports_)[i], (*reports_)[i + 1], (*reports_)[i + 2]});
    }
  }
  static void TearDownTestSuite() {
    delete rows_;
    rows_ = nullptr;
    delete reports_;
    reports_ = nullptr;
  }

  // Grid order: (A,hmmer), (A,libquantum), (B,hmmer), (B,libquantum).
  static std::vector<FigRow>* rows_;
  static std::vector<SimReport>* reports_;  ///< flat, in grid order
};

std::vector<FigRow>* FigRegression::rows_ = nullptr;
std::vector<SimReport>* FigRegression::reports_ = nullptr;

TEST_F(FigRegression, EnergyOrderingDpcsLeSpcsLeBaseline) {
  for (const auto& r : *rows_) {
    const double eb = r.base.total_cache_energy();
    const double es = r.spcs.total_cache_energy();
    const double ed = r.dpcs.total_cache_energy();
    EXPECT_LT(es, eb) << r.base.config_name << "/" << r.base.workload;
    // DPCS >= SPCS savings "nearly everywhere" (fig4 header); on these two
    // robust workloads it must hold outright.
    EXPECT_LE(ed, es) << r.base.config_name << "/" << r.base.workload;
  }
}

TEST_F(FigRegression, SavingsStayInPaperShapeBand) {
  for (const auto& r : *rows_) {
    const double eb = r.base.total_cache_energy();
    const double spcs_save = 1.0 - r.spcs.total_cache_energy() / eb;
    const double dpcs_save = 1.0 - r.dpcs.total_cache_energy() / eb;
    // Paper: SPCS ~55%, DPCS ~69%; substrate band documented in
    // EXPERIMENTS.md is 50-62%. Fail on anything drifting out of 35-80%.
    EXPECT_GT(spcs_save, 0.35) << r.base.config_name << "/"
                               << r.base.workload;
    EXPECT_LT(spcs_save, 0.80) << r.base.config_name << "/"
                               << r.base.workload;
    EXPECT_GT(dpcs_save, 0.35) << r.base.config_name << "/"
                               << r.base.workload;
    EXPECT_LT(dpcs_save, 0.80) << r.base.config_name << "/"
                               << r.base.workload;
  }
}

TEST_F(FigRegression, PerfOverheadBounded) {
  for (const auto& r : *rows_) {
    const double os =
        static_cast<double>(r.spcs.cycles) / static_cast<double>(r.base.cycles) -
        1.0;
    const double od =
        static_cast<double>(r.dpcs.cycles) / static_cast<double>(r.base.cycles) -
        1.0;
    // SPCS never transitions mid-run: overhead stays in the noise band.
    EXPECT_LT(os, 0.05) << r.base.config_name << "/" << r.base.workload;
    // DPCS bound: paper 2.6% (A) / 4.4% (B) on an OoO core; our blocking
    // core magnifies ~3x (EXPERIMENTS.md), so 15% is the drift alarm.
    EXPECT_LT(od, 0.15) << r.base.config_name << "/" << r.base.workload;
  }
}

TEST_F(FigRegression, DpcsActuallyScalesVoltageDown) {
  for (const auto& r : *rows_) {
    EXPECT_LT(r.spcs.l2.avg_vdd, 1.0) << r.base.workload;
    // DPCS must descend at least as deep as SPCS on these workloads.
    EXPECT_LE(r.dpcs.l2.avg_vdd, r.spcs.l2.avg_vdd + 1e-9)
        << r.base.config_name << "/" << r.base.workload;
    // Baseline stays pinned at nominal.
    EXPECT_DOUBLE_EQ(r.base.l2.avg_vdd, 1.0);
  }
}

TEST_F(FigRegression, ReportsAreInternallyConsistent) {
  for (const auto& r : *rows_) {
    for (const SimReport* rep : {&r.base, &r.spcs, &r.dpcs}) {
      EXPECT_EQ(rep->refs, 50'000u);
      EXPECT_GT(rep->cycles, 0u);
      EXPECT_GT(rep->total_cache_energy(), 0.0);
      EXPECT_GT(rep->l1i.accesses, 0u);
      EXPECT_GT(rep->l1d.accesses, 0u);
      EXPECT_GT(rep->l2.accesses, 0u);
    }
  }
}

// SweepRunner must reproduce the golden grid bit for bit: the fig4 bench
// runs through it, so every field of every SimReport (energy breakdowns
// included) has to match the run_one goldens at 1 thread and at 8.
TEST_F(FigRegression, SweepEngineReproducesGoldenGrid) {
  for (const u32 threads : {1u, 8u}) {
    SweepOptions opt;
    opt.num_threads = threads;
    opt.max_lanes = 16;
    const auto got = SweepRunner(opt).run(golden_grid());
    ASSERT_EQ(got.size(), reports_->size()) << threads << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], (*reports_)[i])
          << "grid point " << i << " at " << threads << " threads";
    }
  }
}

// Same pin for the fig3d Monte-Carlo path: the draw-cut kernel must give
// the pass counts of the bench's original chain kernel (sample_fast, a
// per-set min / max fold, then a per-voltage count_if scan), at 1 and 8
// threads, and the bench's default 2000 trials keep their integer counts.
TEST_F(FigRegression, SweepYieldKernelsReproduceFig3Goldens) {
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};  // L1 Config A, as in the bench
  BerModel ber(tech);
  const u64 trials = 256, mc_seed = 7;
  const std::vector<Volt> probes = {0.60, 0.625, 0.65, 0.70, 0.75};

  // The chain kernel, verbatim from the original bench/fig3_yield.cpp.
  std::vector<float> chip_vf(trials);
  for (u64 i = 0; i < trials; ++i) {
    Rng rng(derive_seed(mc_seed, 0, i));
    const auto field = CellFaultField::sample_fast(
        ber, org.num_blocks(), org.bits_per_block(), rng);
    float worst_set = 0.0f;
    for (u64 s = 0; s < org.num_sets(); ++s) {
      float best_way = 2.0f;
      for (u32 w = 0; w < org.assoc; ++w) {
        best_way = std::min(
            best_way,
            static_cast<float>(field.block_fail_voltage(s * org.assoc + w)));
      }
      worst_set = std::max(worst_set, best_way);
    }
    chip_vf[i] = worst_set;
  }
  std::vector<u64> want(probes.size());
  for (std::size_t k = 0; k < probes.size(); ++k) {
    want[k] = static_cast<u64>(
        std::count_if(chip_vf.begin(), chip_vf.end(),
                      [&](float vf) { return probes[k] > vf; }));
  }

  for (const u32 threads : {1u, 8u}) {
    EXPECT_EQ(yield_pass_counts_mc(trials, mc_seed, ber, org, probes, threads),
              want)
        << threads << " threads";
  }
  EXPECT_EQ(yield_pass_counts_mc(2000, mc_seed, ber, org, probes, 8),
            (std::vector<u64>{1889, 1981, 1996, 1999, 2000}));
}

// Golden pins for the fleet-population path (Fig. 3 / Fig. 5 as a
// population claim): a 1000-die run of the default 64 KB 4-way design on
// the default ladder, with the merged histograms pinned through exact
// integer counts and level-weighted checksums. The engine's determinism
// contract makes these bit-stable at any thread count or shard size, so
// any change here is a real model change, not scheduling noise.
TEST(PopulationGolden, ThousandDieFleetPins) {
  PopulationSpec spec;  // 64 KB 4-way, seed 2024, 0.45..1.00 V step 0.01
  spec.num_chips = 1'000;
  const BerModel ber(Technology::soi45());
  const PopulationResult r = PopulationEngine(ber, 8).run(spec);

  ASSERT_EQ(r.num_levels(), 56u);
  EXPECT_EQ(r.num_chips, 1'000u);
  EXPECT_EQ(r.unusable, 0u);
  EXPECT_EQ(r.no_spcs, 0u);

  // Level-weighted checksums pin the shape of every per-level histogram.
  u64 floor_ck = 0, spcs_ck = 0, cap_ck = 0, joint_ck = 0;
  for (u32 l = 1; l <= r.num_levels(); ++l) {
    floor_ck += l * r.floor_hist[l - 1];
    spcs_ck += l * r.spcs_hist[l - 1];
  }
  for (u32 b = 0; b < kPopulationCapacityBins; ++b) {
    cap_ck += (b + 1) * r.capacity_hist[b];
  }
  for (std::size_t i = 0; i < r.bin_floor_hist.size(); ++i) {
    joint_ck += (i + 1) * r.bin_floor_hist[i];
  }
  EXPECT_EQ(floor_ck, 13'718u);
  EXPECT_EQ(spcs_ck, 26'480u);
  EXPECT_EQ(cap_ck, 80'073u);
  EXPECT_EQ(joint_ck, 1'440'598u);

  // Distribution pins: ladder voltages, so exact comparisons are safe.
  EXPECT_NEAR(r.quantile_vdd(r.floor_hist, 0.5), 0.58, 1e-9);
  EXPECT_NEAR(r.quantile_vdd(r.floor_hist, 0.99), 0.62, 1e-9);
  EXPECT_NEAR(r.quantile_vdd(r.spcs_hist, 0.5), 0.70, 1e-9);
  EXPECT_EQ(r.viable_at(21), 999u);    // yield at 0.65 V: 99.9%
  EXPECT_EQ(r.viable_at(26), 1'000u);  // yield at 0.70 V: 100%
}

}  // namespace
}  // namespace pcs
