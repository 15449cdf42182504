// Population engine: the fleet-scale determinism contract (merged results
// and shard telemetry are invariant to thread count; merged results are
// also invariant to shard size), the per-chip binning kernel against the
// dense FaultMap reference, the histogram-derived statistics, and
// checkpoint resume: old sidecars, and each check an edited one fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/population_engine.hpp"
#include "exp/population_grid.hpp"
#include "fault/ber_model.hpp"
#include "fault/cell_fault_field.hpp"
#include "fault/fault_map.hpp"
#include "tech/technology.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

PopulationSpec small_spec(u64 chips) {
  PopulationSpec spec;
  spec.org.size_bytes = 16 * 1024;  // 256 blocks: fast enough for 100s of dies
  spec.num_chips = chips;
  spec.seed = 99;
  return spec;
}

// ---------------------------------------------------------------------------
// Grid ladder

TEST(PopulationSpec, GridCoversLoToHiInclusive) {
  const PopulationSpec spec;  // 0.45 .. 1.00 step 0.01
  const std::vector<Volt> g = spec.grid();
  ASSERT_EQ(g.size(), 56u);
  EXPECT_NEAR(g.front(), 0.45, 1e-12);
  EXPECT_NEAR(g.back(), 1.00, 1e-6);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_NEAR(g[i] - g[i - 1], 0.01, 1e-9);
  }
}

TEST(PopulationSpec, GridRejectsDegenerateLadders) {
  PopulationSpec spec;
  spec.grid_step = 0.0;
  EXPECT_THROW(spec.grid(), std::invalid_argument);
  spec.grid_step = -0.01;
  EXPECT_THROW(spec.grid(), std::invalid_argument);
  spec.grid_step = 0.01;
  spec.grid_lo = 1.10;  // above grid_hi: empty ladder
  EXPECT_THROW(spec.grid(), std::invalid_argument);

  // Ladders that would once have grown until std::bad_alloc (or, for a
  // step too small to move the sum, forever) are rejected by name, as are
  // non-finite fields.
  const auto expect_rejected = [](const PopulationSpec& s,
                                  const std::string& field) {
    try {
      (void)s.grid();
      ADD_FAILURE() << "ladder accepted; expected a rejection naming "
                    << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const PopulationSpec ok;
  PopulationSpec s = ok;
  s.grid_hi = 1e308;
  expect_rejected(s, "more than 1024 levels");
  s = ok;
  s.grid_step = 1e-300;
  expect_rejected(s, "grid_step");
  s = ok;
  s.grid_step = 1e-5;  // 55k levels: a 55k x 55k bin_floor_hist
  expect_rejected(s, "more than 1024 levels");
  s = ok;
  s.grid_lo = -1e308;  // adding the step never moves a sum this large
  s.grid_hi = -1e308;
  s.grid_step = 1.0;
  expect_rejected(s, "more than 1024 levels");
  for (const double bad : {kInf, -kInf, kNaN}) {
    s = ok;
    s.grid_lo = bad;
    expect_rejected(s, "grid_lo must be finite");
    s = ok;
    s.grid_hi = bad;
    expect_rejected(s, "grid_hi must be finite");
    s = ok;
    s.grid_step = bad;
    expect_rejected(s, "grid_step must be finite");
  }

  // The cap itself: 1024 levels pass, 1025 do not.
  s = ok;
  s.grid_lo = 0.0;
  s.grid_step = 1.0;
  s.grid_hi = static_cast<double>(kMaxPopulationLevels - 1);
  EXPECT_EQ(s.grid().size(), kMaxPopulationLevels);
  s.grid_hi += 1.0;
  expect_rejected(s, "more than 1024 levels");

  // Valid ladders are untouched: the default one is 0.45 + k * 0.01 summed
  // step by step, exactly as before the cap.
  const std::vector<Volt> g = ok.grid();
  ASSERT_EQ(g.size(), 56u);
  Volt v = ok.grid_lo;
  for (const Volt level : g) {
    EXPECT_EQ(level, v);
    v += ok.grid_step;
  }
}

// ---------------------------------------------------------------------------
// bin_chip vs the dense FaultMap reference

TEST(BinChip, MatchesDenseFaultMapReference) {
  const PopulationSpec spec = small_spec(0);
  const std::vector<Volt> grid = spec.grid();
  const BerModel ber(Technology::soi45());
  const u32 n = static_cast<u32>(grid.size());
  const RungCuts cuts(grid, ber.mu(), ber.sigma(), spec.org.bits_per_block());
  const u64 blocks = spec.org.num_blocks();
  std::vector<u64> draws(blocks);
  std::vector<u16> buckets(draws.size());
  std::vector<u64> rungs(n + 2);
  std::vector<u64> faulty_at(n + 2);

  for (u64 die = 0; die < 25; ++die) {
    // The same die twice: its draws, and the field sample_fast builds from
    // the same RNG stream.
    Rng draw_rng(derive_seed(spec.seed, 0, die));
    draw_rng.uniform_bits_block(draws);
    Rng rng(derive_seed(spec.seed, 0, die));
    CellFaultField field = CellFaultField::sample_fast(
        ber, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
    const FaultMap fm(grid, field.fail_voltages(), spec.org.assoc);

    u32 ref_floor = 0;
    for (u32 l = 1; l <= n; ++l) {
      if (fm.viable(spec.org.assoc, l)) {
        ref_floor = l;
        break;
      }
    }
    const u32 ref_spcs =
        fm.lowest_level_with_capacity(spec.org.assoc, spec.spcs_min_capacity);

    ChipBinPoint p;
    bin_chip(draws, cuts, std::span<const u64>(&blocks, 1),
             std::span<const u32>(&spec.org.assoc, 1), spec.spcs_min_capacity,
             buckets, rungs, faulty_at, std::span<ChipBinPoint>(&p, 1));
    EXPECT_EQ(p.floor_level, ref_floor) << "die " << die;
    if (ref_floor != 0) {
      EXPECT_EQ(p.spcs_level, ref_spcs) << "die " << die;
      const double cap = fm.effective_capacity(ref_floor);
      const u32 ref_bin = std::min(
          static_cast<u32>(cap * kPopulationCapacityBins),
          kPopulationCapacityBins - 1);
      EXPECT_EQ(p.capacity_bin, ref_bin) << "die " << die;
      EXPECT_GE(p.spcs_level, p.floor_level) << "die " << die;
    }
  }
}

TEST(PopulationEngine, RejectsSigmaTheCutsCannotUse) {
  // Bucketing blocks from their draws needs fail voltages that rise with
  // the draw: a non-finite or non-positive sigma (or a non-finite mu) is
  // refused by name before any die is drawn, by both engines.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const PopulationSpec spec = small_spec(10);
  PopulationGridSpec grid;
  grid.base = spec;
  grid.sizes_kb = {16};
  for (const double sigma : {kInf, kNaN, 0.0, -0.1}) {
    const BerModel ber(0.05, sigma);
    for (int engine = 0; engine < 2; ++engine) {
      try {
        if (engine == 0) {
          (void)PopulationEngine(ber, 1).run(spec);
        } else {
          (void)PopulationGridEngine(ber, 1).run(grid);
        }
        ADD_FAILURE() << "engine " << engine << " ran sigma " << sigma;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("population sigma must be finite "
                                             "and positive"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW((void)PopulationEngine(BerModel(kNaN, 0.15), 1).run(spec),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The determinism contract

TEST(PopulationEngine, ResultInvariantToThreadCountAndShardSize) {
  PopulationSpec spec = small_spec(300);
  const BerModel ber(Technology::soi45());
  const PopulationResult reference = PopulationEngine(ber, 1).run(spec);

  struct Case {
    u32 threads;
    u64 shard_chips;
  };
  for (const Case c : {Case{1, 17}, Case{3, 101}, Case{8, 4096}}) {
    spec.chips_per_shard = c.shard_chips;
    const PopulationResult got = PopulationEngine(ber, c.threads).run(spec);
    EXPECT_EQ(got, reference)
        << c.threads << " threads, " << c.shard_chips << " chips/shard";
  }
}

TEST(PopulationEngine, ShardTelemetryBytesInvariantToThreadCount) {
  PopulationSpec spec = small_spec(200);
  spec.chips_per_shard = 64;  // 4 shards (3 full + 1 partial of 8 chips)
  const BerModel ber(Technology::soi45());

  std::string bytes[2];
  const u32 threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    std::ostringstream out;
    JsonlTraceSink sink(out);
    PopulationEngine(ber, threads[i]).run(spec, &sink);
    bytes[i] = out.str();
  }
  EXPECT_EQ(bytes[0], bytes[1]);

  // One record per shard, in shard order, counting every chip exactly once.
  MemoryTraceSink mem;
  PopulationEngine(ber, 1).run(spec, &mem);
  ASSERT_EQ(mem.records().size(), 4u);
  u64 chips = 0;
  for (std::size_t s = 0; s < mem.records().size(); ++s) {
    const TraceRecord& r = mem.records()[s];
    EXPECT_STREQ(r.type(), "population_shard");
    ASSERT_EQ(r.fields().size(), 4u);
    EXPECT_STREQ(r.fields()[0].key, "shard");
    EXPECT_EQ(std::get<u64>(r.fields()[0].value), s);
    EXPECT_STREQ(r.fields()[1].key, "first_chip");
    EXPECT_EQ(std::get<u64>(r.fields()[1].value), s * 64);
    EXPECT_STREQ(r.fields()[2].key, "chips");
    chips += std::get<u64>(r.fields()[2].value);
    EXPECT_STREQ(r.fields()[3].key, "unusable");
  }
  EXPECT_EQ(chips, 200u);
}

TEST(PopulationEngine, ReportBytesInvariantToThreadCountAndShardSize) {
  PopulationSpec spec = small_spec(250);
  const BerModel ber(Technology::soi45());
  std::ostringstream ref;
  render_population_report(spec, PopulationEngine(ber, 1).run(spec), ref);
  EXPECT_NE(ref.str().find("fleet yield vs VDD:"), std::string::npos);
  EXPECT_NE(ref.str().find("SPCS bins"), std::string::npos);

  spec.chips_per_shard = 23;
  std::ostringstream got;
  render_population_report(spec, PopulationEngine(ber, 8).run(spec), got);
  EXPECT_EQ(got.str(), ref.str());
}

// ---------------------------------------------------------------------------
// Histogram bookkeeping

TEST(PopulationEngine, HistogramTotalsAreConsistent) {
  const PopulationSpec spec = small_spec(400);
  const BerModel ber(Technology::soi45());
  const PopulationResult r = PopulationEngine(ber, 2).run(spec);

  EXPECT_EQ(r.num_chips, 400u);
  u64 floors = 0, spcs = 0, caps = 0, joint = 0;
  for (const u64 c : r.floor_hist) floors += c;
  for (const u64 c : r.spcs_hist) spcs += c;
  for (const u64 c : r.capacity_hist) caps += c;
  for (const u64 c : r.bin_floor_hist) joint += c;
  EXPECT_EQ(floors, r.usable());
  EXPECT_EQ(caps, r.usable());
  EXPECT_EQ(spcs + r.no_spcs, r.usable());
  EXPECT_EQ(joint, spcs);
  EXPECT_EQ(r.viable_at(r.num_levels()), r.usable());
  // Yield is a CDF: non-decreasing in the ladder level.
  for (u32 l = 2; l <= r.num_levels(); ++l) {
    EXPECT_GE(r.yield_at(l), r.yield_at(l - 1));
  }
  // The sweep must find real dies on the default soi45 ladder.
  EXPECT_GT(r.usable(), 0u);
}

TEST(PopulationEngine, LadderBelowEveryFailVoltageYieldsNothing) {
  PopulationSpec spec = small_spec(50);
  spec.grid_lo = 0.05;  // far below any soi45 cell fail voltage
  spec.grid_hi = 0.10;
  const BerModel ber(Technology::soi45());
  const PopulationResult r = PopulationEngine(ber, 1).run(spec);
  EXPECT_EQ(r.unusable, 50u);
  EXPECT_EQ(r.usable(), 0u);
  for (const u64 c : r.capacity_hist) EXPECT_EQ(c, 0u);
  EXPECT_EQ(r.yield_at(r.num_levels()), 0.0);
}

TEST(PopulationEngine, ZeroChipsProducesEmptyResultAndNoRecords) {
  const PopulationSpec spec = small_spec(0);
  const BerModel ber(Technology::soi45());
  MemoryTraceSink mem;
  const PopulationResult r = PopulationEngine(ber, 4).run(spec, &mem);
  EXPECT_EQ(r.num_chips, 0u);
  EXPECT_EQ(r.usable(), 0u);
  EXPECT_TRUE(mem.records().empty());
}

// ---------------------------------------------------------------------------
// Derived statistics on hand-built histograms

TEST(PopulationResult, MeanAndQuantilesUseCountRanks) {
  PopulationResult r;
  r.grid = {0.5, 0.6, 0.7};
  const std::vector<u64> hist = {1, 2, 1};  // ranks: 1 | 2 3 | 4
  EXPECT_NEAR(r.mean_vdd(hist), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.5), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.75), 0.6, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 0.76), 0.7, 1e-12);
  EXPECT_NEAR(r.quantile_vdd(hist, 1.0), 0.7, 1e-12);
  const std::vector<u64> empty = {0, 0, 0};
  EXPECT_EQ(r.mean_vdd(empty), 0.0);
  EXPECT_EQ(r.quantile_vdd(empty, 0.5), 0.0);
}

TEST(PopulationResult, MergeRejectsGridMismatch) {
  const PopulationSpec spec = small_spec(10);
  const BerModel ber(Technology::soi45());
  PopulationResult a = PopulationEngine(ber, 1).run(spec);
  PopulationSpec other = spec;
  other.grid_step = 0.02;
  const PopulationResult b = PopulationEngine(ber, 1).run(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Shard-range checkpoint / resume

TEST(PopulationEngine, CheckpointRoundTripsAndResumesByteIdentically) {
  PopulationSpec spec = small_spec(200);
  spec.chips_per_shard = 32;  // 7 shards (last one short)
  const BerModel ber(Technology::soi45());
  const PopulationResult full = PopulationEngine(ber, 1).run(spec);

  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck.txt";
  std::remove(path.c_str());

  // Interrupt after the second sidecar write, then resume: the merged
  // histograms and the rendered report must be byte-identical, and the
  // resumed run's telemetry must cover exactly the shards it ran.
  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = 2;
  struct StopRun {};
  ckpt.on_checkpoint = [](u64 done) {
    if (done == 4) throw StopRun{};
  };
  EXPECT_THROW(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt), StopRun);

  ckpt.on_checkpoint = nullptr;
  ckpt.resume = true;
  MemoryTraceSink mem;
  const PopulationResult resumed =
      PopulationEngine(ber, 1).run(spec, &mem, &ckpt);
  EXPECT_EQ(resumed, full);
  ASSERT_EQ(mem.records().size(), 3u);  // shards 4, 5, 6 only
  EXPECT_EQ(std::get<u64>(mem.records()[0].fields()[0].value), 4u);

  std::ostringstream a, b;
  render_population_report(spec, resumed, a);
  render_population_report(spec, full, b);
  EXPECT_EQ(a.str(), b.str());

  // A second resume of a finished run re-runs nothing.
  MemoryTraceSink none;
  EXPECT_EQ(PopulationEngine(ber, 1).run(spec, &none, &ckpt), full);
  EXPECT_TRUE(none.records().empty());
  std::remove(path.c_str());
}

namespace {

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

}  // namespace

TEST(PopulationEngine, RejectedSidecarWarningNamesPathAndCheck) {
  PopulationSpec spec = small_spec(64);
  const BerModel ber(Technology::soi45());
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_bad.txt";
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.path = path;
  PopulationEngine(ber, 1).run(spec, nullptr, &ckpt);
  const std::string valid = slurp_file(path);

  // Resuming `s` under `model` from the sidecar at `path` starts fresh,
  // with a warning on stderr naming the path and `check`.
  ckpt.resume = true;
  const auto expect_warning = [&](const BerModel& model,
                                  const PopulationSpec& s,
                                  const std::string& check) {
    const PopulationEngine engine(model, 1);
    ::testing::internal::CaptureStderr();
    const PopulationResult r = engine.run(s, nullptr, &ckpt);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(r, engine.run(s)) << check;
    EXPECT_NE(warning.find("checkpoint sidecar rejected, starting fresh"),
              std::string::npos)
        << warning;
    EXPECT_NE(warning.find("'" + path + "'"), std::string::npos) << warning;
    EXPECT_NE(warning.find(check), std::string::npos) << warning;
  };
  PopulationSpec other = spec;
  other.num_chips += 1;
  expect_warning(ber, other, "fingerprint mismatch");
  // A sigma change is also a different run (the fingerprint covers the
  // fault model, not just the spec fields).
  const BerModel wider(ber.mu(), ber.sigma() * 1.15);
  spit_file(path, valid);
  expect_warning(wider, spec, "fingerprint mismatch");
  spit_file(path, valid.substr(0, valid.find("shards_done")));
  expect_warning(ber, spec, "truncated at shards_done");

  // A missing sidecar is not an error: the run starts fresh, silently.
  std::remove(path.c_str());
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt),
            PopulationEngine(ber, 1).run(spec));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  std::remove(path.c_str());
}

// Every sidecar rejection path falls back to a clean start whose result
// and report are byte-identical to an uninterrupted run, and the next save
// overwrites the bad sidecar.
TEST(PopulationEngine, RejectedSidecarFallsBackToCleanStart) {
  PopulationSpec spec = small_spec(64);
  spec.chips_per_shard = 16;  // 4 shards
  const BerModel ber(Technology::soi45());
  const PopulationResult fresh = PopulationEngine(ber, 1).run(spec);
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_fallback.txt";
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.path = path;
  PopulationEngine(ber, 1).run(spec, nullptr, &ckpt);
  const std::string valid = slurp_file(path);
  ASSERT_NE(valid.find("points 1"), std::string::npos);
  ckpt.resume = true;

  // Fingerprint mismatch: the sidecar belongs to `spec`, the run is for a
  // different seed. All four shards re-run; telemetry proves it.
  PopulationSpec other = spec;
  other.seed += 1;
  const PopulationResult other_fresh = PopulationEngine(ber, 1).run(other);
  MemoryTraceSink mem;
  EXPECT_EQ(PopulationEngine(ber, 1).run(other, &mem, &ckpt), other_fresh);
  EXPECT_EQ(mem.records().size(), 4u);

  // Shape mismatch: same fingerprint, wrong point count.
  std::string reshaped = valid;
  reshaped.replace(reshaped.find("points 1"), 8, "points 2");
  spit_file(path, reshaped);
  EXPECT_EQ(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt), fresh);

  // Truncated sidecar (mid-file cut), then outright garbage.
  spit_file(path, valid.substr(0, valid.size() / 2));
  const PopulationResult after_truncated =
      PopulationEngine(ber, 1).run(spec, nullptr, &ckpt);
  EXPECT_EQ(after_truncated, fresh);
  spit_file(path, "not a checkpoint\n");
  EXPECT_EQ(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt), fresh);

  // Watermark past the end of the run (a sidecar from a longer run).
  std::string overrun = valid;
  const std::size_t wm = overrun.find("shards_done ");
  ASSERT_NE(wm, std::string::npos);
  overrun.replace(wm, overrun.find('\n', wm) - wm, "shards_done 99");
  spit_file(path, overrun);
  EXPECT_EQ(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt), fresh);

  // The fallback run's report is byte-identical to the uninterrupted one,
  // and the rejected sidecar was overwritten by a valid final save.
  std::ostringstream a, b;
  render_population_report(spec, after_truncated, a);
  render_population_report(spec, fresh, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(slurp_file(path), valid);
  std::remove(path.c_str());
}

// The grid engine shares the loader and must fall back the same way.
TEST(PopulationGridEngine, RejectedSidecarFallsBackToCleanStart) {
  PopulationGridSpec spec;
  spec.base = small_spec(48);
  spec.base.chips_per_shard = 16;
  spec.sizes_kb = {16, 32};
  spec.assocs = {4};
  spec.sigmas = {1.0};
  const BerModel ber(Technology::soi45());
  PopulationGridEngine engine(ber, 1);
  const PopulationGridResult fresh = engine.run(spec);

  const std::string path =
      std::string(::testing::TempDir()) + "pcs_grid_ck_fallback.txt";
  std::remove(path.c_str());
  CheckpointOptions ckpt;
  ckpt.path = path;
  engine.run(spec, nullptr, &ckpt);

  ckpt.resume = true;
  spit_file(path, "not a checkpoint\n");
  const PopulationGridResult resumed = engine.run(spec, nullptr, &ckpt);
  ASSERT_EQ(resumed.points.size(), fresh.points.size());
  for (std::size_t i = 0; i < fresh.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i].result, fresh.points[i].result);
  }
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// Sidecars from before run_fleet, and the resume checks

// The spec behind the sidecars below: 3 shards of 16 dies on a six-rung
// ladder, so a sidecar fits in a few lines.
PopulationSpec sidecar_spec() {
  PopulationSpec spec = small_spec(48);
  spec.chips_per_shard = 16;
  spec.grid_lo = 0.55;
  spec.grid_hi = 0.80;
  spec.grid_step = 0.05;
  return spec;
}

PopulationGridSpec sidecar_grid() {
  PopulationGridSpec grid;
  grid.base = sidecar_spec();
  grid.sizes_kb = {8, 16};
  grid.assocs = {4};
  grid.sigmas = {0.1585};
  return grid;
}

// Written by each engine before both ran on run_fleet, interrupted
// after shard 2 (population) and shard 1 (grid): same format, same
// fingerprints.
constexpr const char* kOldPopulationSidecar =
    "pcs-population-checkpoint v1\n"
    "fingerprint 3777692637723427159\n"
    "shards_done 2\n"
    "points 1\n"
    "point 0\n"
    "num_chips 32\n"
    "unusable 0\n"
    "no_spcs 0\n"
    "floor_hist 14 17 1 0 0 0\n"
    "spcs_hist 0 0 0 16 15 1\n"
    "capacity_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
    " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0"
    " 0 0 0 6 2 3 0 0 1 0 0 0 1 0 0 0 0 0 0 1 0 0 3 3 3 2 1 3 0 1 0 0 0 1"
    " 0 0 0 0\n"
    "bin_floor_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 7 9 0 0 0 0 6 8 1"
    " 0 0 0 1 0 0 0 0 0\n"
    "end\n";

constexpr const char* kOldGridSidecar =
    "pcs-population-checkpoint v1\n"
    "fingerprint 11730581791864421385\n"
    "shards_done 1\n"
    "points 2\n"
    "point 0\n"
    "num_chips 16\n"
    "unusable 0\n"
    "no_spcs 0\n"
    "floor_hist 11 5 0 0 0 0\n"
    "spcs_hist 0 0 0 11 4 1\n"
    "capacity_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
    " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0"
    " 0 0 4 0 1 2 1 1 0 0 1 0 0 0 0 0 0 0 0 1 0 0 0 1 1 2 0 0 0 0 0 0 0 0"
    " 0 0 0 0\n"
    "bin_floor_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 7 4 0 0 0 0 3 1 0"
    " 0 0 0 1 0 0 0 0 0\n"
    "point 1\n"
    "num_chips 16\n"
    "unusable 0\n"
    "no_spcs 0\n"
    "floor_hist 9 6 1 0 0 0\n"
    "spcs_hist 0 0 0 9 6 1\n"
    "capacity_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"
    " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0"
    " 0 0 0 4 1 2 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 2 1 1 0 1 1 0 0 0 0 0 1"
    " 0 0 0 0\n"
    "bin_floor_hist 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 5 4 0 0 0 0 3 2 1"
    " 0 0 0 1 0 0 0 0 0\n"
    "end\n";

std::vector<PopulationResult> grid_results(const PopulationGridResult& g) {
  std::vector<PopulationResult> out;
  for (const PopulationGridPointResult& p : g.points) out.push_back(p.result);
  return out;
}

TEST(PopulationEngine, ResumesASidecarWrittenBeforeRunFleet) {
  const PopulationSpec spec = sidecar_spec();
  const BerModel ber(Technology::soi45());
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_pop_ck_old.txt";
  std::remove(path.c_str());

  // The same interrupted run still writes the same bytes...
  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = 1;
  struct StopRun {};
  ckpt.on_checkpoint = [](u64 done) {
    if (done == 2) throw StopRun{};
  };
  EXPECT_THROW(PopulationEngine(ber, 1).run(spec, nullptr, &ckpt), StopRun);
  EXPECT_EQ(slurp_file(path), kOldPopulationSidecar);

  // ... and the old sidecar resumes without a warning: only shard 2 runs,
  // and the report is byte-identical to an uninterrupted run's.
  spit_file(path, kOldPopulationSidecar);
  ckpt.on_checkpoint = nullptr;
  ckpt.resume = true;
  MemoryTraceSink mem;
  ::testing::internal::CaptureStderr();
  const PopulationResult resumed =
      PopulationEngine(ber, 1).run(spec, &mem, &ckpt);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(mem.records().size(), 1u);
  EXPECT_EQ(std::get<u64>(mem.records()[0].fields()[0].value), 2u);
  const PopulationResult fresh = PopulationEngine(ber, 1).run(spec);
  EXPECT_EQ(resumed, fresh);
  std::ostringstream a, b;
  render_population_report(spec, resumed, a);
  render_population_report(spec, fresh, b);
  EXPECT_EQ(a.str(), b.str());
  std::remove(path.c_str());
}

TEST(PopulationGridEngine, ResumesASidecarWrittenBeforeRunFleet) {
  const PopulationGridSpec spec = sidecar_grid();
  const BerModel ber(Technology::soi45());
  const std::string path =
      std::string(::testing::TempDir()) + "pcs_grid_ck_old.txt";
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = 1;
  struct StopRun {};
  ckpt.on_checkpoint = [](u64 done) {
    if (done == 1) throw StopRun{};
  };
  EXPECT_THROW(PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt),
               StopRun);
  EXPECT_EQ(slurp_file(path), kOldGridSidecar);

  // The old sidecar resumes without a warning: shards 1 and 2 run, so the
  // saves after them are the only ones.
  spit_file(path, kOldGridSidecar);
  std::vector<u64> saves;
  ckpt.on_checkpoint = [&saves](u64 done) { saves.push_back(done); };
  ckpt.resume = true;
  ::testing::internal::CaptureStderr();
  const PopulationGridResult resumed =
      PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(saves, (std::vector<u64>{2, 3}));
  const PopulationGridResult fresh = PopulationGridEngine(ber, 1).run(spec);
  EXPECT_EQ(grid_results(resumed), grid_results(fresh));
  std::ostringstream a, b;
  render_population_grid_report(spec, resumed, a);
  render_population_grid_report(spec, fresh, b);
  EXPECT_EQ(a.str(), b.str());
  std::remove(path.c_str());
}

/// `sidecar` with the counts of its first `label` line (point 0's) passed
/// through `edit`.
std::string edit_line(
    const std::string& sidecar, const std::string& label,
    const std::function<void(std::vector<std::string>&)>& edit) {
  const std::size_t at = sidecar.find("\n" + label + " ") + 1;
  const std::size_t end = sidecar.find('\n', at);
  std::istringstream in(sidecar.substr(at + label.size(),
                                       end - at - label.size()));
  std::vector<std::string> counts;
  for (std::string c; in >> c;) counts.push_back(c);
  edit(counts);
  std::string line = label;
  for (const std::string& c : counts) line += " " + c;
  return sidecar.substr(0, at) + line + sidecar.substr(end);
}

/// One edit per resume check, each tripping only that check, with the
/// words the rejection names the check by.
struct SidecarEdit {
  std::string check;
  std::string label;
  std::function<void(std::vector<std::string>&)> edit;
};

std::vector<SidecarEdit> sidecar_edits() {
  const auto first_nonzero = [](std::vector<std::string>& v) -> std::string& {
    return *std::find_if(v.begin(), v.end(),
                         [](const std::string& c) { return c != "0"; });
  };
  const auto bump = [](std::string& c, u64 by) {
    c = std::to_string(std::stoull(c) + by);
  };
  return {
      {"num_chips of point 0 is not the watermark's", "num_chips",
       [=](auto& v) { bump(v[0], 8000); }},
      {"floor_hist + unusable of point 0", "floor_hist",
       [=](auto& v) { bump(first_nonzero(v), 500); }},
      // A u64 sum that wraps past 2^64 - 1 would balance again.
      {"floor_hist + unusable of point 0", "floor_hist",
       [=](auto& v) {
         bump(first_nonzero(v), 1);
         v.back() = "18446744073709551615";
       }},
      {"capacity_hist of point 0", "capacity_hist",
       [=](auto& v) { bump(first_nonzero(v), 1); }},
      {"spcs_hist + no_spcs of point 0", "spcs_hist",
       [=](auto& v) { bump(first_nonzero(v), 1); }},
      {"bin_floor_hist row", "bin_floor_hist",
       [=](auto& v) { bump(first_nonzero(v), 1); }},
      {"unusable is not a decimal u64", "unusable",
       [](auto& v) { v[0] = "-1"; }},
      {"floor_hist is not a decimal u64", "floor_hist",
       [](auto& v) { v[0] = "+" + v[0]; }},
      {"token longer than 32 bytes", "floor_hist",
       [](auto& v) { v[0] = std::string(33, '0'); }},
  };
}

/// Resumes `run` from each edit of the `valid` sidecar: the resume warns on
/// stderr naming the path and the check, and matches a fresh run.
template <class Run>
void expect_every_edit_rejected(const std::string& valid,
                                const std::string& path, const Run& run) {
  const auto fresh = run(nullptr);
  for (const SidecarEdit& e : sidecar_edits()) {
    const std::string edited = edit_line(valid, e.label, e.edit);
    ASSERT_NE(edited, valid) << e.check;
    CheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.resume = true;
    spit_file(path, edited);
    ::testing::internal::CaptureStderr();
    const auto resumed = run(&ckpt);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(resumed == fresh) << e.check;
    EXPECT_NE(warning.find("rejected, starting fresh"), std::string::npos)
        << warning;
    EXPECT_NE(warning.find("'" + path + "'"), std::string::npos) << warning;
    EXPECT_NE(warning.find(e.check), std::string::npos) << warning;
  }
  std::remove(path.c_str());
}

TEST(PopulationEngine, EditedSidecarIsRejectedByEveryCheck) {
  const PopulationSpec spec = sidecar_spec();
  const BerModel ber(Technology::soi45());
  expect_every_edit_rejected(
      kOldPopulationSidecar,
      std::string(::testing::TempDir()) + "pcs_pop_ck_edited.txt",
      [&](const CheckpointOptions* ckpt) {
        return PopulationEngine(ber, 1).run(spec, nullptr, ckpt);
      });
}

TEST(PopulationGridEngine, EditedSidecarIsRejectedByEveryCheck) {
  const PopulationGridSpec spec = sidecar_grid();
  const BerModel ber(Technology::soi45());
  expect_every_edit_rejected(
      kOldGridSidecar,
      std::string(::testing::TempDir()) + "pcs_grid_ck_edited.txt",
      [&](const CheckpointOptions* ckpt) {
        return grid_results(
            PopulationGridEngine(ber, 1).run(spec, nullptr, ckpt));
      });
}

}  // namespace
}  // namespace pcs
