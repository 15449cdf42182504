// Population grid engine: every grid point bit-identical to a standalone
// PopulationEngine run of that point's spec (the sample-once contract),
// exact sigma monotonicity of the floor distribution, thread/shard
// invariance, the population_grid_point telemetry stream, and shard-range
// checkpoint/resume -- including a fork/kill test that tears a real run
// down mid-flight and proves the resumed result is byte-identical.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "exp/population_engine.hpp"
#include "exp/population_grid.hpp"
#include "fault/ber_model.hpp"
#include "tech/technology.hpp"
#include "telemetry/trace_sink.hpp"

namespace pcs {
namespace {

PopulationGridSpec small_grid(u64 chips) {
  PopulationGridSpec spec;
  spec.base.org.size_bytes = 16 * 1024;
  spec.base.num_chips = chips;
  spec.base.seed = 99;
  spec.base.chips_per_shard = 64;
  spec.sizes_kb = {8, 16};  // 128 / 256 blocks
  spec.assocs = {2, 4};
  spec.sigmas = {0.1426, 0.1585, 0.1823};  // 0.9x, 1.0x, 1.15x soi45
  return spec;
}

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

// ---------------------------------------------------------------------------
// Spec validation

TEST(PopulationGridSpec, RejectsDegenerateAxes) {
  PopulationGridSpec spec = small_grid(10);
  spec.sizes_kb.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid(10);
  spec.assocs = {2, 4, 2};  // duplicate
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid(10);
  spec.sigmas = {0.1, 0.0};  // non-positive sigma
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid(10);
  spec.sigmas = {0.1, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_grid(10);
  spec.sizes_kb = {63};  // set count not a power of two
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_grid(10).validate());
}

TEST(PopulationGridSpec, SigmaAxisFallsBackToTheModelSigma) {
  PopulationGridSpec spec = small_grid(10);
  spec.sigmas.clear();
  const std::vector<Volt> axis = spec.sigma_axis(0.25);
  ASSERT_EQ(axis.size(), 1u);
  EXPECT_EQ(axis[0], 0.25);
  EXPECT_EQ(spec.num_points(), 4u);  // 2 sizes x 2 assocs x 1 sigma
}

// ---------------------------------------------------------------------------
// The tentpole contract: per-point bit-identity with standalone runs

TEST(PopulationGridEngine, EveryPointBitIdenticalToStandaloneEngine) {
  const PopulationGridSpec spec = small_grid(150);
  const BerModel ber(Technology::soi45());
  const PopulationGridResult grid =
      PopulationGridEngine(ber, 4).run(spec);
  ASSERT_EQ(grid.points.size(), 12u);

  std::size_t p = 0;
  for (const u64 size_kb : spec.sizes_kb) {
    for (const u32 assoc : spec.assocs) {
      for (const Volt sigma : spec.sigmas) {
        const PopulationGridPointResult& pt = grid.points[p++];
        EXPECT_EQ(pt.size_kb, size_kb);
        EXPECT_EQ(pt.assoc, assoc);
        EXPECT_EQ(pt.sigma, sigma);
        // The standalone engine manufactures this point's fleet from
        // scratch; the grid engine derived it from shared draws. The
        // histograms must agree bit for bit, not just statistically.
        const BerModel point_ber(ber.mu(), sigma);
        const PopulationResult standalone =
            PopulationEngine(point_ber, 1).run(
                spec.point_spec(size_kb, assoc));
        EXPECT_EQ(pt.result, standalone)
            << size_kb << " KB " << assoc << "-way sigma " << sigma;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact sigma monotonicity: z > 0 for every draw (the order-statistic
// deviate of 512+ Gaussians), so a wider sigma raises every block's fail
// voltage pointwise. The floor distribution must therefore be
// stochastically no better: at every ladder level, at most as many dies
// are viable.

TEST(PopulationGridEngine, WiderSigmaIsStochasticallyNoBetter) {
  PopulationGridSpec spec = small_grid(200);
  spec.sizes_kb = {16};
  spec.assocs = {4};
  const BerModel ber(Technology::soi45());
  const PopulationGridResult grid = PopulationGridEngine(ber, 2).run(spec);
  ASSERT_EQ(grid.points.size(), 3u);
  for (std::size_t g = 1; g < grid.points.size(); ++g) {
    const PopulationResult& lo = grid.points[g - 1].result;
    const PopulationResult& hi = grid.points[g].result;
    ASSERT_LT(grid.points[g - 1].sigma, grid.points[g].sigma);
    for (u32 l = 1; l <= lo.num_levels(); ++l) {
      EXPECT_LE(hi.viable_at(l), lo.viable_at(l)) << "level " << l;
    }
    EXPECT_GE(hi.unusable, lo.unusable);
  }
}

// ---------------------------------------------------------------------------
// Thread / shard invariance: four (threads, chips_per_shard) shapes must
// produce identical per-point histograms and identical report bytes.

TEST(PopulationGridEngine, ResultInvariantAcrossThreadAndShardShapes) {
  const BerModel ber(Technology::soi45());
  const struct {
    u32 threads;
    u64 shard_chips;
  } shapes[] = {{1, 64}, {8, 64}, {1, 17}, {8, 128}};

  PopulationGridSpec spec = small_grid(130);
  std::vector<std::string> reports;
  PopulationGridResult ref;
  for (const auto& shape : shapes) {
    spec.base.chips_per_shard = shape.shard_chips;
    const PopulationGridResult got =
        PopulationGridEngine(ber, shape.threads).run(spec);
    std::ostringstream out;
    render_population_grid_report(spec, got, out);
    reports.push_back(out.str());
    if (ref.points.empty()) {
      ref = got;
      continue;
    }
    ASSERT_EQ(got.points.size(), ref.points.size());
    for (std::size_t p = 0; p < got.points.size(); ++p) {
      EXPECT_EQ(got.points[p].result, ref.points[p].result)
          << "threads " << shape.threads << " shard " << shape.shard_chips
          << " point " << p;
    }
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i], reports[0]);
  }
}

// ---------------------------------------------------------------------------
// Telemetry: one population_grid_point record per point, in point order

TEST(PopulationGridEngine, EmitsOnePointRecordPerPointInOrder) {
  const PopulationGridSpec spec = small_grid(100);
  const BerModel ber(Technology::soi45());
  MemoryTraceSink mem;
  const PopulationGridResult grid =
      PopulationGridEngine(ber, 2).run(spec, &mem);
  ASSERT_EQ(mem.records().size(), grid.points.size());
  u64 chips = 0;
  for (std::size_t p = 0; p < mem.records().size(); ++p) {
    const TraceRecord& r = mem.records()[p];
    EXPECT_STREQ(r.type(), "population_grid_point");
    ASSERT_EQ(r.fields().size(), 7u);
    EXPECT_STREQ(r.fields()[0].key, "point");
    EXPECT_EQ(std::get<u64>(r.fields()[0].value), p);
    EXPECT_STREQ(r.fields()[1].key, "size_kb");
    EXPECT_EQ(std::get<u64>(r.fields()[1].value), grid.points[p].size_kb);
    EXPECT_STREQ(r.fields()[2].key, "assoc");
    EXPECT_EQ(std::get<u64>(r.fields()[2].value), grid.points[p].assoc);
    EXPECT_STREQ(r.fields()[3].key, "sigma");
    EXPECT_EQ(std::get<double>(r.fields()[3].value), grid.points[p].sigma);
    EXPECT_STREQ(r.fields()[4].key, "chips");
    chips += std::get<u64>(r.fields()[4].value);
    EXPECT_STREQ(r.fields()[5].key, "unusable");
    EXPECT_STREQ(r.fields()[6].key, "no_spcs");
  }
  // Every point sees the whole fleet.
  EXPECT_EQ(chips, 100u * grid.points.size());
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST(PopulationGridEngine, CheckpointResumeIsByteIdentical) {
  const PopulationGridSpec spec = small_grid(140);  // 3 shards of 64
  const BerModel ber(Technology::soi45());
  const PopulationGridResult full = PopulationGridEngine(ber, 1).run(spec);

  const std::string path = tmp_path("pcs_grid_ck.txt");
  std::remove(path.c_str());

  // Partial run: stop (cleanly, via exception) after the first sidecar
  // write, then resume and compare every point.
  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = 1;
  struct StopRun {};
  ckpt.on_checkpoint = [](u64 done) {
    if (done == 1) throw StopRun{};
  };
  EXPECT_THROW(PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt),
               StopRun);

  ckpt.on_checkpoint = nullptr;
  ckpt.resume = true;
  const PopulationGridResult resumed =
      PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt);
  ASSERT_EQ(resumed.points.size(), full.points.size());
  for (std::size_t p = 0; p < full.points.size(); ++p) {
    EXPECT_EQ(resumed.points[p].result, full.points[p].result) << p;
  }
  std::remove(path.c_str());
}

TEST(PopulationGridEngine, StrictResumeRefusesAMismatchedSpec) {
  PopulationGridSpec spec = small_grid(140);
  const BerModel ber(Technology::soi45());
  const std::string path = tmp_path("pcs_grid_ck_mismatch.txt");
  std::remove(path.c_str());

  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = 0;  // only the final save
  ckpt.strict_resume = true;
  PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt);

  ckpt.resume = true;
  spec.base.seed += 1;  // a different fleet entirely
  EXPECT_THROW(PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt),
               std::runtime_error);
  std::remove(path.c_str());
}

// The real thing: a child process is killed from inside the checkpoint
// callback (leaving a genuinely torn run and a live sidecar behind), and
// the parent resumes it to the byte-identical final report.
TEST(PopulationGridEngine, ResumeAfterKilledRunIsByteIdentical) {
  const PopulationGridSpec spec = small_grid(200);  // 4 shards of 64
  const BerModel ber(Technology::soi45());
  const std::string path = tmp_path("pcs_grid_ck_kill.txt");
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: checkpoint after every shard, die hard after the second save.
    CheckpointOptions ckpt;
    ckpt.path = path;
    ckpt.every_shards = 1;
    ckpt.on_checkpoint = [](u64 done) {
      if (done == 2) _exit(137);
    };
    PopulationGridEngine(ber, 1).run(spec, nullptr, &ckpt);
    _exit(0);  // not reached
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);

  {
    // The sidecar must carry the pre-kill watermark.
    std::ifstream ck(path);
    ASSERT_TRUE(ck.is_open());
    std::ostringstream ss;
    ss << ck.rdbuf();
    EXPECT_NE(ss.str().find("shards_done 2\n"), std::string::npos);
  }

  CheckpointOptions resume;
  resume.path = path;
  resume.resume = true;
  const PopulationGridResult resumed =
      PopulationGridEngine(ber, 4).run(spec, nullptr, &resume);
  const PopulationGridResult full = PopulationGridEngine(ber, 1).run(spec);
  std::ostringstream a, b;
  render_population_grid_report(spec, resumed, a);
  render_population_grid_report(spec, full, b);
  EXPECT_EQ(a.str(), b.str());
  for (std::size_t p = 0; p < full.points.size(); ++p) {
    EXPECT_EQ(resumed.points[p].result, full.points[p].result) << p;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcs
