// Differential wall for the lane-parallel sweep engine.
//
// Arena caches: ~1M randomized operations driven simultaneously through
// CacheLevels carved from one CacheArena -- the storage SweepRunner packs
// each shard's lanes into -- and through CacheLevels that own their
// storage. The arena is packed twice, in spec order and reversed, so a
// cache's results must not depend on its arena neighbours or their order.
// The shapes sample associativities 1/16/17/24/32 under both replacement
// policies (tree-PLRU where legal) and accumulate random faulty-bit
// patterns, including fully-faulty sets, so the bypass path is exercised.
// Every AccessResult, every stats counter, and the complete per-block state
// must match bit for bit -- the owned-storage CacheLevel IS the
// specification.
//
// Grid sweeps: a small Fig. 4-shaped grid executed by SweepRunner at
// several (thread count x lane count) shapes must reproduce a run_one
// loop's SimReports exactly (field-wise ==, including the energy
// breakdowns), pinning the fused step/tick loop, the measurement
// windowing, and the shard decomposition.
#include "exp/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_level.hpp"
#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "exp/population_engine.hpp"
#include "fault/cell_fault_field.hpp"
#include "run_one_loop.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

// ---- Arena caches ---------------------------------------------------------

struct CacheSpec {
  std::string name;
  CacheOrg org;
  const char* replacement;
};

std::vector<CacheSpec> cache_specs() {
  // size = sets * assoc * 64 with power-of-two sets; odd widths (17, 24)
  // take the wide byte-rank LRU, tree-PLRU only where assoc is 2^k.
  return {
      {"a1-lru", {64 * 1 * 64, 1, 64, 31}, "lru"},
      {"a4-plru", {256 * 4 * 64, 4, 64, 31}, "tree-plru"},
      {"a16-lru", {64 * 16 * 64, 16, 64, 31}, "lru"},
      {"a16-plru", {64 * 16 * 64, 16, 64, 31}, "tree-plru"},
      {"a17-lru", {64 * 17 * 64, 17, 64, 31}, "lru"},
      {"a24-lru", {32 * 24 * 64, 24, 64, 31}, "lru"},
      {"a32-lru", {32 * 32 * 64, 32, 64, 31}, "lru"},
      {"a32-plru", {32 * 32 * 64, 32, 64, 31}, "tree-plru"},
  };
}

/// One randomized operation. Set/way-addressed kinds are reduced modulo
/// each cache's own shape, so one stream exercises every shape.
struct Op {
  enum class Kind : u8 { kAccess, kWriteback, kSetFaulty, kInvalidate };
  Kind kind = Kind::kAccess;
  bool write = false;   ///< kAccess only
  bool faulty = false;  ///< kSetFaulty only
  u64 addr = 0;         ///< kAccess / kWriteback
  u64 set = 0;          ///< kSetFaulty / kInvalidate
  u32 way = 0;          ///< kSetFaulty / kInvalidate
};

CacheLevel::AccessResult apply(CacheLevel& c, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAccess:
      return c.access(op.addr, op.write);
    case Op::Kind::kWriteback:
      return c.receive_writeback(op.addr);
    case Op::Kind::kSetFaulty:
      c.set_block_faulty(op.set & (c.org().num_sets() - 1),
                         op.way % c.org().assoc, op.faulty);
      return {};
    case Op::Kind::kInvalidate:
      c.invalidate(op.set & (c.org().num_sets() - 1),
                   op.way % c.org().assoc);
      return {};
  }
  return {};
}

Op random_op(Rng& rng, u64 addr_mask) {
  const u64 r = rng.next_u64();
  const u64 pick = r % 100;
  Op op;
  if (pick < 70) {
    op.kind = Op::Kind::kAccess;
    op.addr = (r >> 7) & addr_mask;
    op.write = (r >> 6) & 1;
  } else if (pick < 80) {
    op.kind = Op::Kind::kWriteback;
    op.addr = (r >> 7) & addr_mask;
  } else if (pick < 95) {
    op.kind = Op::Kind::kSetFaulty;
    op.set = (r >> 7) & 0xFFFF;
    op.way = static_cast<u32>(r >> 32) % 32;
    op.faulty = (r >> 6) & 1;
  } else {
    op.kind = Op::Kind::kInvalidate;
    op.set = (r >> 7) & 0xFFFF;
    op.way = static_cast<u32>(r >> 32) % 32;
  }
  return op;
}

/// Marks sets 0 and 1 of every cache fully faulty through the op stream
/// (ways 0..31 reduce onto every way of every cache).
std::vector<Op> all_faulty_prelude() {
  std::vector<Op> ops;
  for (u64 set = 0; set < 2; ++set) {
    for (u32 way = 0; way < 32; ++way) {
      Op op;
      op.kind = Op::Kind::kSetFaulty;
      op.set = set;
      op.way = way;
      op.faulty = true;
      ops.push_back(op);
    }
  }
  return ops;
}

/// The caches of `specs` carved from `arena` in spec order, or in reverse
/// order when `reversed`; returned in spec order either way.
std::vector<CacheLevel> arena_caches(const std::vector<CacheSpec>& specs,
                                     bool reversed, CacheArena& arena) {
  CacheArena::Spec total;
  for (const auto& sp : specs) {
    total += CacheLevel::storage_spec(sp.org, sp.replacement);
  }
  arena.reserve(total);
  std::vector<CacheLevel> caches;
  caches.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const CacheSpec& sp = specs[reversed ? specs.size() - 1 - k : k];
    caches.emplace_back(sp.name, sp.org, 1, sp.replacement, &arena);
  }
  if (reversed) std::reverse(caches.begin(), caches.end());
  return caches;
}

void expect_state_equal(const CacheLevel& got, const CacheLevel& want,
                        const std::string& what) {
  ASSERT_EQ(got.stats(), want.stats()) << what;
  ASSERT_EQ(got.faulty_block_count(), want.faulty_block_count()) << what;
  for (u64 s = 0; s < want.org().num_sets(); ++s) {
    ASSERT_EQ(got.valid_mask(s), want.valid_mask(s)) << what << " set " << s;
    ASSERT_EQ(got.dirty_mask(s), want.dirty_mask(s)) << what << " set " << s;
    ASSERT_EQ(got.faulty_mask(s), want.faulty_mask(s)) << what << " set "
                                                       << s;
    for (u32 w = 0; w < want.org().assoc; ++w) {
      if (!want.is_valid(s, w)) continue;
      ASSERT_EQ(got.block_addr(s, w), want.block_addr(s, w))
          << what << " set " << s << " way " << w;
    }
  }
}

TEST(SweepLanes, MillionMixedOpsMatchScalarPerOp) {
  const auto specs = cache_specs();
  CacheArena fwd_arena, rev_arena;
  std::vector<std::vector<CacheLevel>> packings;
  packings.push_back(arena_caches(specs, false, fwd_arena));
  packings.push_back(arena_caches(specs, true, rev_arena));
  const char* const packing_name[] = {"spec order", "reversed"};

  std::vector<CacheLevel> owned;
  owned.reserve(specs.size());
  for (const auto& sp : specs) {
    owned.emplace_back(sp.name, sp.org, 1, sp.replacement);
  }

  // 4x the largest cache so misses, evictions, and writebacks all fire.
  const u64 addr_mask = 4 * 256 * 1024 - 1;
  auto step = [&](const Op& op, u64 n) {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const auto want = apply(owned[i], op);
      for (std::size_t k = 0; k < packings.size(); ++k) {
        ASSERT_EQ(apply(packings[k][i], op), want)
            << "op " << n << " cache " << specs[i].name << " packed in "
            << packing_name[k];
      }
    }
  };

  for (const auto& op : all_faulty_prelude()) step(op, 0);
  if (HasFatalFailure()) return;
  for (const auto& caches : packings) {
    for (std::size_t i = 0; i < caches.size(); ++i) {
      ASSERT_EQ(caches[i].faulty_mask(0), caches[i].way_mask())
          << "set 0 of " << specs[i].name << " should be fully faulty";
    }
  }

  Rng rng(0xC0FFEE);
  const u64 kOps = 1'000'000;
  for (u64 n = 0; n < kOps; ++n) {
    step(random_op(rng, addr_mask), n);
    if (HasFatalFailure()) return;
  }

  for (std::size_t k = 0; k < packings.size(); ++k) {
    for (std::size_t i = 0; i < owned.size(); ++i) {
      expect_state_equal(packings[k][i], owned[i],
                         specs[i].name + " packed in " + packing_name[k]);
    }
  }
}

// ---- Grid sweeps -------------------------------------------------------------

std::vector<ExperimentPoint> small_grid() {
  RunParams rp;
  rp.max_refs = 30'000;
  rp.warmup_refs = 7'500;
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
  return grid.expand();
}

TEST(SweepSystem, GridReportsMatchScalarRunnerAtAnyShape) {
  const auto points = small_grid();
  const auto want = run_one_loop(points);
  ASSERT_EQ(want.size(), points.size());

  for (const u32 lanes : {1u, 4u, 16u}) {
    for (const u32 threads : {1u, 4u}) {
      SweepOptions opt;
      opt.num_threads = threads;
      opt.max_lanes = lanes;
      const auto got = SweepRunner(opt).run(points);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "point " << i << " (" << want[i].config_name << ", "
            << want[i].workload << ", " << want[i].policy << ") lanes="
            << lanes << " threads=" << threads;
      }
    }
  }
}

TEST(SweepSystem, PerTaskSeedsDegradeToSingleLaneGroups) {
  // Monte-Carlo style grids give every point its own trace seed; each group
  // then holds one lane and the sweep engine must still match run_one
  // exactly.
  RunParams rp;
  rp.max_refs = 10'000;
  rp.warmup_refs = 2'500;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  const auto points = replicate_point(grid.expand()[0], 4);
  const auto want = run_one_loop(points);
  SweepOptions opt;
  opt.num_threads = 2;
  opt.max_lanes = 8;
  const auto got = SweepRunner(opt).run(points);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "replicate " << i;
  }
}

// ---- Fig. 3d kernels --------------------------------------------------------

TEST(SweepYield, PassCountsMatchPerVoltageScans) {
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(tech);
  const std::vector<Volt> probes = {0.60, 0.625, 0.65, 0.70, 0.75};
  const auto counts = yield_pass_counts_mc(64, 7, ber, org, probes, 1);
  ASSERT_EQ(counts.size(), probes.size());
  // Each die's fail voltage from its field, as the bench computed it.
  std::vector<float> chip_vf;
  for (u64 i = 0; i < 64; ++i) {
    Rng rng(derive_seed(7, 0, i));
    const auto field = CellFaultField::sample_fast(
        ber, org.num_blocks(), org.bits_per_block(), rng);
    chip_vf.push_back(chip_fail_voltage(field.fail_voltages(), org.assoc));
  }
  for (std::size_t k = 0; k < probes.size(); ++k) {
    u64 want = 0;
    for (const float vf : chip_vf) {
      if (probes[k] > vf) ++want;
    }
    EXPECT_EQ(counts[k], want) << "probe " << probes[k];
  }
  // Higher probe voltage can only pass more dies.
  for (std::size_t k = 1; k < counts.size(); ++k) {
    EXPECT_GE(counts[k], counts[k - 1]);
  }
  const std::vector<Volt> descending = {0.75, 0.60};
  EXPECT_THROW(yield_pass_counts_mc(4, 7, ber, org, descending, 1),
               std::invalid_argument);
}

TEST(SweepYield, McFailVoltagesAreThreadCountInvariant) {
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(tech);
  const std::vector<Volt> probes = {0.55, 0.58, 0.60, 0.62, 0.65};
  const auto serial = yield_pass_counts_mc(32, 7, ber, org, probes, 1);
  const auto parallel = yield_pass_counts_mc(32, 7, ber, org, probes, 4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace pcs
