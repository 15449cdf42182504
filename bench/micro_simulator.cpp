// Micro-benchmarks of the simulator substrate (google-benchmark): raw cache
// access throughput, trace generation, fault-field sampling, fault-map
// construction, and the transition procedure, plus the hot-path primitives
// (packed replacement state, allowed-mask maintenance, synthetic address
// generation) so a regression localizes to a primitive rather than only
// showing up end-to-end. These guard the fig4 sweep's wall-clock budget;
// scripts/run_bench.sh snapshots them into BENCH_micro.json per PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/hierarchy.hpp"
#include "cache/replacement.hpp"
#include "core/mechanism.hpp"
#include "core/system.hpp"
#include "core/vdd_levels.hpp"
#include "exp/experiment_runner.hpp"
#include "exp/population_engine.hpp"
#include "exp/population_grid.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/bist.hpp"
#include "fault/cell_fault_field.hpp"
#include "fault/fault_map.hpp"
#include "tech/technology.hpp"
#include "trace/encode.hpp"
#include "trace/mmap_reader.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace pcs;

void BM_CacheLevelAccess(benchmark::State& state) {
  CacheLevel cache("l1", CacheOrg{64 * 1024, 4, 64, 31}, 2);
  Rng rng(1);
  for (auto _ : state) {
    const u64 addr = rng.uniform_int(256 * 1024) & ~63ULL;
    benchmark::DoNotOptimize(cache.access(addr, (addr & 64) != 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLevelAccess);

void BM_HierarchyAccess(benchmark::State& state) {
  HierarchyConfig cfg;
  cfg.l1d = {64 * 1024, 4, 64, 31};
  cfg.l1i = {64 * 1024, 4, 64, 31};
  cfg.l2 = {2 * 1024 * 1024, 8, 64, 31};
  Hierarchy hier(cfg);
  Rng rng(2);
  for (auto _ : state) {
    const MemRef ref{rng.uniform_int(8 * 1024 * 1024), false, false};
    benchmark::DoNotOptimize(hier.access(ref));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

/// The full gcc generator, instruction-fetch walk included
/// (BM_SyntheticDataAddr suppresses that walk).
void BM_SyntheticGcc(benchmark::State& state) {
  auto trace = make_spec_trace("gcc", 7);
  TraceEvent e;
  for (auto _ : state) {
    trace->next(e);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticGcc);

/// The same stream pulled as the sweep engine pulls it: 256-event
/// next_block calls (one virtual call per block). Items = events.
void BM_SyntheticGccBlock(benchmark::State& state) {
  auto trace = make_spec_trace("gcc", 7);
  std::vector<TraceEvent> block(256);
  for (auto _ : state) {
    trace->next_block(block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(block.size()));
}
BENCHMARK(BM_SyntheticGccBlock);

void BM_FaultFieldSampling(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const u64 blocks = static_cast<u64>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    auto field = CellFaultField::sample_fast(ber, blocks, 512, rng);
    benchmark::DoNotOptimize(field);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(blocks));
}
BENCHMARK(BM_FaultFieldSampling)->Arg(1024)->Arg(32768);

void BM_GaussianBlock(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> buf(4096);
  for (auto _ : state) {
    rng.gaussian_block(std::span<double>(buf));
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(buf.size()));
}
BENCHMARK(BM_GaussianBlock);

void BM_GaussianScalar(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> buf(4096);
  for (auto _ : state) {
    for (double& v : buf) v = rng.gaussian();
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(buf.size()));
}
BENCHMARK(BM_GaussianScalar);

void BM_FaultMapBuild(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  Rng rng(4);
  const auto field = CellFaultField::sample_fast(ber, 32768, 512, rng);
  for (auto _ : state) {
    FaultMap map({0.58, 0.71, 1.0}, field.fail_voltages());
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_FaultMapBuild);

void BM_FaultMapViable(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  Rng rng(4);
  const auto field = CellFaultField::sample_fast(ber, 32768, 512, rng);
  const u32 assoc = static_cast<u32>(state.range(0));
  const FaultMap map({0.58, 0.71, 1.0}, field.fail_voltages(), assoc);
  for (auto _ : state) {
    for (u32 l = 1; l <= map.num_levels(); ++l) {
      benchmark::DoNotOptimize(map.viable(assoc, l));
    }
  }
}
BENCHMARK(BM_FaultMapViable)->Arg(16);

void BM_FaultMapViableReference(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  Rng rng(4);
  const auto field = CellFaultField::sample_fast(ber, 32768, 512, rng);
  const u32 assoc = static_cast<u32>(state.range(0));
  const FaultMap map({0.58, 0.71, 1.0}, field.fail_voltages(), assoc);
  for (auto _ : state) {
    for (u32 l = 1; l <= map.num_levels(); ++l) {
      benchmark::DoNotOptimize(map.viable_reference(assoc, l));
    }
  }
}
BENCHMARK(BM_FaultMapViableReference)->Arg(16);

void BM_TransitionProcedure(benchmark::State& state) {
  const auto tech = Technology::soi45();
  const CacheOrg org{2 * 1024 * 1024, 8, 64, 31};
  BerModel ber(tech);
  VddSelector sel(tech, ber, org);
  const auto ladder = sel.select({});
  Rng rng(5);
  const auto field = CellFaultField::sample_fast(ber, org.num_blocks(),
                                                 org.bits_per_block(), rng);
  CacheLevel cache("l2", org, 4);
  PcsMechanism mech(cache, FaultMap(ladder.levels, field.fail_voltages()),
                    ladder,
                    ladder.spcs_level, 40);
  u32 target = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.transition(target));
    target = target == 1 ? ladder.spcs_level : 1;
  }
}
BENCHMARK(BM_TransitionProcedure);

/// One die's system build, config B with DPCS: the hierarchy, each level's
/// ladder selection and its manufactured fault map, from a fresh chip seed
/// every iteration. Items = builds.
void BM_SystemBuild(benchmark::State& state) {
  const SystemConfig cfg = SystemConfig::config_b();
  u64 chip_seed = 1;
  for (auto _ : state) {
    const PcsSystem sys(cfg, PolicyKind::kDynamic, chip_seed++);
    benchmark::DoNotOptimize(&sys);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SystemBuild);

// ---- Hot-path primitives --------------------------------------------------

/// Packed-u64 LRU: rank lookup + move-to-front, the per-hit work.
void BM_PackedLruTouch(benchmark::State& state) {
  constexpr u32 kAssoc = 8;
  std::vector<u32> ways(4096);
  Rng rng(11);
  for (auto& w : ways) w = static_cast<u32>(rng.uniform_int(kAssoc));
  u64 perm = packed_lru::kIdentity;
  std::size_t i = 0;
  for (auto _ : state) {
    const u32 w = ways[i++ & 4095];
    perm = packed_lru::touch(perm, packed_lru::rank_of(perm, w), w);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedLruTouch);

/// Packed-u64 LRU victim selection under a rotating allowed mask (the
/// per-miss work; mask 0xFF is the no-faults common case).
void BM_PackedLruVictim(benchmark::State& state) {
  constexpr u32 kAssoc = 8;
  const u32 fixed_mask = static_cast<u32>(state.range(0));
  std::vector<u64> perms(1024);
  Rng rng(12);
  for (auto& p : perms) {
    p = packed_lru::kIdentity;
    for (int t = 0; t < 16; ++t) {
      const u32 w = static_cast<u32>(rng.uniform_int(kAssoc));
      p = packed_lru::touch(p, packed_lru::rank_of(p, w), w);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        packed_lru::victim(perms[i++ & 1023], kAssoc, fixed_mask));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackedLruVictim)->Arg(0xFF)->Arg(0x81);

/// Reference (virtual, byte-ranked) LRU doing the same touch work, for a
/// direct packed-vs-reference comparison in BENCH_micro.json.
void BM_ReferenceLruTouch(benchmark::State& state) {
  constexpr u32 kAssoc = 8;
  std::vector<u32> ways(4096);
  Rng rng(11);
  for (auto& w : ways) w = static_cast<u32>(rng.uniform_int(kAssoc));
  LruReplacement lru(1, kAssoc);
  std::size_t i = 0;
  for (auto _ : state) {
    lru.touch(0, ways[i++ & 4095]);
    benchmark::DoNotOptimize(lru.rank(0, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReferenceLruTouch);

/// Packed-u32 tree-PLRU touch + victim round trip.
void BM_TreePlruTouchVictim(benchmark::State& state) {
  constexpr u32 kAssoc = 8;
  std::vector<u32> ways(4096);
  Rng rng(13);
  for (auto& w : ways) w = static_cast<u32>(rng.uniform_int(kAssoc));
  u32 bits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    bits = packed_plru::touch(bits, kAssoc, ways[i++ & 4095]);
    benchmark::DoNotOptimize(packed_plru::victim(bits, kAssoc, 0xFFu));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreePlruTouchVictim);

/// Incremental allowed-mask maintenance: faulty-bit flips plus the
/// single-load mask read the miss path performs.
void BM_AllowedMaskMaintenance(benchmark::State& state) {
  CacheLevel cache("l2", CacheOrg{256 * 1024, 8, 64, 31}, 4);
  const u64 sets = cache.org().num_sets();
  Rng rng(14);
  std::vector<u32> picks(4096);
  for (auto& p : picks) p = static_cast<u32>(rng.next_u64());
  std::size_t i = 0;
  bool on = true;
  for (auto _ : state) {
    const u32 pick = picks[i++ & 4095];
    const u64 set = pick & (sets - 1);
    const u32 way = (pick >> 20) & 7u;
    cache.set_block_faulty(set, way, on);
    on = !on;
    benchmark::DoNotOptimize(cache.way_mask() & ~cache.faulty_mask(set));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllowedMaskMaintenance);

/// Pure data-address generation: refs_per_instruction = 1 suppresses the
/// instruction-gap walk, so every next() is one gen_data_addr().
void BM_SyntheticDataAddr(benchmark::State& state) {
  WorkloadSpec spec;
  spec.name = "addrgen";
  spec.refs_per_instruction = 1.0;
  SyntheticTrace trace(spec, 15);
  TraceEvent e;
  for (auto _ : state) {
    trace.next(e);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticDataAddr);

// ---- Lane-parallel sweep engine -------------------------------------------

namespace sweep_bench {

/// Miniature Fig. 4 grid (1 config x 2 workloads x 3 policies, 20k refs):
/// the pair below runs it as a run_one loop and through SweepRunner at one
/// thread, so their ratio is the single-core speedup of shared trace
/// decode + fused dispatch (e2e's fig4_sweep workload times the full
/// sweep).
ExperimentGrid mini_grid() {
  RunParams rp;
  rp.max_refs = 20'000;
  rp.warmup_refs = 5'000;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_workload("libquantum")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  return grid;
}

}  // namespace sweep_bench

void BM_Fig4SweepScalar(benchmark::State& state) {
  const auto grid = sweep_bench::mini_grid();
  const auto points = grid.expand();
  for (auto _ : state) {
    for (const auto& p : points) {
      benchmark::DoNotOptimize(run_one(p.config, p.workload, p.policy,
                                       p.chip_seed, p.trace_seed, p.params));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(grid.size()) * 25'000);
}
BENCHMARK(BM_Fig4SweepScalar);

void BM_Fig4SweepLanes(benchmark::State& state) {
  const auto grid = sweep_bench::mini_grid();
  SweepOptions opt;
  opt.num_threads = 1;
  opt.max_lanes = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepRunner(opt).run(grid));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(grid.size()) * 25'000);
}
BENCHMARK(BM_Fig4SweepLanes);

// ---- Population engine inner loop -----------------------------------------

/// The per-die kernel of the population engine, exactly as PopulationEngine
/// runs it: one block of uniform draws, every block bucketed straight from
/// its draw (RungCuts, built once outside the loop as the engine builds it
/// once per run), the viability floor folded over the buckets, and one
/// histogram of the buckets for every level's capacity. Items = dies, so
/// items/s is the fleet rate/core.
void BM_PopulationBinChip(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const PopulationSpec spec;  // 64 KB 4-way, 56-level default ladder
  const std::vector<Volt> grid = spec.grid();
  const RungCuts cuts(grid, ber.mu(), ber.sigma(), spec.org.bits_per_block());
  const u64 blocks = spec.org.num_blocks();
  std::vector<u64> draws(blocks);
  std::vector<u16> buckets(draws.size());
  std::vector<u64> rungs(grid.size() + 2);
  std::vector<u64> faulty_at(grid.size() + 2);
  ChipBinPoint p;
  u64 die = 0;
  for (auto _ : state) {
    Rng rng(derive_seed(spec.seed, 0, die++));
    rng.uniform_bits_block(draws);
    bin_chip(draws, cuts, std::span<const u64>(&blocks, 1),
             std::span<const u32>(&spec.org.assoc, 1), spec.spcs_min_capacity,
             buckets, rungs, faulty_at, std::span<ChipBinPoint>(&p, 1));
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopulationBinChip);

/// Reference per-die cost: build the full 56-level dense FaultMap per die
/// and bin through it (what chip_binning did when it recomputed per-chip
/// faults per level). The pair prices the production histogram kernel
/// against the dense-map rebuild in BENCH_micro.json. Note the dense build
/// can win per-die on wide-SIMD hosts (its prefix count compares in float),
/// but it allocates a levels-by-blocks map per die and its float-width
/// comparisons differ from the field's double semantics, so the production
/// kernel keeps the histogram pass.
void BM_PopulationBinChipDense(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const PopulationSpec spec;
  const std::vector<Volt> grid = spec.grid();
  u64 die = 0;
  for (auto _ : state) {
    Rng rng(derive_seed(spec.seed, 0, die++));
    const auto field = CellFaultField::sample_fast(
        ber, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
    const FaultMap fm(grid, field.fail_voltages(), spec.org.assoc);
    ChipBinPoint p;
    for (u32 l = 1; l <= fm.num_levels(); ++l) {
      if (fm.viable(spec.org.assoc, l)) {
        p.floor_level = l;
        break;
      }
    }
    if (p.floor_level != 0) {
      p.spcs_level = fm.lowest_level_with_capacity(spec.org.assoc,
                                                   spec.spcs_min_capacity);
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopulationBinChipDense);

namespace binning_bench {

/// Fail voltages of kDies consecutive default-spec dies (64 KB 4-way:
/// 1024 blocks each), concatenated. The kernel benches below walk through
/// them a die per iteration, so a branch predictor cannot learn one die's
/// blocks by heart.
constexpr std::size_t kDies = 16;

std::vector<float> fleet_fail_voltages() {
  const BerModel ber(Technology::soi45());
  const PopulationSpec spec;
  std::vector<float> vf;
  for (u64 die = 0; die < kDies; ++die) {
    Rng rng(derive_seed(spec.seed, 0, die));
    const auto field = CellFaultField::sample_fast(
        ber, spec.org.num_blocks(), spec.org.bits_per_block(), rng);
    vf.insert(vf.end(), field.fail_voltages().begin(),
              field.fail_voltages().end());
  }
  return vf;
}

}  // namespace binning_bench

/// The float-path histogram alone (count_fail_rungs, which the engines no
/// longer run): one 1024-block die bucketed on the default 56-level
/// ladder. Items = dies.
void BM_CountFailRungs(benchmark::State& state) {
  const std::vector<float> fleet = binning_bench::fleet_fail_voltages();
  const std::size_t blocks = fleet.size() / binning_bench::kDies;
  const std::vector<Volt> grid = PopulationSpec{}.grid();
  std::vector<u64> rungs(grid.size() + 2);
  std::size_t die = 0;
  for (auto _ : state) {
    std::fill(rungs.begin(), rungs.end(), u64{0});
    count_fail_rungs(std::span<const float>(fleet).subspan(die * blocks,
                                                           blocks),
                     grid, rungs);
    benchmark::DoNotOptimize(rungs.data());
    benchmark::ClobberMemory();
    die = (die + 1) % binning_bench::kDies;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountFailRungs);

/// The viability floors of the population grid's 8 (size, assoc) points
/// over one die: 32 and 64 KB (prefixes of the same 1024 blocks) times 2,
/// 4, 8 and 16 ways. Items = dies.
void BM_ChipFailVoltage(benchmark::State& state) {
  const std::vector<float> fleet = binning_bench::fleet_fail_voltages();
  const std::size_t blocks = fleet.size() / binning_bench::kDies;
  std::size_t die = 0;
  for (auto _ : state) {
    const auto vf = std::span<const float>(fleet).subspan(die * blocks,
                                                          blocks);
    for (const std::size_t size : {blocks / 2, blocks}) {
      for (const u32 assoc : {2u, 4u, 8u, 16u}) {
        benchmark::DoNotOptimize(chip_fail_voltage(vf.first(size), assoc));
      }
    }
    die = (die + 1) % binning_bench::kDies;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChipFailVoltage);

/// The engines' bucketing step alone: one 1024-block die of uniform draws
/// bucketed on the default 56-level ladder (RungCuts::bucket_draws), the
/// draws rotating through 16 dies like the benches above. Items = dies.
void BM_BucketDraws(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const PopulationSpec spec;
  const RungCuts cuts(spec.grid(), ber.mu(), ber.sigma(),
                      spec.org.bits_per_block());
  const std::size_t blocks = spec.org.num_blocks();
  std::vector<u64> fleet(blocks * binning_bench::kDies);
  for (u64 die = 0; die < binning_bench::kDies; ++die) {
    Rng rng(derive_seed(spec.seed, 0, die));
    rng.uniform_bits_block(std::span<u64>(fleet).subspan(die * blocks,
                                                         blocks));
  }
  std::vector<u16> buckets(blocks);
  std::size_t die = 0;
  for (auto _ : state) {
    cuts.bucket_draws(std::span<const u64>(fleet).subspan(die * blocks,
                                                          blocks),
                      buckets);
    benchmark::DoNotOptimize(buckets.data());
    benchmark::ClobberMemory();
    die = (die + 1) % binning_bench::kDies;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketDraws);

/// Building one cut table, as each engine run does per sigma: Arg 0 = the
/// default 56-rung ladder, Arg 1 = a 1001-rung ladder (0.0 .. 1.0 V step
/// 1 mV), both at the soi45 sigma and 64-byte blocks. Items = tables.
void BM_RungCutsBuild(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  PopulationSpec spec;
  if (state.range(0) == 1) {
    spec.grid_lo = 0.0;
    spec.grid_step = 0.001;
  }
  const std::vector<Volt> grid = spec.grid();
  for (auto _ : state) {
    const RungCuts cuts(grid, ber.mu(), ber.sigma(),
                        spec.org.bits_per_block());
    benchmark::DoNotOptimize(cuts.cuts().data());
  }
  state.SetLabel(std::to_string(grid.size()) + " rungs");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RungCutsBuild)->Arg(0)->Arg(1);

// ---- Sample-once population grid engine ------------------------------------

namespace grid_bench {

/// The ISSUE's reference shape: 2 sizes x 4 associativities x 3 sigmas
/// (24 points) over one manufactured fleet. Tiny fleet so one benchmark
/// iteration is one end-to-end engine run; items = dies, so the ratio of
/// the pair below is the aggregate per-die speedup of sampling each die
/// once against running the 24 points as independent population runs.
PopulationGridSpec grid_spec() {
  PopulationGridSpec g;
  g.base.num_chips = 8;
  g.base.chips_per_shard = 8;
  g.sizes_kb = {32, 64};
  g.assocs = {2, 4, 8, 16};
  g.sigmas = {0.1426, 0.1585, 0.1823};
  return g;
}

}  // namespace grid_bench

/// One die through the whole grid: uniforms drawn once at the largest
/// size, bucketed once per sigma, smaller sizes binned from the shared
/// prefix, associativities folded from the shared buckets. Each run also
/// builds the three sigmas' cut tables, so every 8 dies pay three builds.
void BM_PopulationGridDie(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const auto spec = grid_bench::grid_spec();
  for (auto _ : state) {
    PopulationGridEngine engine(ber, 1);
    benchmark::DoNotOptimize(engine.run(spec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(spec.base.num_chips));
}
BENCHMARK(BM_PopulationGridDie);

/// The same 24 points as G independent PopulationEngine runs (what a user
/// got before the grid engine: one full fault-field draw per die *per
/// point*). Per-point results are bit-identical to the grid run -- the
/// differential tests pin that -- so the pair prices pure amortization.
void BM_PopulationGridDieIndependent(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  const auto spec = grid_bench::grid_spec();
  for (auto _ : state) {
    for (const u64 size_kb : spec.sizes_kb) {
      for (const u32 assoc : spec.assocs) {
        for (const Volt sigma : spec.sigmas) {
          PopulationEngine engine(BerModel(ber.mu(), sigma), 1);
          benchmark::DoNotOptimize(engine.run(spec.point_spec(size_kb,
                                                              assoc)));
        }
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(spec.base.num_chips));
}
BENCHMARK(BM_PopulationGridDieIndependent);

// ---- Binary trace codec (.pcst) -------------------------------------------

namespace trace_bench {

struct Fixture {
  // Scratch files go to the temp dir so bench runs never litter the repo.
  std::string text_path =
      (std::filesystem::temp_directory_path() / "bench_codec_fixture.trace")
          .string();
  std::string pcst_path =
      (std::filesystem::temp_directory_path() / "bench_codec_fixture.pcst")
          .string();
  u64 events = 0;
  u64 text_bytes = 0;
  u64 pcst_bytes = 0;
};

u64 file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<u64>(pos);
}

/// Records a 1M-event gcc trace once per process, in both containers. The
/// size_ratio counter on BM_PcstDecode is the on-disk reduction (>= 4x);
/// its items/s over BM_FileTraceParse is the decode speed ratio of the two
/// containers.
const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    auto src = make_spec_trace("gcc", 42);
    f.events = record_trace(*src, f.text_path, 1'000'000);
    convert_trace(f.text_path, f.pcst_path, TraceFormat::kPcst);
    f.text_bytes = file_bytes(f.text_path);
    f.pcst_bytes = file_bytes(f.pcst_path);
    return f;
  }();
  return fx;
}

/// Replays events held in memory, so a record bench times the writer alone.
class MemoryTrace final : public TraceSource {
 public:
  explicit MemoryTrace(const std::vector<TraceEvent>& events)
      : events_(events) {}
  bool next(TraceEvent& out) override {
    if (pos_ == events_.size()) return false;
    out = events_[pos_++];
    return true;
  }
  const char* name() const override { return "gcc"; }

 private:
  const std::vector<TraceEvent>& events_;
  std::size_t pos_ = 0;
};

}  // namespace trace_bench

/// The text replay path (workload/trace_file): lines found with memchr in
/// one fixed read buffer, fields parsed with from_chars.
void BM_FileTraceParse(benchmark::State& state) {
  const auto& fx = trace_bench::fixture();
  auto trace = std::make_unique<FileTrace>(fx.text_path);
  TraceEvent e;
  for (auto _ : state) {
    if (!trace->next(e)) {
      trace = std::make_unique<FileTrace>(fx.text_path);
      trace->next(e);
    }
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<i64>(
      static_cast<u64>(state.iterations()) * fx.text_bytes / fx.events));
}
BENCHMARK(BM_FileTraceParse);

/// The memory-mapped zero-copy path: whole 256-event blocks decoded
/// straight into the caller's buffer (trace/mmap_reader). Items = events,
/// so items/s over BM_FileTraceParse is the decode speedup; bytes = the
/// compressed bytes consumed, so bytes/s is the codec's GB/s.
void BM_PcstDecode(benchmark::State& state) {
  const auto& fx = trace_bench::fixture();
  auto file = std::make_shared<const PcstFile>(fx.pcst_path);
  auto trace = std::make_unique<PcstTrace>(file);
  std::vector<TraceEvent> block(pcst::kEventsPerBlock);
  u64 events = 0;
  for (auto _ : state) {
    u64 n = trace->next_block(block.data(), block.size());
    if (n == 0) {
      trace = std::make_unique<PcstTrace>(file);
      n = trace->next_block(block.data(), block.size());
    }
    events += n;
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<i64>(events));
  state.SetBytesProcessed(
      static_cast<i64>(events * fx.pcst_bytes / fx.events));
  state.counters["size_ratio"] = static_cast<double>(fx.text_bytes) /
                                 static_cast<double>(fx.pcst_bytes);
}
BENCHMARK(BM_PcstDecode);

/// Encode throughput: in-memory events through encode_pcst_block (the
/// PcstWriter hot loop without the file I/O).
void BM_PcstEncodeBlock(benchmark::State& state) {
  auto src = make_spec_trace("gcc", 42);
  std::vector<TraceEvent> evs(4096);
  for (auto& e : evs) src->next(e);
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < evs.size(); i += pcst::kEventsPerBlock) {
      encode_pcst_block(evs.data() + i, pcst::kEventsPerBlock, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(evs.size()));
}
BENCHMARK(BM_PcstEncodeBlock);

/// The text record path (workload/trace_file): 200k in-memory gcc events
/// rendered into a temp file, one line per event.
void BM_TextTraceRecord(benchmark::State& state) {
  auto src = make_spec_trace("gcc", 42);
  std::vector<TraceEvent> evs(200'000);
  for (auto& e : evs) src->next(e);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_text_record.trace")
          .string();
  for (auto _ : state) {
    trace_bench::MemoryTrace mem(evs);
    benchmark::DoNotOptimize(record_trace(mem, path, evs.size()));
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(evs.size()));
}
BENCHMARK(BM_TextTraceRecord);

void BM_MarchSsBist(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  Rng rng(6);
  SramArraySim sram(ber, 64 * 1024, rng);
  sram.set_vdd(0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(march_ss(sram));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_MarchSsBist);

void BM_MarchSsBistReference(benchmark::State& state) {
  const BerModel ber(Technology::soi45());
  Rng rng(6);
  SramArraySim sram(ber, 64 * 1024, rng);
  sram.set_vdd(0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(march_ss_reference(sram));
  }
  state.SetItemsProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_MarchSsBistReference);

}  // namespace

BENCHMARK_MAIN();
