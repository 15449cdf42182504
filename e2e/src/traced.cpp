#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <string>

// The template bodies of the cache access paths, so step_decoded<K> binds
// the replacement dispatch at compile time exactly as the sweep engine's.
#include "cache/cache_level_inl.hpp"
#include "cache/hierarchy_inl.hpp"
#include "exp/sweep_engine.hpp"
#include "trace/mmap_reader.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "workload/trace_file.hpp"

namespace pcs::e2e {

namespace {

/// The sweep engine's decode-block size.
constexpr u64 kBlockEvents = 256;
/// sample_fast's draw-block size.
constexpr u64 kDrawChunk = 4096;

struct Lane {
  std::unique_ptr<PcsSystem> sys;
  PcsSystem::MeasureBaseline base;
  u64 span = 0;
  CallAgg* accesses = nullptr;
  CallAgg* ticks = nullptr;
  CallAgg* transitions = nullptr;
  CallAgg* measures = nullptr;
  u32 seen = 0;  ///< controller transitions counted so far
};

u32 transitions_of(PcsSystem& sys) {
  return sys.l1i_controller().pcs_stats().transitions +
         sys.l1d_controller().pcs_stats().transitions +
         sys.l2_controller().pcs_stats().transitions;
}

/// Per lane and per event: step_decoded, then tick_all. A tick during which
/// any controller's transition count rose is timed as a transition.
template <int K>
void drive(std::vector<Lane>& lanes, const TraceEvent* evs, u64 n) {
  AccessOutcome out;
  for (Lane& lane : lanes) {
    PcsSystem& sys = *lane.sys;
    CpuModel& cpu = sys.cpu();
    for (u64 i = 0; i < n; ++i) {
      const i64 t0 = now_ns();
      cpu.step_decoded<K>(evs[i], out);
      lane.accesses->since(t0);
      const i64 t1 = now_ns();
      sys.tick_all();
      const i64 tick_ns = now_ns() - t1;
      const u32 t = transitions_of(sys);
      if (t != lane.seen) {
        lane.seen = t;
        lane.transitions->add(tick_ns);
      } else {
        lane.ticks->add(tick_ns);
      }
    }
  }
}

/// Warm-up and measured windows, block-clipped at the boundary like the
/// sweep engine; trace-end semantics match PcsSystem::run().
template <int K>
void run_windows(Tracer& tr, std::vector<Lane>& lanes, TraceSource& src,
                 CallAgg& decode, const RunParams& params) {
  std::vector<TraceEvent> block(kBlockEvents);
  const auto window = [&](u64 refs) {
    u64 done = 0;
    while (done < refs) {
      const u64 want = std::min(kBlockEvents, refs - done);
      const i64 t0 = now_ns();
      const u64 n = src.next_block(block.data(), want);
      decode.since(t0, n);
      drive<K>(lanes, block.data(), n);
      tr.calibrate();
      done += n;
      if (n < want) break;
    }
  };
  window(params.warmup_refs);
  for (Lane& lane : lanes) {
    const i64 t0 = now_ns();
    lane.base = lane.sys->begin_measurement();
    lane.measures->since(t0);
    lane.seen = transitions_of(*lane.sys);  // the measured window restarts
  }
  window(params.max_refs);
}

/// Decode-layer call names for the concrete source type.
struct SourceCalls {
  const char* opens;
  const char* events;
};

SourceCalls source_calls(const TraceSource& src) {
  if (dynamic_cast<const PcstTrace*>(&src) != nullptr) {
    return {"trace.pcst_opens", "trace.pcst_events"};
  }
  if (dynamic_cast<const FileTrace*>(&src) != nullptr) {
    return {"workload.text_opens", "workload.text_events"};
  }
  return {"workload.synth_opens", "workload.synth_events"};
}

}  // namespace

std::vector<SimReport> trace_shard(Tracer& tr, u64 parent,
                                   const std::vector<ExperimentPoint>& points,
                                   bool engine_layout, u64& transitions) {
  const ExperimentPoint& head = points.front();
  const u64 shard = tr.open("shard " + head.workload, parent);
  std::vector<Lane> lanes(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint& p = points[i];
    Lane& lane = lanes[i];
    lane.span = tr.open(p.config.name + "/" + to_string(p.policy), shard);
    lane.accesses = &tr.calls(lane.span, "cache.accesses");
    lane.ticks = &tr.calls(lane.span, "core.ticks");
    lane.transitions = &tr.calls(lane.span, "core.transitions");
    lane.measures = &tr.calls(lane.span, "core.measures");
  }

  CacheArena arena;
  if (engine_layout) {
    CacheArena::Spec spec;
    for (const ExperimentPoint& p : points) {
      spec += PcsSystem::storage_spec(p.config);
    }
    arena.reserve(spec);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ExperimentPoint& p = points[i];
    const i64 t0 = now_ns();
    lanes[i].sys = std::make_unique<PcsSystem>(
        p.config, p.policy, p.chip_seed, engine_layout ? &arena : nullptr);
    tr.calls(lanes[i].span, "core.builds").since(t0);
  }
  const i64 t0 = now_ns();
  const auto src = make_workload_source(head.workload, head.trace_seed);
  const i64 open_ns = now_ns() - t0;
  const SourceCalls names = source_calls(*src);
  tr.calls(shard, names.opens).add(open_ns);
  CallAgg& decode = tr.calls(shard, names.events);

  // SweepRunner hoists the replacement dispatch when every level of every
  // lane shares one ReplKind; the scalar path always dispatches per call.
  int kind = kReplDynamic;
  if (engine_layout) {
    kind = static_cast<int>(lanes[0].sys->hierarchy().l1i().repl_kind());
    for (Lane& lane : lanes) {
      Hierarchy& h = lane.sys->hierarchy();
      for (const CacheLevel* c : {&h.l1i(), &h.l1d(), &h.l2()}) {
        if (static_cast<int>(c->repl_kind()) != kind) kind = kReplDynamic;
      }
    }
  }
  using RK = CacheLevel::ReplKind;
  switch (kind) {
    case static_cast<int>(RK::kLruPacked):
      run_windows<static_cast<int>(RK::kLruPacked)>(tr, lanes, *src, decode,
                                                    head.params);
      break;
    case static_cast<int>(RK::kLruWide):
      run_windows<static_cast<int>(RK::kLruWide)>(tr, lanes, *src, decode,
                                                  head.params);
      break;
    case static_cast<int>(RK::kTreePlru):
      run_windows<static_cast<int>(RK::kTreePlru)>(tr, lanes, *src, decode,
                                                   head.params);
      break;
    default:
      run_windows<kReplDynamic>(tr, lanes, *src, decode, head.params);
      break;
  }

  std::vector<SimReport> reports;
  reports.reserve(lanes.size());
  for (Lane& lane : lanes) {
    const i64 t1 = now_ns();
    reports.push_back(lane.sys->finish_measurement(lane.base, src->name()));
    lane.measures->since(t1);
    transitions += lane.transitions->calls;
    tr.close(lane.span);
  }
  tr.close(shard);
  return reports;
}

PopulationResult trace_population(Tracer& tr, u64 parent,
                                  const PopulationSpec& spec,
                                  const BerModel& ber) {
  spec.org.validate();
  const std::vector<Volt> grid = spec.grid();
  const u32 levels = static_cast<u32>(grid.size());
  const u64 blocks = spec.org.num_blocks();
  const double nbits = static_cast<double>(spec.org.bits_per_block());
  const u64 per_shard = std::max<u64>(1, spec.chips_per_shard);
  const u64 num_shards = (spec.num_chips + per_shard - 1) / per_shard;

  // Buffers are reused across dies, where sample_fast allocates per die.
  std::vector<double> u(static_cast<std::size_t>(std::min(blocks, kDrawChunk)));
  std::vector<float> vf(static_cast<std::size_t>(blocks));
  std::vector<u64> faulty_at(levels + 2);
  PopulationResult merged = make_empty_population_result(grid);
  CallAgg& merges = tr.calls(parent, "exp.merges");
  for (u64 s = 0; s < num_shards; ++s) {
    const u64 shard = tr.open("shard " + std::to_string(s), parent);
    CallAgg& draws = tr.calls(shard, "util.uniform_draw_dies");
    CallAgg& chains = tr.calls(shard, "util.os_chain_dies");
    CallAgg& floors = tr.calls(shard, "exp.chip_floor_dies");
    CallAgg& rungs = tr.calls(shard, "exp.rung_hist_dies");
    CallAgg& bins = tr.calls(shard, "exp.bin_dies");
    CallAgg& accums = tr.calls(shard, "exp.accumulate_dies");
    i64 t0 = now_ns();
    PopulationResult part = make_empty_population_result(grid);
    tr.calls(shard, "exp.shard_inits").since(t0);
    const u64 end = std::min(spec.num_chips, (s + 1) * per_shard);
    for (u64 c = s * per_shard; c < end; ++c) {
      // The draw of a die includes seeding its Rng.
      t0 = now_ns();
      Rng rng(derive_seed(spec.seed, 0, c));
      for (u64 at = 0; at < blocks; at += kDrawChunk) {
        const u64 todo = std::min(kDrawChunk, blocks - at);
        if (at > 0) t0 = now_ns();
        rng.uniform_block(std::span<double>(u.data(), todo));
        draws.since(t0, at == 0 ? 1 : 0);
        t0 = now_ns();
        vecmath::sample_vf_block(u.data(), todo, nbits, ber.mu(), ber.sigma(),
                                 vf.data() + at);
        chains.since(t0, at == 0 ? 1 : 0);
      }
      t0 = now_ns();
      const float vf_chip = chip_fail_voltage(vf, spec.org.assoc);
      floors.since(t0);
      // Like bin_chip: a die faulty even at the top level skips the
      // histogram and bins as unusable.
      ChipBinPoint p;
      if (std::upper_bound(grid.begin(), grid.end(),
                           static_cast<Volt>(vf_chip)) != grid.end()) {
        t0 = now_ns();
        std::fill(faulty_at.begin(), faulty_at.end(), u64{0});
        count_fail_rungs(vf, grid, faulty_at);
        rungs.since(t0);
        t0 = now_ns();
        for (u32 l = levels; l >= 1; --l) faulty_at[l] += faulty_at[l + 1];
        p = bin_from_fail_summary(vf_chip, faulty_at, blocks, grid,
                                  spec.spcs_min_capacity);
        bins.since(t0);
      }
      t0 = now_ns();
      accumulate_chip(part, p);
      accums.since(t0);
      tr.calibrate();
    }
    tr.close(shard);
    t0 = now_ns();
    merged.merge(part);
    merges.since(t0);
  }
  return merged;
}

PopulationGridResult trace_population_grid(Tracer& tr, u64 parent,
                                           const PopulationGridSpec& spec,
                                           const BerModel& ber) {
  spec.validate();
  const PopulationSpec& base = spec.base;
  const std::vector<Volt> grid = base.grid();
  const std::vector<Volt> sigmas = spec.sigma_axis(ber.sigma());
  const std::size_t num_assocs = spec.assocs.size();
  const std::size_t num_sigmas = sigmas.size();
  const std::size_t num_points = spec.num_points();
  const auto point_index = [&](std::size_t si, std::size_t ai,
                               std::size_t gi) {
    return (si * num_assocs + ai) * num_sigmas + gi;
  };
  // Sizes in ascending block order, each extending the previous histogram.
  std::vector<u64> blocks_of;
  for (const u64 kb : spec.sizes_kb) {
    blocks_of.push_back(spec.org_for(kb, spec.assocs[0]).num_blocks());
  }
  std::vector<std::size_t> size_order(blocks_of.size());
  std::iota(size_order.begin(), size_order.end(), std::size_t{0});
  std::sort(size_order.begin(), size_order.end(),
            [&](std::size_t a, std::size_t b) {
              return blocks_of[a] < blocks_of[b];
            });
  const u64 max_blocks = blocks_of[size_order.back()];
  const double nbits = static_cast<double>(base.org.bits_per_block());
  const u32 levels = static_cast<u32>(grid.size());
  const u64 per_shard = std::max<u64>(1, base.chips_per_shard);
  const u64 num_shards = (base.num_chips + per_shard - 1) / per_shard;

  std::vector<double> u(
      static_cast<std::size_t>(std::min(max_blocks, kDrawChunk)));
  std::vector<double> z(static_cast<std::size_t>(max_blocks));
  std::vector<float> vf(static_cast<std::size_t>(max_blocks));
  std::vector<u64> rung_counts(levels + 2);
  std::vector<u64> faulty_at(levels + 2);
  std::vector<PopulationResult> merged(num_points,
                                       make_empty_population_result(grid));
  CallAgg& merges = tr.calls(parent, "exp.merges");
  for (u64 s = 0; s < num_shards; ++s) {
    const u64 shard = tr.open("shard " + std::to_string(s), parent);
    CallAgg& draws = tr.calls(shard, "util.uniform_draw_dies");
    CallAgg& chains = tr.calls(shard, "util.z_chain_dies");
    CallAgg& affines = tr.calls(shard, "util.vf_affine_dies");
    CallAgg& floors = tr.calls(shard, "exp.chip_floor_dies");
    CallAgg& rungs = tr.calls(shard, "exp.rung_hist_dies");
    CallAgg& bins = tr.calls(shard, "exp.bin_dies");
    CallAgg& accums = tr.calls(shard, "exp.accumulate_dies");
    i64 t0 = now_ns();
    std::vector<PopulationResult> parts(num_points,
                                        make_empty_population_result(grid));
    tr.calls(shard, "exp.shard_inits").since(t0);
    // Calls repeat per sigma, size and assoc; each counts one die per die.
    const u64 end = std::min(base.num_chips, (s + 1) * per_shard);
    for (u64 c = s * per_shard; c < end; ++c) {
      t0 = now_ns();  // the draw of a die includes seeding its Rng
      Rng rng(derive_seed(base.seed, 0, c));
      for (u64 at = 0; at < max_blocks; at += kDrawChunk) {
        const u64 todo = std::min(kDrawChunk, max_blocks - at);
        if (at > 0) t0 = now_ns();
        rng.uniform_block(std::span<double>(u.data(), todo));
        draws.since(t0, at == 0 ? 1 : 0);
        t0 = now_ns();
        vecmath::sample_z_block(u.data(), todo, nbits, z.data() + at);
        chains.since(t0, at == 0 ? 1 : 0);
      }
      for (std::size_t gi = 0; gi < num_sigmas; ++gi) {
        t0 = now_ns();
        vecmath::vf_from_z_block(z.data(), static_cast<std::size_t>(max_blocks),
                                 ber.mu(), sigmas[gi], vf.data());
        affines.since(t0, gi == 0 ? 1 : 0);
        t0 = now_ns();
        std::fill(rung_counts.begin(), rung_counts.end(), u64{0});
        u64 prev_blocks = 0;
        for (const std::size_t si : size_order) {
          const u64 blocks = blocks_of[si];
          if (prev_blocks > 0) t0 = now_ns();
          count_fail_rungs(
              std::span<const float>(vf.data() + prev_blocks,
                                     static_cast<std::size_t>(blocks -
                                                              prev_blocks)),
              grid, rung_counts);
          const bool first = gi == 0 && prev_blocks == 0;
          rungs.since(t0, first ? 1 : 0);
          prev_blocks = blocks;
          t0 = now_ns();
          faulty_at[levels + 1] = rung_counts[levels + 1];
          for (u32 l = levels; l >= 1; --l) {
            faulty_at[l] = rung_counts[l] + faulty_at[l + 1];
          }
          bins.since(t0, first ? 1 : 0);
          for (std::size_t ai = 0; ai < num_assocs; ++ai) {
            t0 = now_ns();
            const float vf_chip = chip_fail_voltage(
                std::span<const float>(vf.data(),
                                       static_cast<std::size_t>(blocks)),
                spec.assocs[ai]);
            floors.since(t0, first && ai == 0 ? 1 : 0);
            t0 = now_ns();
            const ChipBinPoint p = bin_from_fail_summary(
                vf_chip, faulty_at, blocks, grid, base.spcs_min_capacity);
            bins.since(t0, 0);
            t0 = now_ns();
            accumulate_chip(parts[point_index(si, ai, gi)], p);
            accums.since(t0, first && ai == 0 ? 1 : 0);
          }
        }
      }
      tr.calibrate();
    }
    tr.close(shard);
    t0 = now_ns();
    for (std::size_t p = 0; p < num_points; ++p) merged[p].merge(parts[p]);
    merges.since(t0, num_points);
  }

  PopulationGridResult result;
  result.points.reserve(num_points);
  for (std::size_t si = 0; si < spec.sizes_kb.size(); ++si) {
    for (std::size_t ai = 0; ai < num_assocs; ++ai) {
      for (std::size_t gi = 0; gi < num_sigmas; ++gi) {
        result.points.push_back({spec.sizes_kb[si], spec.assocs[ai],
                                 sigmas[gi],
                                 std::move(merged[point_index(si, ai, gi)])});
      }
    }
  }
  return result;
}

void report_cache_counts(const std::vector<SimReport>& reports, Report& r) {
  double l1d = 0.0, l2 = 0.0, dram = 0.0, refs = 0.0;
  for (const SimReport& s : reports) {
    l1d += s.l1d.miss_rate;
    l2 += s.l2.miss_rate;
    dram += static_cast<double>(s.mem_reads + s.mem_writes);
    refs += static_cast<double>(s.refs);
  }
  const double n = static_cast<double>(reports.size());
  r.metric("cache.l1d_miss_rate", 100.0 * l1d / n, "%");
  r.metric("cache.l2_miss_rate", 100.0 * l2 / n, "%");
  r.metric("cache.dram_per_kref", 1e3 * dram / refs, "count");
}

}  // namespace pcs::e2e
