#include "exp/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

// The sweep engine's whole point is inlining the fused per-lane event loop:
// pull in the template bodies of the cache access paths so step_decoded<K>
// collapses to straight-line code here. PcsSystem::run's TU does NOT
// include these, so its codegen -- the reference the differential suites
// and the speedup ratio compare against -- is untouched.
#include "cache/cache_level_inl.hpp"
#include "cache/hierarchy_inl.hpp"
#include "fault/set_fold.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"

// pcs-lint: allow-file(DET001) wall clock is quarantined to the
// sweep_task_profile/sweep_profile records; determinism checks strip these
// record types (TELEMETRY.md), and SimReports never depend on them.

namespace pcs {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Decoded events are broadcast to lanes in blocks this big: small enough
/// to stay resident in L1 next to the lane state, large enough to amortize
/// the per-block lane-loop overhead.
constexpr u64 kBlockEvents = 256;

struct Lane {
  std::unique_ptr<PcsSystem> sys;
  PcsSystem::MeasureBaseline base;
};

/// Replays one decoded block into every lane, lane-major. Per lane this is
/// exactly the scalar run() inner loop -- step, then all three controller
/// ticks, per event -- so each lane's state evolution is bit-identical to
/// a solo run. Lane-major order keeps one lane's working set hot across
/// the whole block; lanes are independent, so the cross-lane order is
/// unobservable in results.
template <int K>
void drive_lanes(std::vector<Lane>& lanes, const TraceEvent* evs, u64 n) {
  AccessOutcome out;
  for (auto& lane : lanes) {
    PcsSystem& sys = *lane.sys;
    CpuModel& cpu = sys.cpu();
    for (u64 i = 0; i < n; ++i) {
      cpu.step_decoded<K>(evs[i], out);
      sys.tick_all();
    }
  }
}

/// Warm-up + measured loops, block-clipped so no block straddles the
/// measurement boundary; trace-end semantics match PcsSystem::run()
/// (warm-up = min(warmup_refs, stream), measured = min(max_refs, rest)).
template <int K>
void run_shard_loops(std::vector<Lane>& lanes, TraceSource& trace,
                     const RunParams& params) {
  std::vector<TraceEvent> block(kBlockEvents);
  u64 warm = 0;
  while (warm < params.warmup_refs) {
    const u64 want = std::min<u64>(kBlockEvents, params.warmup_refs - warm);
    // next_block is semantically a next() loop, but block-decoding sources
    // (the mmap'd .pcst reader) fill the buffer zero-copy in one call.
    const u64 n = trace.next_block(block.data(), want);
    drive_lanes<K>(lanes, block.data(), n);
    warm += n;
    if (n < want) break;  // trace exhausted during warm-up
  }
  for (auto& lane : lanes) lane.base = lane.sys->begin_measurement();
  u64 measured = 0;
  while (measured < params.max_refs) {
    const u64 want = std::min<u64>(kBlockEvents, params.max_refs - measured);
    const u64 n = trace.next_block(block.data(), want);
    drive_lanes<K>(lanes, block.data(), n);
    measured += n;
    if (n < want) break;
  }
}

/// Runs one shard: constructs its lanes back to back in one arena, decodes
/// the group's trace once, and returns the reports in shard order.
std::vector<SimReport> run_shard(const std::vector<ExperimentPoint>& points,
                                 const std::vector<u64>& idxs,
                                 MemoryTraceSink* traces) {
  CacheArena arena;
  CacheArena::Spec spec;
  for (const u64 i : idxs) {
    spec += PcsSystem::storage_spec(points[i].config);
  }
  arena.reserve(spec);

  std::vector<Lane> lanes;
  lanes.reserve(idxs.size());
  for (const u64 i : idxs) {
    Lane lane;
    lane.sys = std::make_unique<PcsSystem>(
        points[i].config, points[i].policy, points[i].chip_seed, &arena);
    if (traces) lane.sys->set_trace(&traces[i]);
    lanes.push_back(std::move(lane));
  }

  const ExperimentPoint& head = points[idxs[0]];
  auto trace_src = make_workload_source(head.workload, head.trace_seed);

  // Hoist the replacement dispatch when every level of every lane shares
  // one ReplKind (true for the paper grids: "lru" at assoc <= 16
  // everywhere); otherwise fall back to per-call dispatch, which is still
  // bit-identical (see Hierarchy::access_t).
  int common = static_cast<int>(lanes[0].sys->hierarchy().l1i().repl_kind());
  for (auto& lane : lanes) {
    Hierarchy& h = lane.sys->hierarchy();
    for (const CacheLevel* c : {&h.l1i(), &h.l1d(), &h.l2()}) {
      if (static_cast<int>(c->repl_kind()) != common) common = kReplDynamic;
    }
  }
  switch (common) {
    case static_cast<int>(CacheLevel::ReplKind::kLruPacked):
      run_shard_loops<static_cast<int>(CacheLevel::ReplKind::kLruPacked)>(
          lanes, *trace_src, head.params);
      break;
    case static_cast<int>(CacheLevel::ReplKind::kLruWide):
      run_shard_loops<static_cast<int>(CacheLevel::ReplKind::kLruWide)>(
          lanes, *trace_src, head.params);
      break;
    case static_cast<int>(CacheLevel::ReplKind::kTreePlru):
      run_shard_loops<static_cast<int>(CacheLevel::ReplKind::kTreePlru)>(
          lanes, *trace_src, head.params);
      break;
    default:
      run_shard_loops<kReplDynamic>(lanes, *trace_src, head.params);
      break;
  }

  std::vector<SimReport> reps;
  reps.reserve(idxs.size());
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    reps.push_back(
        lanes[k].sys->finish_measurement(lanes[k].base, trace_src->name()));
  }
  return reps;
}

/// Grid-order task identity for the deterministic `runner_task` records.
struct TaskDesc {
  std::string config;
  std::string workload;
  const char* policy;
  u64 chip_seed;
  u64 trace_seed;
};

}  // namespace

SweepRunner::SweepRunner(const SweepOptions& opt)
    : num_threads_(opt.num_threads == 0 ? pcs_thread_count()
                                        : opt.num_threads),
      max_lanes_(opt.max_lanes < 1 ? 1 : opt.max_lanes) {}

std::vector<SimReport> SweepRunner::run(const ExperimentGrid& grid,
                                        TraceSink* trace,
                                        RunnerStats* stats) const {
  return run(grid.expand(), trace, stats);
}

std::vector<SimReport> SweepRunner::run(std::vector<ExperimentPoint> points,
                                        TraceSink* trace,
                                        RunnerStats* stats) const {
  const u64 n = points.size();
  const bool profiling = trace != nullptr || stats != nullptr;

  std::vector<TaskDesc> descs;
  if (trace) {
    descs.reserve(n);
    for (const auto& p : points) {
      descs.push_back({p.config.name, p.workload, to_string(p.policy),
                       p.chip_seed, p.trace_seed});
    }
  }

  // Group points that can share one trace decode, preserving first-
  // appearance order, then split each group into shards of at most
  // max_lanes lanes. The decomposition depends only on the grid and
  // max_lanes -- never the thread count -- so shard contents (and with
  // them every lane's event stream) are reproducible.
  std::vector<std::vector<u64>> shards;
  {
    struct Group {
      u64 first;
      std::vector<u64> idxs;
    };
    std::vector<Group> groups;  // linear scan: deterministic iteration
    for (u64 i = 0; i < n; ++i) {
      const auto& p = points[i];
      Group* g = nullptr;
      for (auto& cand : groups) {
        const auto& q = points[cand.first];
        if (q.workload == p.workload && q.trace_seed == p.trace_seed &&
            q.params == p.params) {
          g = &cand;
          break;
        }
      }
      if (g == nullptr) {
        groups.push_back({i, {}});
        g = &groups.back();
      }
      g->idxs.push_back(i);
    }
    for (const auto& g : groups) {
      for (std::size_t off = 0; off < g.idxs.size(); off += max_lanes_) {
        const std::size_t end = std::min(g.idxs.size(), off + max_lanes_);
        shards.emplace_back(g.idxs.begin() + static_cast<std::ptrdiff_t>(off),
                            g.idxs.begin() + static_cast<std::ptrdiff_t>(end));
      }
    }
  }

  std::vector<MemoryTraceSink> task_traces(trace ? n : 0);
  std::vector<double> shard_ms(profiling ? shards.size() : 0, 0.0);
  std::vector<SimReport> rows(n);
  // Each shard writes only its own shard_ms slot and its points' sinks,
  // and every write is done before for_each_in_order returns.
  const PoolCounters counters = for_each_in_order(
      num_threads_, shards.size(),
      [&](u64 s) {
        const auto t0 = std::chrono::steady_clock::now();
        auto reps = run_shard(points, shards[s],
                              trace ? task_traces.data() : nullptr);
        if (profiling) shard_ms[s] = ms_since(t0);
        return reps;
      },
      [&](u64 s, std::vector<SimReport>&& reps) {
        for (std::size_t k = 0; k < shards[s].size(); ++k) {
          rows[shards[s][k]] = std::move(reps[k]);
        }
      });

  if (trace) {
    // Deterministic section: per point in grid order, its runner_task
    // record followed by its lane's buffered records -- what a run_one loop
    // writes into per-point sinks.
    for (u64 i = 0; i < n; ++i) {
      TraceRecord rec("runner_task");
      rec.field("task", i)
          .field("config", descs[i].config)
          .field("workload", descs[i].workload)
          .field("policy", descs[i].policy)
          .field("chip_seed", descs[i].chip_seed)
          .field("trace_seed", descs[i].trace_seed);
      trace->emit(rec);
      task_traces[i].replay_into(*trace);
    }
    // Non-deterministic profiling section (wall clock varies run to run);
    // determinism checks must strip these record types.
    double total_ms = 0.0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      total_ms += shard_ms[s];
      TraceRecord rec("sweep_task_profile");
      rec.field("task", s)
          .field("lanes", shards[s].size())
          .field("wall_ms", shard_ms[s]);
      trace->emit(rec);
    }
    TraceRecord rec("sweep_profile");
    rec.field("threads", num_threads_)
        .field("shards", shards.size())
        .field("max_lanes", max_lanes_)
        .field("steals", counters.steals)
        .field("max_queue_depth", counters.max_queue_depth)
        .field("wall_ms_total", total_ms);
    trace->emit(rec);
  }
  if (stats) {
    stats->threads = num_threads_;
    stats->tasks = shards.size();
    stats->steals = counters.steals;
    stats->max_queue_depth = counters.max_queue_depth;
    stats->wall_ms_total = 0.0;
    for (const double ms : shard_ms) stats->wall_ms_total += ms;
    stats->task_wall_ms = std::move(shard_ms);
  }
  return rows;
}

// ---- Die fail voltage (the Fig. 3d fold) ----------------------------------

float chip_fail_voltage(std::span<const float> vf, u32 assoc) {
  // Bit-identical to the flat fold max_s(min_w vf[s][w]) in set order: a
  // set's min starts at 2.0f and std::min drops NaN ways, so no set value
  // is NaN; every maximum starts at +0.0f, so a result <= 0 is +0.0f
  // whatever the order, and a positive result is one float value, whose
  // bits are unique. Splitting the max across lanes therefore cannot
  // change a bit. (Folding the stored floats equals the pre-span loop's
  // float(block_fail_voltage(b)), a float->double->float round trip.)
  // The ways switch is spelled out here rather than taken from the span
  // overload of fold_sets: calling that overload changes GCC's inlining
  // in this file (set_fold.hpp). Each set's min starts at 2.0f, the max
  // at +0.0f.
  const u64 num_sets = vf.size() / assoc;
  const float* v = vf.data();
  switch (assoc) {
    case 2: return fold_sets<float, 2>(v, num_sets, assoc, 2.0f, 0.0f);
    case 4: return fold_sets<float, 4>(v, num_sets, assoc, 2.0f, 0.0f);
    case 8: return fold_sets<float, 8>(v, num_sets, assoc, 2.0f, 0.0f);
    case 16: return fold_sets<float, 16>(v, num_sets, assoc, 2.0f, 0.0f);
    default: return fold_sets<float, 0>(v, num_sets, assoc, 2.0f, 0.0f);
  }
}

}  // namespace pcs
