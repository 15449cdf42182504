// fig4_sweep: the paper's Fig. 4 grid (configs A/B x 16 profiles x
// baseline/SPCS/DPCS) through the lane-parallel SweepRunner -- the paper's
// headline job. cache + core do nearly all the work; synthetic decode is
// shared by the 6 lanes of each group; faults are sampled only at build.
#include <algorithm>
#include <cmath>
#include <string>

#include "common.hpp"
#include "exp/sweep_engine.hpp"
#include "traced.hpp"
#include "util/stats.hpp"
#include "util/vecmath.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs::e2e {

namespace {

// A quarter of the bench's 2M default, so a rep fits four or five times
// into a 10-second run; warm-up keeps fig4_simulation's refs/4 ratio.
constexpr u64 kMeasuredRefs = 500'000;
constexpr u64 kWarmupRefs = kMeasuredRefs / 4;
constexpr u32 kMaxLanes = 16;
/// Groups the traced run re-drives (6 lanes each).
const char* const kTracedGroups[] = {"gcc", "mcf", "hmmer", "lbm"};

std::vector<ExperimentPoint> fig4_points(const Options& o) {
  RunParams rp;
  rp.max_refs = kMeasuredRefs;
  rp.warmup_refs = kWarmupRefs;
  return ExperimentGrid()
      .add_config(SystemConfig::config_a())
      .add_config(SystemConfig::config_b())
      .add_workloads(spec_profile_names())
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(o.chip_seed(), o.trace_seed())
      .params(rp)
      .expand();
}

void put_cache(std::string& b, const CacheEnergyReport& c) {
  b += c.name;
  for (const double v : {c.static_energy, c.dynamic_energy,
                         c.transition_energy, c.avg_power, c.avg_vdd,
                         c.final_vdd, c.miss_rate, c.effective_capacity}) {
    put_bits(b, v);
  }
  for (const u64 v : {c.accesses, c.misses, u64{c.transitions},
                      c.transition_writebacks}) {
    put_u64(b, v);
  }
}

/// Every field of every report, bit for bit, in grid order.
std::string reports_bytes(const std::vector<SimReport>& reports) {
  std::string b;
  for (const SimReport& r : reports) {
    b += r.config_name + '|' + r.workload + '|' + r.policy;
    for (const u64 v : {r.instructions, r.refs, u64{r.cycles}, r.mem_reads,
                        r.mem_writes}) {
      put_u64(b, v);
    }
    put_bits(b, r.seconds);
    put_bits(b, r.ipc);
    put_cache(b, r.l1i);
    put_cache(b, r.l1d);
    put_cache(b, r.l2);
  }
  return b;
}

/// Distance of the sweep from the paper's headline numbers, with
/// fig4_simulation's arithmetic: mean savings 1 - E/E_base per config and
/// policy against 55 % (SPCS) / 69 % (DPCS), and the worst DPCS slowdown
/// per config against 2.6 % (A) / 4.4 % (B).
void report_accuracy(const std::vector<SimReport>& reports, Report& r) {
  const std::size_t num_wl = spec_profile_names().size();
  const double paper_overhead_pct[2] = {2.6, 4.4};
  double energy_err = 0.0;
  double overhead_err = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    RunningStats spcs, dpcs;
    double worst = 0.0;
    for (std::size_t w = 0; w < num_wl; ++w) {
      const std::size_t at = (c * num_wl + w) * 3;
      const SimReport& base = reports[at];
      const double eb = base.total_cache_energy();
      spcs.add(1.0 - reports[at + 1].total_cache_energy() / eb);
      dpcs.add(1.0 - reports[at + 2].total_cache_energy() / eb);
      worst = std::max(worst, static_cast<double>(reports[at + 2].cycles) /
                                      static_cast<double>(base.cycles) -
                                  1.0);
    }
    energy_err += std::abs(100.0 * spcs.mean() - 55.0) +
                  std::abs(100.0 * dpcs.mean() - 69.0);
    overhead_err += std::abs(100.0 * worst - paper_overhead_pct[c]);
  }
  r.metric("core.fig4_energy_err_pp", energy_err / 4.0, "pp");
  r.metric("core.fig4_overhead_err_pp", overhead_err / 2.0, "pp");
}

/// Shard-task statistics of one untraced SweepRunner run.
void report_pool(const RunnerStats& stats, u32 threads, double wall_s,
                 Report& r) {
  double busy_ms = 0.0;
  for (const double ms : stats.task_wall_ms) busy_ms += ms;
  r.metric("exp.pool_util", busy_ms / (threads * wall_s * 1e3), "ratio");
  r.metric("exp.tasks", static_cast<double>(stats.tasks), "count");
  r.metric("exp.task_max_over_p50",
           *std::max_element(stats.task_wall_ms.begin(),
                             stats.task_wall_ms.end()) /
               median(stats.task_wall_ms),
           "ratio");
  r.metric("exp.steals", static_cast<double>(stats.steals), "count");
  r.metric("exp.max_queue_depth", static_cast<double>(stats.max_queue_depth),
           "count");
}

void run_traced(const Options& o, const std::vector<ExperimentPoint>& points,
                const SweepRunner& runner, Report& r) {
  RunnerStats stats;
  std::vector<SimReport> reports;
  const double wall =
      wall_of([&] { reports = runner.run(points, nullptr, &stats); });
  r.attempted += reports.size();
  r.digest = hex_digest(reports_bytes(reports));
  report_accuracy(reports, r);
  report_pool(stats, o.threads, wall, r);

  // The traced groups, one 6-lane shard each, also run untraced through a
  // one-thread SweepRunner: the reference results, and the untraced wall
  // of the same inputs on as many threads as the traced pass.
  std::vector<std::vector<ExperimentPoint>> groups;
  std::vector<ExperimentPoint> subset;
  for (const char* name : kTracedGroups) {
    std::vector<ExperimentPoint>& lanes = groups.emplace_back();
    for (const ExperimentPoint& p : points) {
      if (p.workload == name) lanes.push_back(p);
    }
    subset.insert(subset.end(), lanes.begin(), lanes.end());
  }
  SweepOptions serial;
  serial.num_threads = 1;
  serial.max_lanes = kMaxLanes;
  std::vector<SimReport> want;
  const double untraced_s =
      wall_of([&] { want = SweepRunner(serial).run(subset); });
  r.attempted += want.size();

  Tracer tr;
  const u64 root = tr.open("fig4_sweep");
  u64 transitions = 0;
  std::vector<SimReport> got;
  for (const std::vector<ExperimentPoint>& lanes : groups) {
    for (SimReport& s :
         trace_shard(tr, root, lanes, /*engine_layout=*/true, transitions)) {
      got.push_back(std::move(s));
    }
  }
  tr.close(root);
  for (std::size_t k = 0; k < got.size(); ++k) {
    r.check(got[k] == want[k], "traced " + subset[k].workload + " lane " +
                                   std::to_string(k) +
                                   " differs from SweepRunner");
  }
  tr.report_layers(root, untraced_s, r);
  report_cache_counts(got, r);
  r.metric("core.transitions", static_cast<double>(transitions), "count");
  tr.write_jsonl(o.trace_out, o.workload);
}

}  // namespace

void run_fig4_sweep(const Options& o, Report& r) {
  const double t0 = now_s();
  vecmath::fast_math_active();  // the lazy libm discovery is set-up work
  const std::vector<ExperimentPoint> points = fig4_points(o);
  r.setup_s = now_s() - t0;
  if (o.setup_only) return;

  SweepOptions opt;
  opt.num_threads = o.threads;
  opt.max_lanes = kMaxLanes;
  const SweepRunner runner(opt);
  if (o.traced) {
    run_traced(o, points, runner, r);
    return;
  }

  std::vector<SimReport> first;
  const std::vector<double> walls = timed_reps(o.seconds, [&] {
    std::vector<SimReport> reports;
    const double wall = wall_of([&] { reports = runner.run(points); });
    r.attempted += reports.size();
    if (first.empty()) {
      first = std::move(reports);
    } else {
      r.check(reports == first, "fig4 rep differs from the first rep");
    }
    return wall;
  });
  double lane_refs = 0.0;
  for (const ExperimentPoint& p : points) {
    lane_refs += static_cast<double>(p.params.warmup_refs + p.params.max_refs);
  }
  r.metric("throughput", lane_refs / median(walls), "1/s");
  r.digest = hex_digest(reports_bytes(first));

  // Cross-check four points (rotating with the seed over configs and
  // policies) against the scalar engine's unit of work.
  const u64 n = points.size();
  std::vector<u64> picks;
  for (u64 k = 0; k < 4; ++k) picks.push_back((o.seed * 7 + k * n / 4) % n);
  const std::vector<SimReport> scalar =
      parallel_index_map(o.threads, picks.size(), [&](u64 k) {
        const ExperimentPoint& p = points[picks[k]];
        return run_one(p.config, p.workload, p.policy, p.chip_seed,
                       p.trace_seed, p.params);
      });
  for (std::size_t k = 0; k < picks.size(); ++k) {
    r.check(scalar[k] == first[picks[k]],
            "fig4 point " + std::to_string(picks[k]) +
                " differs from the scalar run_one");
  }
}

}  // namespace pcs::e2e
