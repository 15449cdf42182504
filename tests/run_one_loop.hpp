// The scalar oracle for experiment grids: run_one on each point, in grid
// order. SweepRunner must reproduce its reports bit for bit and, traced,
// its records byte for byte. Also builds Monte-Carlo style point lists,
// one die and one address stream per point.
#pragma once

#include <vector>

#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/rng.hpp"

namespace pcs {

/// Reports of run_one over `points`, in order. With `trace`, each point's
/// records (buffered in a MemoryTraceSink) follow a `runner_task` record
/// that names the point, the framing TELEMETRY.md documents.
inline std::vector<SimReport> run_one_loop(
    const std::vector<ExperimentPoint>& points, TraceSink* trace = nullptr) {
  std::vector<SimReport> reports;
  reports.reserve(points.size());
  for (u64 i = 0; i < points.size(); ++i) {
    const ExperimentPoint& p = points[i];
    MemoryTraceSink records;
    reports.push_back(run_one(p.config, p.workload, p.policy, p.chip_seed,
                              p.trace_seed, p.params,
                              trace ? &records : nullptr));
    if (trace) {
      TraceRecord rec("runner_task");
      rec.field("task", i)
          .field("config", p.config.name)
          .field("workload", p.workload)
          .field("policy", to_string(p.policy))
          .field("chip_seed", p.chip_seed)
          .field("trace_seed", p.trace_seed);
      trace->emit(rec);
      records.replay_into(*trace);
    }
  }
  return reports;
}

/// `n` copies of `p`, copy i with its own die and address stream: chip
/// seed derive_seed(chip, trace, i) and trace seed derive_seed(trace,
/// chip, i), from p's (chip, trace) seed pair.
inline std::vector<ExperimentPoint> replicate_point(const ExperimentPoint& p,
                                                    u64 n) {
  std::vector<ExperimentPoint> points(n, p);
  for (u64 i = 0; i < n; ++i) {
    points[i].index = i;
    points[i].chip_seed = derive_seed(p.chip_seed, p.trace_seed, i);
    points[i].trace_seed = derive_seed(p.trace_seed, p.chip_seed, i);
  }
  return points;
}

}  // namespace pcs
