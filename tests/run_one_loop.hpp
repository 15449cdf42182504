// The scalar oracle for experiment grids: run_one on each point, in grid
// order. SweepRunner must reproduce its reports bit for bit and, traced,
// its records byte for byte.
#pragma once

#include <vector>

#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "telemetry/trace_sink.hpp"

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

}  // namespace pcs
