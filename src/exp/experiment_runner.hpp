// Declarative experiment grids and the types their scheduler shares.
//
// A figure sweep is a cross product {SystemConfig} x {workload} x
// {PolicyKind} (x replicates for Monte-Carlo trials). ExperimentGrid
// expands that product into an ordered task list, SweepRunner
// (exp/sweep_engine.hpp) executes it, and RunAggregator collects SimReport
// rows back into grid order regardless of completion order. Seeds are
// fixed per task before anything runs, so the results are bit-identical at
// every thread count. The executable specification of one grid point is
// run_one (core/system.hpp).
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/system.hpp"
#include "exp/thread_pool.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/types.hpp"

namespace pcs {

/// How per-task seeds are assigned during grid expansion.
enum class SeedScheme {
  /// Every task runs the grid's (chip_seed, trace_seed) verbatim -- the
  /// same die and the same address stream everywhere, exactly like the
  /// original serial benches. Figure sweeps use this.
  kShared,
  /// Task i runs derive_seed(chip_seed, trace_seed, i) for both seeds --
  /// independent dies / streams per task. Monte-Carlo trials use this.
  kPerTask,
};

/// One fully-specified simulation: the experiment engine's unit of work.
struct ExperimentPoint {
  u64 index = 0;  ///< position in grid order
  SystemConfig config;
  std::string workload;
  PolicyKind policy = PolicyKind::kBaseline;
  u64 chip_seed = 1;
  u64 trace_seed = 42;
  RunParams params;
};

/// Builder for the task cross product. Expansion order is config-major:
/// for each config, for each workload, for each policy, for each replicate
/// -- matching the nesting of the original serial bench loops.
class ExperimentGrid {
 public:
  ExperimentGrid& add_config(const SystemConfig& cfg);
  ExperimentGrid& add_workload(const std::string& name);
  ExperimentGrid& add_workloads(const std::vector<std::string>& names);
  ExperimentGrid& add_policy(PolicyKind kind);
  ExperimentGrid& seeds(u64 chip_seed, u64 trace_seed);
  ExperimentGrid& params(const RunParams& rp);
  ExperimentGrid& replicates(u32 n);
  ExperimentGrid& seed_scheme(SeedScheme scheme);

  u64 size() const noexcept;
  std::vector<ExperimentPoint> expand() const;

 private:
  std::vector<SystemConfig> configs_;
  std::vector<std::string> workloads_;
  std::vector<PolicyKind> policies_;
  u64 chip_seed_ = 1;
  u64 trace_seed_ = 42;
  RunParams params_;
  u32 replicates_ = 1;
  SeedScheme scheme_ = SeedScheme::kShared;
};

/// Thread-safe slot array that restores grid order.
///
/// Pool workers complete tasks in whatever order stealing dictates; each
/// deposits its report (or exception) at its grid index, and wait() blocks
/// until every slot is filled, then rethrows the lowest-index exception or
/// returns the rows in grid order.
class RunAggregator {
 public:
  explicit RunAggregator(u64 num_tasks);

  void put(u64 index, SimReport report);
  void put_error(u64 index, std::exception_ptr error) noexcept;

  /// Blocks until all slots are filled. Rethrows the lowest-index stored
  /// exception if any task failed; otherwise returns rows in grid order.
  /// Call at most once.
  std::vector<SimReport> wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<SimReport> rows_;
  std::vector<std::exception_ptr> errors_;
  u64 filled_ = 0;
};

/// Execution statistics for one SweepRunner::run call. Observability only
/// -- collecting them never affects simulation results. The wall-clock
/// fields are non-deterministic (they vary run to run and with the thread
/// count); they feed exclusively the trace's profiling section
/// (`sweep_task_profile` / `sweep_profile` records), which determinism
/// tests exclude.
struct RunnerStats {
  u32 threads = 0;             ///< workers the runner used
  u64 tasks = 0;               ///< pool tasks executed (one per shard)
  u64 steals = 0;              ///< pool cross-worker steals (0 when serial)
  u64 max_queue_depth = 0;     ///< deepest single worker deque seen
  double wall_ms_total = 0.0;  ///< sum of per-shard wall times (not elapsed)
  std::vector<double> task_wall_ms;  ///< one entry per shard, shard order
};

}  // namespace pcs
