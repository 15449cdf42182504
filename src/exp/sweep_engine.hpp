// Lane-parallel multi-configuration sweep engine: the one scheduler for
// experiment grids.
//
// The figure sweeps are grids of cache configurations evaluated over the
// SAME synthetic address stream: Fig. 4 replays each workload once per
// (config x policy) cell, so a run_one loop over the grid decodes every
// trace event #configs times. SweepRunner decodes each event ONCE and
// replays it into N resident PcsSystems ("lanes"). Grid points that share
// (workload, trace_seed, RunParams) form a GROUP (the synthetic trace is a
// pure function of (spec, seed), so their event streams are identical);
// groups split into shards of at most max_lanes lanes, packed into one
// CacheArena per shard, and shards fan out through for_each_in_order
// (exp/thread_pool.hpp) -- lanes within a task, shards across tasks. Each
// lane's operation sequence is exactly the scalar PcsSystem::run()
// sequence (decoded event -> step -> controller ticks), so every SimReport
// is bit-identical to run_one's, at any thread count and any lane count.
//
// Determinism argument (DESIGN.md section 12): lanes never share mutable
// state -- each owns its hierarchy, controllers, meters, and RNG-derived
// fault maps; the shared trace generator is read-only broadcast after
// decode. Shard composition depends only on the grid and max_lanes, never
// on the thread count, and each shard's reports land at their grid indices
// as the loop consumes it. Telemetry is buffered per lane and replayed in
// grid order, so the deterministic section equals a run_one loop's records
// framed by `runner_task`; profiling records are appended after (see
// TELEMETRY.md: sweep_task_profile / sweep_profile).
#pragma once

#include <span>
#include <vector>

#include "exp/experiment_runner.hpp"

namespace pcs {

/// Knobs for SweepRunner.
struct SweepOptions {
  u32 num_threads = 1;  ///< 0 = pcs_thread_count()
  u32 max_lanes = 16;   ///< lanes (grid points) per shard/task
};

/// Executes expanded experiment grids with shared trace decode.
///
/// Every SimReport is bit-identical to run_one on the same point (asserted
/// by tests/test_sweep_equivalence.cpp and the golden figure regressions)
/// at any thread and lane count, and so is the deterministic trace
/// section (tests/test_telemetry.cpp).
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& opt = {});

  std::vector<SimReport> run(const ExperimentGrid& grid,
                             TraceSink* trace = nullptr,
                             RunnerStats* stats = nullptr) const;
  std::vector<SimReport> run(std::vector<ExperimentPoint> points,
                             TraceSink* trace = nullptr,
                             RunnerStats* stats = nullptr) const;

 private:
  u32 num_threads_;
  u32 max_lanes_;
};

// ---- Die fail voltage (the Fig. 3d fold) ----------------------------------

/// Fail voltage of one manufactured die: the max over sets of the min over
/// ways of its block fail voltages `vf` (vf.size() must be a multiple of
/// assoc) -- one scalar encodes the die's pass/fail at every probe
/// voltage. Bit-identical to the original bench/fig3_yield loop (a per-set
/// std::min from 2.0f, then a std::max from +0.0f in set order) although
/// it folds several sets side by side. No code in src/ calls it: the
/// library bins dies from their draws instead (RungCuts::floor_bucket is
/// this fold over buckets). It stays for callers that hold fail voltages
/// -- the end-to-end benchmark's traced cross-check (e2e/src/traced.cpp),
/// the chain-composition oracle in the tests, and the micro-benchmarks.
float chip_fail_voltage(std::span<const float> vf, u32 assoc);

}  // namespace pcs
