// The traced re-drivers: each replays one engine's unit of work
// single-threaded through the same public library calls the engine makes,
// timing every call into a Tracer. Results must equal the engine's for the
// same inputs; the workloads check that.
#pragma once

#include <vector>

#include "exp/experiment_runner.hpp"
#include "exp/population_grid.hpp"
#include "tracer.hpp"

namespace pcs::e2e {

/// Re-drives `points` -- which must share workload, trace seed and run
/// params -- as one shard: decode 256-event blocks once (clipped at the
/// warm-up boundary), then per lane and per event step_decoded + tick_all.
/// `engine_layout` mirrors SweepRunner (lanes in one CacheArena, the
/// replacement dispatch bound at compile time when all levels share it);
/// otherwise each system is built like PcsSystem::run's scalar path.
/// Adds the transition ticks seen to `transitions`. Reports come back in
/// `points` order.
std::vector<SimReport> trace_shard(Tracer& tr, u64 parent,
                                   const std::vector<ExperimentPoint>& points,
                                   bool engine_layout, u64& transitions);

/// Re-drives PopulationEngine::run single-threaded: per die Rng(derive_seed)
/// -> uniform_block -> sample_vf_block -> chip_fail_voltage ->
/// count_fail_rungs -> bin_from_fail_summary -> accumulate_chip, one shard
/// span per chips_per_shard dies, then PopulationResult::merge.
PopulationResult trace_population(Tracer& tr, u64 parent,
                                  const PopulationSpec& spec,
                                  const BerModel& ber);

/// Re-drives PopulationGridEngine::run single-threaded: the z chain once
/// per die, then per sigma the affine pass, per size the incremental rung
/// histogram, per assoc the fail-voltage fold, binning and accumulation.
PopulationGridResult trace_population_grid(Tracer& tr, u64 parent,
                                           const PopulationGridSpec& spec,
                                           const BerModel& ber);

/// Mean miss rates and DRAM traffic per 1000 refs of the traced runs'
/// reports: they explain cache.accesses_per_s, and a change that only
/// speeds up the simulator must leave them identical.
void report_cache_counts(const std::vector<SimReport>& reports, Report& r);

}  // namespace pcs::e2e
