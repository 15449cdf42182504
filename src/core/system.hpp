// Whole-system assembly: manufactured chip, hierarchy, CPU, controllers.
//
// PcsSystem is what the benches and examples instantiate: it "manufactures"
// a chip (samples fault fields for every cache from the chip seed), selects
// the VDD ladders, wires PCS controllers around each cache level per the
// chosen policy, runs a workload with a warm-up window, and reports the
// power / performance / energy quantities of the paper's Fig. 4.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/cpu_model.hpp"
#include "cache/hierarchy.hpp"
#include "cache/trace_source.hpp"
#include "core/config.hpp"
#include "core/controller.hpp"
#include "core/vdd_levels.hpp"
#include "util/types.hpp"

namespace pcs {

/// Which architecture a PcsSystem models.
enum class PolicyKind {
  kBaseline,  ///< fault-intolerant cache at nominal VDD (the 1 V reference)
  kStatic,    ///< SPCS
  kDynamic,   ///< DPCS
};

const char* to_string(PolicyKind kind) noexcept;

/// Simulation knobs.
struct RunParams {
  u64 max_refs = 2'000'000;    ///< measured references after warm-up
  u64 warmup_refs = 300'000;   ///< references discarded before measuring

  /// Points sharing params (and workload + trace seed) may share one trace
  /// decode in the sweep engine.
  bool operator==(const RunParams&) const = default;
};

/// Per-cache results over the measured window.
struct CacheEnergyReport {
  std::string name;
  Joule static_energy = 0.0;
  Joule dynamic_energy = 0.0;
  Joule transition_energy = 0.0;
  Watt avg_power = 0.0;
  Volt avg_vdd = 0.0;
  Volt final_vdd = 0.0;
  double miss_rate = 0.0;
  u64 accesses = 0;
  u64 misses = 0;
  u32 transitions = 0;
  u64 transition_writebacks = 0;
  double effective_capacity = 1.0;  ///< at the final level

  Joule total_energy() const noexcept {
    return static_energy + dynamic_energy + transition_energy;
  }

  /// Exact field-wise equality -- the determinism tests assert parallel
  /// sweeps reproduce serial results bit-for-bit, so no tolerance.
  bool operator==(const CacheEnergyReport&) const = default;
};

/// Whole-run results over the measured window.
struct SimReport {
  std::string config_name;
  std::string workload;
  std::string policy;
  u64 instructions = 0;
  u64 refs = 0;
  Cycle cycles = 0;
  Second seconds = 0.0;
  double ipc = 0.0;
  u64 mem_reads = 0;   ///< DRAM block fetches in the measured window
  u64 mem_writes = 0;  ///< DRAM writebacks in the measured window
  CacheEnergyReport l1i, l1d, l2;

  Joule total_cache_energy() const noexcept {
    return l1i.total_energy() + l1d.total_energy() + l2.total_energy();
  }
  Watt l1_power() const noexcept { return l1i.avg_power + l1d.avg_power; }
  Watt l2_power() const noexcept { return l2.avg_power; }

  /// Exact field-wise equality (see CacheEnergyReport::operator==).
  bool operator==(const SimReport&) const = default;
};

/// Builds the controller of one cache level of a `cfg` system under
/// `kind`: the design-time ladder for lc.org (stored to `*out` when
/// non-null), the die's fault map manufactured from `seed`, the policy and
/// the energy meter. `sink` takes the blocks a transition flushes and
/// `cpu` is charged its stalls. PcsSystem and MultiPcsSystem build every
/// controller here.
std::unique_ptr<PcsController> make_pcs_controller(
    const SystemConfig& cfg, PolicyKind kind, CacheLevel& cache,
    const CacheLevelConfig& lc, u64 seed, WritebackSink& sink,
    CycleClock& cpu, VddLadder* out = nullptr);

/// A manufactured, policy-equipped simulated system.
class PcsSystem {
 public:
  /// `chip_seed` fixes the manufactured fault maps (one die); reruns with
  /// the same seed land on the same chip. When `arena` is non-null the
  /// hierarchy's SoA state is carved from it (reserve() it with
  /// storage_spec() first; see cache_arena.hpp).
  PcsSystem(const SystemConfig& config, PolicyKind kind, u64 chip_seed,
            CacheArena* arena = nullptr);

  /// Arena slab footprint of one system built from `config`.
  static CacheArena::Spec storage_spec(const SystemConfig& config);

  /// Runs `trace` (warm-up + measured window) and reports.
  SimReport run(TraceSource& trace, const RunParams& params);

  // ---- Piecewise run (the sweep engine's drive points) -------------------
  // run() == warm-up step/tick loop + begin_measurement() + measured
  // step/tick loop + finish_measurement(). The sweep engine replays shared
  // decoded events into many systems, so it owns the loops and calls these
  // boundaries per lane; the sequencing here must stay bit-identical to
  // run()'s.

  /// Counter snapshot taken at the warm-up/measured boundary.
  struct MeasureBaseline {
    CacheLevelStats l1i, l1d, l2;
    CpuStats cpu;
    u64 mem_reads = 0;
    u64 mem_writes = 0;
  };

  /// Ends warm-up: re-arms meters/monitors and snapshots all counters.
  MeasureBaseline begin_measurement();

  /// Finalizes the controllers and builds the measured-window report,
  /// emitting the cache_stats / run_summary telemetry when traced.
  SimReport finish_measurement(const MeasureBaseline& base,
                               const std::string& workload);

  /// Advances all three PCS controllers (call once per retired reference).
  void tick_all() {
    ctl_l1i_->tick();
    ctl_l1d_->tick();
    ctl_l2_->tick();
  }

  /// Attaches a telemetry sink to every controller (nullptr disables).
  /// Tracing never perturbs the simulation: a traced run's SimReport is
  /// bit-identical to an untraced one. See TELEMETRY.md for the schema.
  void set_trace(TraceSink* sink) noexcept;

  // Introspection for tests and examples.
  Hierarchy& hierarchy() noexcept { return *hier_; }
  CpuModel& cpu() noexcept { return *cpu_; }
  PcsController& l1i_controller() noexcept { return *ctl_l1i_; }
  PcsController& l1d_controller() noexcept { return *ctl_l1d_; }
  PcsController& l2_controller() noexcept { return *ctl_l2_; }
  PolicyKind kind() const noexcept { return kind_; }
  const SystemConfig& config() const noexcept { return cfg_; }
  /// The selected ladder for a cache level name ("L1I", "L1D", "L2").
  const VddLadder& ladder(const std::string& level) const;

 private:
  SystemConfig cfg_;
  PolicyKind kind_;
  std::unique_ptr<Hierarchy> hier_;
  std::unique_ptr<CpuModel> cpu_;
  std::unique_ptr<PcsController> ctl_l1i_;
  std::unique_ptr<PcsController> ctl_l1d_;
  std::unique_ptr<PcsController> ctl_l2_;
  VddLadder ladder_l1i_, ladder_l1d_, ladder_l2_;
  TraceSink* trace_ = nullptr;
};

/// Manufactures one system and runs one workload end to end. `workload` is
/// a SPEC-like profile name or a recorded-trace path (text or .pcst; see
/// trace/workload_source.hpp -- a '/' or '.' selects the file path).
///
/// This is the experiment engine's unit of work: every input arrives by
/// value, all state (trace generator, fault fields, controllers, meters) is
/// constructed inside the call, and nothing outlives it -- so concurrent
/// calls from pool workers share no mutable state and the result depends
/// only on the arguments, never on scheduling.
/// `trace`, when non-null, receives the run's telemetry records. For
/// concurrent calls pass a distinct sink per call (sinks are not
/// thread-safe) -- the experiment engine buffers per task and replays in
/// grid order so trace files stay deterministic at any thread count.
SimReport run_one(const SystemConfig& config, const std::string& workload,
                  PolicyKind kind, u64 chip_seed, u64 trace_seed,
                  const RunParams& params, TraceSink* trace = nullptr);

}  // namespace pcs
