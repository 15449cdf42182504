// Multi-core PCS system assembly (the paper's multi-core future work).
//
// N blocking cores, each driving its own trace, interleaved in timestamp
// order over the coherent MultiHierarchy, where each core is a single-core
// Hierarchy over the shared L2. Every private L1 and the shared L2 gets its
// own PCS controller, built by the single-core system's factory; an L2
// voltage transition stalls all cores (the shared cache is unavailable
// during the metadata sweep). The controllers read the front of the cores
// still running, so time keeps moving after the first core finishes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/cpu_model.hpp"
#include "cache/trace_source.hpp"
#include "core/config.hpp"
#include "core/controller.hpp"
#include "core/system.hpp"
#include "multicore/multi_hierarchy.hpp"
#include "util/types.hpp"

namespace pcs {

/// Per-core timelines behind one CycleClock face.
///
/// cycles() reports the simulation front: the time of the running core
/// furthest behind, which is what advances next, or the wall clock when no
/// core runs. A core that has finished its share of the run or whose trace
/// ended stops, and leaves the front. add_stall() charges every core,
/// running or not, modelling a shared-resource stall.
class MultiCpu final : public CycleClock {
 public:
  explicit MultiCpu(u32 num_cores)
      : t_(num_cores, 0), running_(num_cores, 1) {}

  Cycle cycles() const noexcept override;
  void add_stall(Cycle penalty) noexcept override;

  /// Running core whose clock is furthest behind (executes next; the
  /// lowest index on a tie), or the core count when no core runs.
  u32 next_core() const noexcept;
  /// Starts or stops `core` (every core starts running).
  void set_running(u32 core, bool running) noexcept {
    running_[core] = running ? 1 : 0;
  }
  void advance(u32 core, Cycle dt) noexcept { t_[core] += dt; }
  Cycle core_cycles(u32 core) const noexcept { return t_[core]; }
  /// Wall-clock end of the run: the slowest core.
  Cycle wall_cycles() const noexcept;
  /// Aligns every core to the wall clock (call before finalizing meters).
  void close() noexcept;

 private:
  std::vector<Cycle> t_;
  std::vector<u8> running_;
};

/// Multi-core configuration: the single-core config supplies cache
/// organisations, policies, and technology; this adds the core count and
/// coherence-bus cost.
struct MultiSystemConfig {
  SystemConfig base = SystemConfig::config_a();
  u32 num_cores = 2;
  u32 snoop_latency = 12;
};

/// Results of one multi-core run (measured window).
struct MultiSimReport {
  std::string config_name;
  std::string policy;
  u32 num_cores = 0;
  Cycle wall_cycles = 0;
  u64 refs = 0;
  u64 instructions = 0;
  CoherenceStats coherence;
  Joule l1_energy = 0.0;  ///< all private L1I + L1D
  Joule l2_energy = 0.0;
  Volt l2_avg_vdd = 0.0;
  u32 l2_transitions = 0;
  double l2_miss_rate = 0.0;

  Joule total_cache_energy() const noexcept { return l1_energy + l2_energy; }
};

/// A manufactured, policy-equipped multi-core system.
class MultiPcsSystem {
 public:
  MultiPcsSystem(const MultiSystemConfig& config, PolicyKind kind,
                 u64 chip_seed);

  /// Runs one trace per core (round-robin by core timestamp) for
  /// `params.max_refs` measured references per core after a warm-up of
  /// `params.warmup_refs` per core.
  MultiSimReport run(std::vector<TraceSource*> traces,
                     const RunParams& params);

  PcsController& l2_controller() noexcept { return *ctl_l2_; }

 private:
  MultiSystemConfig cfg_;
  PolicyKind kind_;
  std::unique_ptr<MultiHierarchy> hier_;
  std::unique_ptr<MultiCpu> cpu_;
  std::vector<std::unique_ptr<PcsController>> ctl_l1i_;
  std::vector<std::unique_ptr<PcsController>> ctl_l1d_;
  std::unique_ptr<PcsController> ctl_l2_;
};

}  // namespace pcs
