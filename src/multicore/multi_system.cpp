#include "multicore/multi_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace pcs {

Cycle MultiCpu::cycles() const noexcept {
  const u32 c = next_core();
  return c < t_.size() ? t_[c] : wall_cycles();
}

void MultiCpu::add_stall(Cycle penalty) noexcept {
  for (auto& t : t_) t += penalty;
}

u32 MultiCpu::next_core() const noexcept {
  const auto n = static_cast<u32>(t_.size());
  u32 best = n;
  for (u32 c = 0; c < n; ++c) {
    if (running_[c] && (best == n || t_[c] < t_[best])) best = c;
  }
  return best;
}

Cycle MultiCpu::wall_cycles() const noexcept {
  return *std::max_element(t_.begin(), t_.end());
}

void MultiCpu::close() noexcept {
  const Cycle wall = wall_cycles();
  for (auto& t : t_) t = wall;
}

MultiPcsSystem::MultiPcsSystem(const MultiSystemConfig& config,
                               PolicyKind kind, u64 chip_seed)
    : cfg_(config), kind_(kind) {
  if (cfg_.num_cores == 0) throw std::invalid_argument("need >= 1 core");
  hier_ = std::make_unique<MultiHierarchy>(MultiHierarchyConfig{
      cfg_.base.hierarchy_config(), cfg_.num_cores, cfg_.snoop_latency});
  cpu_ = std::make_unique<MultiCpu>(cfg_.num_cores);

  // Core c's L1 flushes drain through core c's hierarchy; the shared L2's
  // go to DRAM through core 0's.
  Rng chip_rng(chip_seed);
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    Hierarchy& h = hier_->core(c);
    ctl_l1i_.push_back(make_pcs_controller(cfg_.base, kind_, h.l1i(),
                                           cfg_.base.l1i, chip_rng.next_u64(),
                                           h, *cpu_));
    ctl_l1d_.push_back(make_pcs_controller(cfg_.base, kind_, h.l1d(),
                                           cfg_.base.l1d, chip_rng.next_u64(),
                                           h, *cpu_));
  }
  ctl_l2_ = make_pcs_controller(cfg_.base, kind_, hier_->l2(), cfg_.base.l2,
                                chip_rng.next_u64(), hier_->core(0), *cpu_);
}

MultiSimReport MultiPcsSystem::run(std::vector<TraceSource*> traces,
                                   const RunParams& params) {
  if (traces.size() != cfg_.num_cores) {
    throw std::invalid_argument("need one trace per core");
  }

  auto tick_all = [&] {
    for (auto& c : ctl_l1i_) c->tick();
    for (auto& c : ctl_l1d_) c->tick();
    ctl_l2_->tick();
  };

  const u32 n = cfg_.num_cores;
  std::vector<u64> refs(n, 0);
  std::vector<bool> alive(n, true);
  u64 instructions = 0;

  // Each core with trace left runs until it has retired `per_core_target`
  // references, then stops; the laggard running core executes next.
  auto start_phase = [&](u64 per_core_target) {
    std::fill(refs.begin(), refs.end(), 0);
    for (u32 c = 0; c < n; ++c) {
      cpu_->set_running(c, alive[c] && per_core_target > 0);
    }
  };
  auto step_phase = [&](u64 per_core_target) {
    for (u32 core; (core = cpu_->next_core()) < n;) {
      TraceEvent ev;
      if (!traces[core]->next(ev)) {
        alive[core] = false;
        cpu_->set_running(core, false);
        continue;
      }
      const AccessOutcome out = hier_->access(core, ev.ref);
      cpu_->advance(core, ev.gap_instructions + out.latency);
      instructions += ev.gap_instructions + 1;
      if (++refs[core] == per_core_target) cpu_->set_running(core, false);
      tick_all();
    }
  };

  // Warm-up, then the measured window, which opens at the front of the
  // cores that run in it.
  start_phase(params.warmup_refs);
  step_phase(params.warmup_refs);
  start_phase(params.max_refs);
  for (auto& c : ctl_l1i_) c->reset_measurement();
  for (auto& c : ctl_l1d_) c->reset_measurement();
  ctl_l2_->reset_measurement();
  const CacheLevelStats l2_before = hier_->l2().stats();
  const Cycle wall_before = cpu_->wall_cycles();
  instructions = 0;

  step_phase(params.max_refs);

  MultiSimReport rep;
  for (u64 r : refs) rep.refs += r;

  // Align the clocks so leakage integrates over the full wall window.
  cpu_->close();
  for (auto& c : ctl_l1i_) c->finalize();
  for (auto& c : ctl_l1d_) c->finalize();
  ctl_l2_->finalize();

  rep.config_name = cfg_.base.name;
  rep.policy = to_string(kind_);
  rep.num_cores = n;
  rep.wall_cycles = cpu_->wall_cycles() - wall_before;
  rep.instructions = instructions;
  rep.coherence = hier_->coherence();
  for (u32 c = 0; c < n; ++c) {
    rep.l1_energy += ctl_l1i_[c]->meter().total_energy();
    rep.l1_energy += ctl_l1d_[c]->meter().total_energy();
  }
  rep.l2_energy = ctl_l2_->meter().total_energy();
  rep.l2_avg_vdd = ctl_l2_->meter().average_vdd();
  rep.l2_transitions = ctl_l2_->pcs_stats().transitions;
  rep.l2_miss_rate = (hier_->l2().stats() - l2_before).miss_rate();
  return rep;
}

}  // namespace pcs
