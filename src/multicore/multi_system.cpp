#include "multicore/multi_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace pcs {

Cycle MultiCpu::cycles() const noexcept {
  return *std::min_element(t_.begin(), t_.end());
}

void MultiCpu::add_stall(Cycle penalty) noexcept {
  for (auto& t : t_) t += penalty;
}

u32 MultiCpu::next_core() const noexcept {
  return static_cast<u32>(
      std::min_element(t_.begin(), t_.end()) - t_.begin());
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
  MultiHierarchyConfig hc;
  hc.num_cores = cfg_.num_cores;
  hc.l1i = cfg_.base.l1i.org;
  hc.l1d = cfg_.base.l1d.org;
  hc.l2 = cfg_.base.l2.org;
  hc.l1_hit_latency = cfg_.base.l1i.hit_latency;
  hc.l2_hit_latency = cfg_.base.l2.hit_latency;
  hc.mem_latency = cfg_.base.mem_latency;
  hc.snoop_latency = cfg_.snoop_latency;
  hc.replacement = cfg_.base.replacement;
  hier_ = std::make_unique<MultiHierarchy>(hc);
  cpu_ = std::make_unique<MultiCpu>(cfg_.num_cores);

  Rng chip_rng(chip_seed);
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    ctl_l1i_.push_back(make_pcs_controller(cfg_.base, kind_, hier_->l1i(c),
                                           cfg_.base.l1i, chip_rng.next_u64(),
                                           *hier_, *cpu_));
    ctl_l1d_.push_back(make_pcs_controller(cfg_.base, kind_, hier_->l1d(c),
                                           cfg_.base.l1d, chip_rng.next_u64(),
                                           *hier_, *cpu_));
  }
  ctl_l2_ = make_pcs_controller(cfg_.base, kind_, hier_->l2(), cfg_.base.l2,
                                chip_rng.next_u64(), *hier_, *cpu_);
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

  std::vector<u64> refs(cfg_.num_cores, 0);
  std::vector<bool> alive(cfg_.num_cores, true);
  u64 instructions = 0;

  auto step_phase = [&](u64 per_core_target) {
    std::fill(refs.begin(), refs.end(), 0);
    for (;;) {
      // Pick the laggard core that still has work.
      u32 core = cfg_.num_cores;
      Cycle best = ~Cycle{0};
      for (u32 c = 0; c < cfg_.num_cores; ++c) {
        if (!alive[c] || refs[c] >= per_core_target) continue;
        if (cpu_->core_cycles(c) < best) {
          best = cpu_->core_cycles(c);
          core = c;
        }
      }
      if (core == cfg_.num_cores) break;  // all done or dead
      TraceEvent ev;
      if (!traces[core]->next(ev)) {
        alive[core] = false;
        continue;
      }
      const AccessOutcome out = hier_->access(core, ev.ref);
      cpu_->advance(core, ev.gap_instructions + out.latency);
      instructions += ev.gap_instructions + 1;
      ++refs[core];
      tick_all();
    }
  };

  // Warm-up, then measured window.
  step_phase(params.warmup_refs);
  for (auto& c : ctl_l1i_) c->reset_measurement();
  for (auto& c : ctl_l1d_) c->reset_measurement();
  ctl_l2_->reset_measurement();
  const CacheLevelStats l2_before = hier_->l2().stats();
  const Cycle wall_before = cpu_->wall_cycles();
  instructions = 0;

  step_phase(params.max_refs);

  MultiSimReport rep;
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    rep.core_cycles.push_back(cpu_->core_cycles(c) - wall_before);
    rep.refs += refs[c];
  }

  // Align the clocks so leakage integrates over the full wall window.
  cpu_->close();
  for (auto& c : ctl_l1i_) c->finalize();
  for (auto& c : ctl_l1d_) c->finalize();
  ctl_l2_->finalize();

  rep.config_name = cfg_.base.name;
  rep.policy = to_string(kind_);
  rep.num_cores = cfg_.num_cores;
  rep.wall_cycles = cpu_->wall_cycles() - wall_before;
  rep.instructions = instructions;
  rep.coherence = hier_->coherence();
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
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
