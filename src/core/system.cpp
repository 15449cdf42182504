#include "core/system.hpp"

#include <stdexcept>

#include "core/static_policy.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {

const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kBaseline:
      return "baseline";
    case PolicyKind::kStatic:
      return "SPCS";
    case PolicyKind::kDynamic:
      return "DPCS";
  }
  return "?";
}

PcsSystem::PcsSystem(const SystemConfig& config, PolicyKind kind,
                     u64 chip_seed, CacheArena* arena)
    : cfg_(config), kind_(kind) {
  hier_ = std::make_unique<Hierarchy>(cfg_.hierarchy_config(), arena);
  cpu_ = std::make_unique<CpuModel>(*hier_, cfg_.clock_ghz);

  Rng chip_rng(chip_seed);
  ctl_l1i_ = make_pcs_controller(cfg_, kind_, hier_->l1i(), cfg_.l1i,
                                 chip_rng.next_u64(), *hier_, *cpu_,
                                 &ladder_l1i_);
  ctl_l1d_ = make_pcs_controller(cfg_, kind_, hier_->l1d(), cfg_.l1d,
                                 chip_rng.next_u64(), *hier_, *cpu_,
                                 &ladder_l1d_);
  ctl_l2_ = make_pcs_controller(cfg_, kind_, hier_->l2(), cfg_.l2,
                                chip_rng.next_u64(), *hier_, *cpu_,
                                &ladder_l2_);
}

CacheArena::Spec PcsSystem::storage_spec(const SystemConfig& config) {
  return Hierarchy::storage_spec(config.hierarchy_config());
}

std::unique_ptr<PcsController> make_pcs_controller(
    const SystemConfig& cfg, PolicyKind kind, CacheLevel& cache,
    const CacheLevelConfig& lc, u64 seed, Hierarchy& hier,
    CycleClock& cpu, VddLadder* out) {
  const Technology& tech = cfg.tech;
  const double clock_hz = cfg.clock_ghz * 1e9;

  if (kind == PolicyKind::kBaseline) {
    CachePowerModel model(tech, lc.org, MechanismSpec::baseline());
    EnergyMeter meter(model, clock_hz, tech.vdd_nominal, 0.0);
    if (out != nullptr) *out = VddLadder{{tech.vdd_nominal}, 1};
    return std::make_unique<PcsController>(cache, cpu, std::move(meter));
  }

  // Design-time selection for this organisation...
  BerModel ber(tech);
  VddSelector selector(tech, ber, lc.org);
  VddSelectionParams sel;
  sel.yield_target = cfg.yield_target;
  sel.capacity_target = cfg.capacity_target;
  sel.vdd1_capacity_floor = cfg.vdd1_capacity_floor;
  sel.num_levels = cfg.num_vdd_levels;
  VddLadder ladder = selector.select(sel);
  if (out != nullptr) *out = ladder;

  // ... then manufacture this particular die.
  Rng rng(seed);
  FaultMap map = FaultMap::sample(ladder.levels, ber, lc.org.num_blocks(),
                                  lc.org.bits_per_block(), lc.org.assoc, rng);

  // A 1-in-100 die may violate the set constraint at the lowest levels;
  // DPCS simply never descends below the lowest viable level on that die.
  u32 min_viable = ladder.spcs_level;
  for (u32 lvl = 1; lvl <= ladder.spcs_level; ++lvl) {
    if (map.viable(lc.org.assoc, lvl)) {
      min_viable = lvl;
      break;
    }
  }

  auto mech = std::make_unique<PcsMechanism>(cache, std::move(map), ladder,
                                             ladder.spcs_level,
                                             cfg.settle_penalty);

  std::unique_ptr<PcsPolicy> policy;
  if (kind == PolicyKind::kStatic) {
    policy = std::make_unique<StaticPolicy>(ladder.spcs_level);
  } else {
    DpcsParams dp;
    dp.interval_accesses = lc.dpcs_interval;
    dp.super_interval = lc.super_interval;
    dp.low_threshold = cfg.low_threshold;
    dp.high_threshold = cfg.high_threshold;
    dp.hit_latency = lc.hit_latency;
    dp.miss_penalty = lc.miss_penalty_estimate;
    dp.transition_penalty = mech->transition_penalty();
    policy = std::make_unique<DpcsPolicy>(dp, ladder.spcs_level, min_viable);
  }

  CachePowerModel model(tech, lc.org,
                        MechanismSpec::pcs(ladder.num_levels()));
  EnergyMeter meter(model, clock_hz, mech->current_vdd(),
                    mech->gated_fraction());
  return std::make_unique<PcsController>(cache, hier, cpu,
                                         std::move(mech), std::move(policy),
                                         std::move(meter), lc.dpcs_interval);
}

void PcsSystem::set_trace(TraceSink* sink) noexcept {
  trace_ = sink;
  ctl_l1i_->set_trace(sink);
  ctl_l1d_->set_trace(sink);
  ctl_l2_->set_trace(sink);
}

const VddLadder& PcsSystem::ladder(const std::string& level) const {
  if (level == "L1I") return ladder_l1i_;
  if (level == "L1D") return ladder_l1d_;
  if (level == "L2") return ladder_l2_;
  throw std::invalid_argument("unknown cache level: " + level);
}

namespace {

CacheEnergyReport make_cache_report(const PcsController& ctl,
                                    const CacheLevelStats& window) {
  CacheEnergyReport r;
  r.name = ctl.cache().name();
  r.static_energy = ctl.meter().static_energy();
  r.dynamic_energy = ctl.meter().dynamic_energy();
  r.transition_energy = ctl.meter().transition_energy();
  r.avg_power = ctl.meter().average_power();
  r.avg_vdd = ctl.meter().average_vdd();
  r.final_vdd = ctl.current_vdd();
  r.accesses = window.accesses;
  r.misses = window.misses;
  r.miss_rate = window.miss_rate();
  r.transitions = ctl.pcs_stats().transitions;
  r.transition_writebacks = ctl.pcs_stats().transition_writebacks;
  r.effective_capacity = ctl.cache().effective_capacity();
  return r;
}

}  // namespace

PcsSystem::MeasureBaseline PcsSystem::begin_measurement() {
  ctl_l1i_->reset_measurement();
  ctl_l1d_->reset_measurement();
  ctl_l2_->reset_measurement();

  MeasureBaseline base;
  base.l1i = hier_->l1i().stats();
  base.l1d = hier_->l1d().stats();
  base.l2 = hier_->l2().stats();
  base.cpu = cpu_->stats();
  base.mem_reads = hier_->mem_reads();
  base.mem_writes = hier_->mem_writes();
  return base;
}

SimReport PcsSystem::finish_measurement(const MeasureBaseline& base,
                                        const std::string& workload) {
  ctl_l1i_->finalize();
  ctl_l1d_->finalize();
  ctl_l2_->finalize();

  SimReport rep;
  rep.config_name = cfg_.name;
  rep.workload = workload;
  rep.policy = to_string(kind_);
  rep.instructions = cpu_->stats().instructions - base.cpu.instructions;
  rep.refs = cpu_->stats().refs - base.cpu.refs;
  rep.cycles = cpu_->stats().cycles - base.cpu.cycles;
  rep.seconds = static_cast<double>(rep.cycles) / (cfg_.clock_ghz * 1e9);
  rep.ipc = rep.cycles ? static_cast<double>(rep.instructions) /
                             static_cast<double>(rep.cycles)
                       : 0.0;
  rep.mem_reads = hier_->mem_reads() - base.mem_reads;
  rep.mem_writes = hier_->mem_writes() - base.mem_writes;
  rep.l1i = make_cache_report(*ctl_l1i_, hier_->l1i().stats() - base.l1i);
  rep.l1d = make_cache_report(*ctl_l1d_, hier_->l1d().stats() - base.l1d);
  rep.l2 = make_cache_report(*ctl_l2_, hier_->l2().stats() - base.l2);

  if (trace_) {
    hier_->l1i().emit_stats(*trace_, hier_->l1i().stats() - base.l1i);
    hier_->l1d().emit_stats(*trace_, hier_->l1d().stats() - base.l1d);
    hier_->l2().emit_stats(*trace_, hier_->l2().stats() - base.l2);
    TraceRecord rec("run_summary");
    rec.field("config", rep.config_name)
        .field("workload", rep.workload)
        .field("policy", rep.policy)
        .field("refs", rep.refs)
        .field("instructions", rep.instructions)
        .field("cycles", rep.cycles)
        .field("ipc", rep.ipc)
        .field("mem_reads", rep.mem_reads)
        .field("mem_writes", rep.mem_writes);
    trace_->emit(rec);
  }
  return rep;
}

SimReport PcsSystem::run(TraceSource& trace, const RunParams& params) {
  // Warm-up window (the analog of the paper's 1B-instruction fast-forward).
  AccessOutcome out;
  u64 warm = 0;
  while (warm < params.warmup_refs && cpu_->step(trace, out)) {
    tick_all();
    ++warm;
  }
  const MeasureBaseline base = begin_measurement();

  u64 measured = 0;
  while (measured < params.max_refs && cpu_->step(trace, out)) {
    tick_all();
    ++measured;
  }
  return finish_measurement(base, trace.name());
}

SimReport run_one(const SystemConfig& config, const std::string& workload,
                  PolicyKind kind, u64 chip_seed, u64 trace_seed,
                  const RunParams& params, TraceSink* trace_sink) {
  auto trace = make_workload_source(workload, trace_seed);
  PcsSystem sys(config, kind, chip_seed);
  if (trace_sink) sys.set_trace(trace_sink);
  return sys.run(*trace, params);
}

}  // namespace pcs
