// Per-cache energy integration.
//
// Splits cache energy the way the paper reports it: static energy (leakage
// power integrated over execution time, tracking the data-array VDD and the
// gated-block fraction), dynamic energy (per array access at the VDD in
// force), and transition energy (metadata sweeps + rail recharge).
#pragma once

#include <string>

#include "cachemodel/cache_power_model.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/types.hpp"

namespace pcs {

/// Integrates one cache level's energy over a simulation.
class EnergyMeter {
 public:
  /// `clock_hz` converts cycle timestamps into seconds.
  EnergyMeter(const CachePowerModel& model, double clock_hz, Volt initial_vdd,
              double initial_gated_fraction) noexcept;

  /// Integrates leakage up to cycle `now` at the current state.
  void advance(Cycle now) noexcept;

  /// Changes the leakage state (advance() first so prior state is charged).
  void set_state(Cycle now, Volt vdd, double gated_fraction) noexcept;

  /// Charges `n` array accesses at the current data VDD. Inline: this is
  /// the one meter call on the per-reference tick path. Callers MUST pass
  /// the full delta in one call -- n accesses charged one by one accumulate
  /// in a different floating-point order and break report bit-identity.
  void add_accesses(u64 n) noexcept {
    dynamic_e_ += static_cast<double>(n) * current_access_energy_;
  }

  /// Charges one transition's energy (sweep + rail recharge over delta V).
  void add_transition(Volt from_vdd, Volt to_vdd) noexcept;

  /// Zeroes all accumulated energy and restarts integration at cycle `now`
  /// (used to discard the warm-up window, mirroring the paper's
  /// fast-forwarding before detailed simulation).
  void reset(Cycle now) noexcept;

  Joule static_energy() const noexcept { return static_e_; }
  Joule dynamic_energy() const noexcept { return dynamic_e_; }
  Joule transition_energy() const noexcept { return transition_e_; }
  Joule total_energy() const noexcept {
    return static_e_ + dynamic_e_ + transition_e_;
  }

  /// Emits one `energy` trace record (see TELEMETRY.md) with the breakdown
  /// projected forward to cycle `now`. The projection is computed on the
  /// side -- the accumulators are NOT advanced -- so a traced run integrates
  /// energy in exactly the same floating-point order as an untraced one and
  /// produces bit-identical SimReports.
  void emit_interval(TraceSink& sink, const std::string& cache, u64 interval,
                     Cycle now) const;

  /// Average power over the integrated window (0 before any time passes).
  Watt average_power() const noexcept;

  /// Time-weighted average data-array voltage (diagnostic for DPCS).
  Volt average_vdd() const noexcept;

  Volt current_vdd() const noexcept { return vdd_; }
  const CachePowerModel& model() const noexcept { return model_; }

 private:
  CachePowerModel model_;  // owned: meters outlive their construction scope
  double clock_hz_;
  Volt vdd_;
  double gated_;
  Watt current_static_power_;
  Joule current_access_energy_;
  Cycle start_cycle_ = 0;
  Cycle last_cycle_ = 0;
  Joule static_e_ = 0.0;
  Joule dynamic_e_ = 0.0;
  Joule transition_e_ = 0.0;
  double vdd_cycle_integral_ = 0.0;
};

}  // namespace pcs
