#include "baselines/drowsy.hpp"

#include <algorithm>

#include "tech/leakage_model.hpp"

namespace pcs {

DrowsyCacheModel::DrowsyCacheModel(const Technology& tech,
                                   const CacheOrg& org,
                                   const BerModel& read_ber,
                                   Volt hold_margin)
    : tech_(tech), org_(org), read_ber_(read_ber), hold_margin_(hold_margin) {
  org_.validate();
}

double DrowsyCacheModel::hold_failure_ber(Volt vdd) const noexcept {
  // Holding succeeds down to hold_margin below the read-failure voltage.
  return read_ber_.ber(vdd + hold_margin_);
}

Volt DrowsyCacheModel::safe_retention_vdd(
    double max_corrupted_cells) const noexcept {
  const double cells = static_cast<double>(org_.data_bits());
  return lowest_grid_vdd(
      tech_.vdd_floor, tech_.vdd_nominal, tech_.vdd_step, [&](Volt v) {
        return hold_failure_ber(v) * cells <= max_corrupted_cells;
      });
}

Watt DrowsyCacheModel::static_power(double drowsy_fraction,
                                    Volt v_retention) const noexcept {
  const LeakageModel leak(tech_);
  const double f = std::clamp(drowsy_fraction, 0.0, 1.0);
  const double data_bits = static_cast<double>(org_.data_bits());
  const double tag_bits =
      static_cast<double>(org_.num_blocks()) * (org_.tag_bits() + 3.0);
  const Watt data = leak.array_leakage(data_bits * (1.0 - f),
                                       tech_.vdd_nominal) +
                    leak.array_leakage(data_bits * f, v_retention);
  const Watt periph =
      data_bits * tech_.cell_leak_nominal * tech_.data_periphery_leak_frac;
  const Watt tag = tag_bits * tech_.cell_leak_nominal *
                   tech_.tag_leak_frac_per_bit_ratio;
  // One drowsy bit per line plus the per-line voltage switch.
  const Watt control = static_cast<double>(org_.num_blocks()) * 2.0 *
                       tech_.cell_leak_nominal;
  return data + periph + tag + control;
}

GatedVddModel::GatedVddModel(const Technology& tech, const CacheOrg& org)
    : tech_(tech), org_(org) {
  org_.validate();
}

Watt GatedVddModel::static_power(double gated_fraction) const noexcept {
  const LeakageModel leak(tech_);
  const double f = std::clamp(gated_fraction, 0.0, 1.0);
  const double data_bits = static_cast<double>(org_.data_bits());
  const double tag_bits =
      static_cast<double>(org_.num_blocks()) * (org_.tag_bits() + 3.0);
  const Watt data = leak.array_leakage(data_bits, tech_.vdd_nominal, f);
  const Watt periph =
      data_bits * tech_.cell_leak_nominal * tech_.data_periphery_leak_frac;
  const Watt tag = tag_bits * tech_.cell_leak_nominal *
                   tech_.tag_leak_frac_per_bit_ratio;
  return data + periph + tag;
}

}  // namespace pcs
