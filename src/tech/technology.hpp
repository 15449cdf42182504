// Process-technology description (CACTI-lite).
//
// The paper derives its power numbers from CACTI 6.5 fed with SPICE data from
// an industrial 45 nm SOI process (the Red Cooper test-chip technology). We
// reproduce the *functional dependence* of leakage, dynamic energy, delay,
// and area on supply voltage with closed-form models whose constants are
// calibrated to CACTI-class 45 nm values; see DESIGN.md section 4 for the
// substitution rationale.
#pragma once

#include <cmath>
#include <string>

#include "util/types.hpp"

namespace pcs {

/// Constants describing one manufacturing process + cell library.
///
/// All leakage figures are per-cell at the nominal voltage and the modelled
/// (hot) operating condition; voltage dependence lives in LeakageModel.
struct Technology {
  std::string name;

  /// Nominal supply voltage specified by the process guidelines.
  Volt vdd_nominal = 1.0;
  /// Below this voltage the (full-VDD) peripheral logic itself is assumed
  /// unreliable; the PCS data array is never scaled below it.
  Volt vdd_floor = 0.30;
  /// Voltage grid used throughout the evaluation (paper: 10 mV increments).
  Volt vdd_step = 0.01;

  /// Subthreshold leakage power of one 6T RVT SRAM bit cell at vdd_nominal.
  Watt cell_leak_nominal = 25e-9;
  /// Exponential voltage slope of leakage current: I(V) ~ exp((V-Vnom)/slope).
  /// 0.4 V reproduces the CACTI/SPICE-class ~3x leakage-power drop from
  /// 1.0 V to 0.7 V (DIBL + subthreshold).
  Volt leak_v_slope = 0.40;

  /// Data-array peripheral leakage (decoders, sense amps, drivers; LVT),
  /// expressed as a fraction of the data-cell leakage at nominal VDD.
  /// Periphery stays on the full-VDD domain and never scales.
  double data_periphery_leak_frac = 0.13;
  /// Tag array (cells + periphery) leakage as a fraction of data-cell
  /// leakage at nominal VDD. Also on the full-VDD domain.
  double tag_leak_frac_per_bit_ratio = 1.25;

  /// Dynamic energy to read/write one data bit at nominal VDD (C*V^2 class).
  Joule dyn_energy_per_bit = 85e-15;
  /// Fraction of a cache access's dynamic energy spent in the scaled data
  /// array (the rest -- periphery, tag match, output drivers -- is at
  /// nominal VDD and does not scale).
  double dyn_data_frac = 0.75;

  /// 6T SRAM bit-cell area at 45 nm.
  Mm2 cell_area = 0.374e-6;
  /// Array-level area efficiency (cells / (cells + periphery)).
  double array_area_efficiency = 0.70;

  /// Alpha-power-law saturation exponent for the cell read current.
  double alpha_power = 1.30;
  /// Effective transistor threshold voltage for the delay model.
  Volt vth = 0.35;
  /// Fraction of the total cache access path whose delay tracks the scaled
  /// data cells (bitline development); the rest runs at nominal VDD.
  double delay_data_frac = 0.10;

  /// SRAM cell failure-voltage distribution (Wang-Calhoun-style Gaussian
  /// noise-margin tail): a cell is faulty at supply voltages <= its failure
  /// voltage Vf, Vf ~ N(ber_mu, ber_sigma). Calibrated so BER(1.0 V) ~ 1e-9
  /// and BER(0.7 V) ~ 2e-5, matching the span of the paper's Fig. 2.
  Volt ber_mu = 0.0489;
  Volt ber_sigma = 0.1585;

  /// 45 nm SOI process used throughout the paper's evaluation.
  static Technology soi45();

  /// A deliberately leakier / more variable corner, used by tests and the
  /// ablation benches to check model monotonicity under different constants.
  static Technology soi45_worst_corner();
};

/// The lowest voltage of the grid v_floor, v_floor + step, ..., v_nominal
/// that `ok` accepts, or v_nominal when none does. The walk counts grid
/// points in an integer, so no floating-point error accumulates over the
/// steps. Every min-VDD search walks the grid through this.
template <typename Pred>
Volt lowest_grid_vdd(Volt v_floor, Volt v_nominal, Volt step, Pred ok) {
  const auto n = static_cast<long>(std::llround((v_nominal - v_floor) / step));
  for (long i = 0; i <= n; ++i) {
    const Volt v = v_floor + step * static_cast<double>(i);
    if (ok(v)) return v;
  }
  return v_nominal;
}

}  // namespace pcs
