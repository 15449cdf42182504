#include "fault/yield_model.hpp"

#include <cmath>

#include "util/mathx.hpp"

namespace pcs {

double YieldModel::block_fail_prob(Volt vdd) const noexcept {
  return ber_.block_fail_prob(vdd, org_.bits_per_block());
}

double YieldModel::expected_capacity(Volt vdd) const noexcept {
  return 1.0 - block_fail_prob(vdd);
}

double YieldModel::set_fail_prob(Volt vdd) const noexcept {
  return std::pow(block_fail_prob(vdd), static_cast<double>(org_.assoc));
}

double YieldModel::yield(Volt vdd) const noexcept {
  return pow_one_minus(set_fail_prob(vdd),
                       static_cast<double>(org_.num_sets()));
}

double YieldModel::conventional_yield(Volt vdd) const noexcept {
  return pow_one_minus(block_fail_prob(vdd),
                       static_cast<double>(org_.num_blocks()));
}

Volt YieldModel::min_vdd(double yield_target, Volt v_floor, Volt v_nominal,
                         Volt step) const noexcept {
  return lowest_grid_vdd(v_floor, v_nominal, step,
                         [&](Volt v) { return yield(v) >= yield_target; });
}

Volt YieldModel::min_vdd_for_capacity(double cap_target, double yield_target,
                                      Volt v_floor, Volt v_nominal,
                                      Volt step) const noexcept {
  return lowest_grid_vdd(v_floor, v_nominal, step, [&](Volt v) {
    return expected_capacity(v) >= cap_target && yield(v) >= yield_target;
  });
}

}  // namespace pcs
