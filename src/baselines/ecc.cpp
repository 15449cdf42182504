#include "baselines/ecc.hpp"

#include <cmath>

#include "util/mathx.hpp"

namespace pcs {

EccYieldModel::EccYieldModel(const BerModel& ber, const CacheOrg& org,
                             const EccScheme& scheme) noexcept
    : ber_(ber), org_(org), scheme_(scheme) {}

double EccYieldModel::subblock_ok(Volt vdd) const noexcept {
  const u32 total_bits = scheme_.data_bits + scheme_.check_bits;
  return binomial_cdf(total_bits, scheme_.correctable, ber_.ber(vdd));
}

double EccYieldModel::block_ok(Volt vdd) const noexcept {
  const double subblocks = static_cast<double>(org_.bits_per_block()) /
                           static_cast<double>(scheme_.data_bits);
  return std::pow(subblock_ok(vdd), subblocks);
}

double EccYieldModel::yield(Volt vdd) const noexcept {
  const double total_subblocks =
      static_cast<double>(org_.data_bits()) /
      static_cast<double>(scheme_.data_bits);
  // exp(n * log p) with p near 1: use log1p on the failure probability.
  const double p_fail = 1.0 - subblock_ok(vdd);
  return pow_one_minus(p_fail, total_subblocks);
}

double EccYieldModel::correction_consumed(Volt vdd) const noexcept {
  const u32 total_bits = scheme_.data_bits + scheme_.check_bits;
  // Budget consumed when hard faults >= correctable capability.
  return 1.0 - binomial_cdf(total_bits, scheme_.correctable - 1,
                            ber_.ber(vdd));
}

Volt EccYieldModel::min_vdd(double yield_target, Volt v_floor, Volt v_nominal,
                            Volt step) const noexcept {
  return lowest_grid_vdd(v_floor, v_nominal, step,
                         [&](Volt v) { return yield(v) >= yield_target; });
}

}  // namespace pcs
