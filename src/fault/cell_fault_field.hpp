// A manufactured cache instance: per-block worst-cell failure voltages.
//
// This is the synthetic stand-in for the paper's Red Cooper test-chip
// characterization (see DESIGN.md section 4). Each SRAM cell has a failure
// voltage Vf ~ N(mu, sigma); the cell is faulty at every supply <= Vf, which
// gives the fault-inclusion property by construction. A block's failure
// voltage is the max over its cells -- the only quantity the PCS
// architecture consumes -- so the field stores one voltage per block.
#pragma once

#include <span>
#include <vector>

#include "fault/ber_model.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace pcs {

/// Per-block failure voltages for one manufactured cache data array.
class CellFaultField {
 public:
  /// Exact sampling: draws every cell's failure voltage and takes the block
  /// max. O(blocks * bits_per_block); use for small arrays and validation.
  static CellFaultField sample_exact(const BerModel& ber, u64 num_blocks,
                                     u32 bits_per_block, Rng& rng);

  /// Order-statistic sampling: draws each block's max directly from the
  /// distribution of the maximum of `bits_per_block` Gaussians. O(blocks);
  /// statistically identical to sample_exact (verified by tests).
  /// Runs the log/expm1/inv_q_function chain over contiguous draw blocks
  /// (vecmath::sample_vf_block, the chain RungCuts uses for guard-band
  /// draws). The library's fault consumers bucket the same draws on their
  /// ladders instead (FaultMap::sample, RungCuts); this is what they are
  /// tested against.
  static CellFaultField sample_fast(const BerModel& ber, u64 num_blocks,
                                    u32 bits_per_block, Rng& rng);

  u64 num_blocks() const noexcept { return vf_.size(); }
  u32 bits_per_block() const noexcept { return bits_per_block_; }

  /// Failure voltage of `block`: the block is faulty at all vdd <= vf.
  Volt block_fail_voltage(u64 block) const noexcept { return vf_[block]; }

  /// The full per-block failure-voltage array (block index order). Lets
  /// kernels that derive their own vf buffers (the population grid engine)
  /// share the exact span-based code paths this field feeds.
  std::span<const float> fail_voltages() const noexcept { return vf_; }

  /// True if `block` is faulty when the data array runs at `vdd`.
  bool is_faulty(u64 block, Volt vdd) const noexcept {
    return vdd <= vf_[block];
  }

  /// Number of faulty blocks at `vdd`.  O(blocks).
  u64 faulty_count(Volt vdd) const noexcept;

  /// Fraction of non-faulty blocks at `vdd` (measured effective capacity).
  double effective_capacity(Volt vdd) const noexcept;

  /// Direct construction from explicit per-block failure voltages.
  explicit CellFaultField(std::vector<float> vf, u32 bits_per_block) noexcept
      : vf_(std::move(vf)), bits_per_block_(bits_per_block) {}

 private:
  std::vector<float> vf_;
  u32 bits_per_block_;
};

}  // namespace pcs
