#include "fault/cell_fault_field.hpp"

#include <algorithm>
#include <span>

#include "util/vecmath.hpp"

namespace pcs {

CellFaultField CellFaultField::sample_exact(const BerModel& ber,
                                            u64 num_blocks, u32 bits_per_block,
                                            Rng& rng) {
  std::vector<float> vf(num_blocks);
  for (u64 b = 0; b < num_blocks; ++b) {
    double max_vf = -1e9;
    for (u32 i = 0; i < bits_per_block; ++i) {
      max_vf = std::max(max_vf, rng.gaussian(ber.mu(), ber.sigma()));
    }
    vf[b] = static_cast<float>(max_vf);
  }
  return CellFaultField(std::move(vf), bits_per_block);
}

CellFaultField CellFaultField::sample_fast(const BerModel& ber, u64 num_blocks,
                                           u32 bits_per_block, Rng& rng) {
  // If M = max of n iid N(mu, sigma), then P[M <= x] = Phi(z)^n with
  // z = (x - mu)/sigma. Sampling u ~ U(0,1) and solving Phi(z)^n = u gives
  // the tail probability p = Q(z) = 1 - u^(1/n), computed stably via expm1.
  //
  // The uniforms are drawn in blocks (same sequence as per-block uniform()
  // calls) and the log/expm1/inv_q chain runs over the contiguous buffer
  // (vecmath::sample_vf_block).
  std::vector<float> vf(num_blocks);
  const double n = static_cast<double>(bits_per_block);
  constexpr u64 kChunk = 4096;
  std::vector<double> u(std::min(num_blocks, kChunk));
  for (u64 base = 0; base < num_blocks; base += kChunk) {
    const u64 todo = std::min(kChunk, num_blocks - base);
    rng.uniform_block(std::span<double>(u.data(), todo));
    vecmath::sample_vf_block(u.data(), todo, n, ber.mu(), ber.sigma(),
                             vf.data() + base);
  }
  return CellFaultField(std::move(vf), bits_per_block);
}

u64 CellFaultField::faulty_count(Volt vdd) const noexcept {
  u64 n = 0;
  for (float v : vf_) {
    if (vdd <= v) ++n;
  }
  return n;
}

double CellFaultField::effective_capacity(Volt vdd) const noexcept {
  if (vf_.empty()) return 1.0;
  return 1.0 -
         static_cast<double>(faulty_count(vdd)) / static_cast<double>(vf_.size());
}

}  // namespace pcs
