// The order-statistic fail-voltage chain over blocks of uniform draws.
//
// A block fails at the highest fail voltage of its bits_per_block cells,
// each N(mu, sigma). Sampling that maximum from one uniform draw u runs
//   vf = float(mu + sigma * inv_q_function(-expm1(log(u) / bits_per_block)))
// with plain libm calls (mathx.cpp has inv_q_function). No fault consumer
// in the library runs it per block: they all bucket blocks on their VDD
// ladders straight from the draws (RungCuts, fault/rung_cuts.hpp). The
// chain runs only to build a table of cuts, for the rare draw inside a
// cut's guard band, and in CellFaultField::sample_fast, the reference
// sampler the tests pin the buckets against. So the goldens depend on the
// host libm only for draws within a few draw indices of a cut, which
// tests/test_draw_binning.cpp watches.
#pragma once

#include <cstddef>

namespace pcs::vecmath {

/// False: there is no accelerated chain. Kept for the end-to-end
/// benchmark program (e2e/src), which reports it.
bool fast_math_active();

/// The chain over a block of uniform draws: for each i,
///   u = u_draws[i]; if (u <= 0) u = 1e-300;
///   p = -expm1(log(u) / bits_per_block);
///   vf_out[i] = float(mu + sigma * inv_q_function(p)).
void sample_vf_block(const double* u_draws, std::size_t count,
                     double bits_per_block, double mu, double sigma,
                     float* vf_out);

/// The (mu, sigma)-independent core of sample_vf_block: for each i,
///   u = u_draws[i]; if (u <= 0) u = 1e-300;
///   z_out[i] = inv_q_function(-expm1(log(u) / bits_per_block));
/// such that composing with vf_from_z_block reproduces sample_vf_block
/// bit-for-bit (tests/test_fault_equivalence pins the composition). It and
/// vf_from_z_block have no caller in src/: they stay for the end-to-end
/// benchmark's traced population grid, which re-drives the old chain as a
/// cross-check.
void sample_z_block(const double* u_draws, std::size_t count,
                    double bits_per_block, double* z_out);

/// vf_out[i] = float(mu + sigma * z[i]), bit-identical to the tail of
/// sample_vf_block for z from sample_z_block.
void vf_from_z_block(const double* z, std::size_t count, double mu,
                     double sigma, float* vf_out);

}  // namespace pcs::vecmath
