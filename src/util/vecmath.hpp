// Batched, bit-identical transcendentals for the fault-sampling hot path.
//
// Contract: every function here produces *exactly* the same bits as the
// equivalent loop of scalar libm calls (std::exp / std::log / std::expm1 /
// std::erfc) or of the scalar reference chain in
// CellFaultField::sample_fast_reference.  This is load-bearing: the frozen
// RNG draw-sequence contract (src/util/rng.hpp) plus bit-identical math is
// what keeps every figure and golden test byte-stable across this rebuild.
//
// How that is possible: at first use the implementation locates the data
// tables of the *running* libm (the same ones std::exp/std::log dispatch to
// on this machine), transcribes the exact glibc algorithms over those tables
// with explicit AVX2 intrinsics, and then verifies each kernel bit-for-bit
// against the corresponding std:: function over a dense sweep of its domain.
// If discovery or verification fails -- different libc, different dispatch,
// no AVX2 -- everything silently falls back to plain scalar loops, which are
// trivially bit-identical.  Inputs outside a kernel's verified envelope are
// recomputed with the scalar libm call per lane, so the fast path never
// changes a single output bit, only the time it takes to produce them.
#pragma once

#include <cstddef>

namespace pcs::vecmath {

/// True when the AVX2 fast path passed discovery + bit-verification and is
/// serving the block calls below.  False means scalar fallback.  Either way
/// the results are identical; this exists for tests/benchmarks to report
/// which mode they measured.
bool fast_math_active();

/// out[i] = std::exp(in[i]), bit-identical, for any count (in == out ok).
void exp_block(const double* in, double* out, std::size_t count);
/// out[i] = std::log(in[i]), bit-identical.
void log_block(const double* in, double* out, std::size_t count);
/// out[i] = std::expm1(in[i]), bit-identical.
void expm1_block(const double* in, double* out, std::size_t count);
/// out[i] = std::erfc(in[i]), bit-identical.
void erfc_block(const double* in, double* out, std::size_t count);

/// Fused fail-voltage chain over a block of uniform draws: for each i,
///   u = u_draws[i]; if (u <= 0) u = 1e-300;
///   p = -expm1(log(u) / bits_per_block);
///   vf_out[i] = float(mu + sigma * inv_q_function(p));
/// bit-identical to CellFaultField::sample_fast_reference's inner loop
/// (see mathx.cpp for inv_q_function = Acklam + 2 Halley refinements).
void sample_vf_block(const double* u_draws, std::size_t count,
                     double bits_per_block, double mu, double sigma,
                     float* vf_out);

/// The (mu, sigma)-independent core of sample_vf_block: for each i,
///   u = u_draws[i]; if (u <= 0) u = 1e-300;
///   p = -expm1(log(u) / bits_per_block);
///   z_out[i] = inv_q_function(p);
/// such that composing with vf_from_z_block reproduces sample_vf_block
/// bit-for-bit (tests/test_fault_equivalence pins the composition). No
/// caller in src/ is left: the population engines bucket blocks from their
/// draws (RungCuts). The split stays for the end-to-end benchmark's traced
/// population grid, which re-drives the old chain as a cross-check.
void sample_z_block(const double* u_draws, std::size_t count,
                    double bits_per_block, double* z_out);

/// vf_out[i] = float(mu + sigma * z[i]), bit-identical to the tail of
/// sample_vf_block / sample_fast_reference for z from sample_z_block.
void vf_from_z_block(const double* z, std::size_t count, double mu,
                     double sigma, float* vf_out);

}  // namespace pcs::vecmath
