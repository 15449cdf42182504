// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic behaviour in the library (fault placement, workload address
// streams, Monte-Carlo yield analysis) flows through Rng so a fixed seed
// reproduces a run bit-for-bit across platforms.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "util/types.hpp"

namespace pcs {

/// xoshiro256** 1.0 generator seeded through SplitMix64.
///
/// Chosen over std::mt19937_64 because its output is specified independent of
/// the standard library implementation and it is substantially faster, which
/// matters when drawing one failure voltage per SRAM cell of an 8 MB cache.
///
/// The per-draw methods are defined inline here: every simulated memory
/// reference costs several draws, and keeping them out-of-line was a
/// measurable fraction of trace-generation time. The output sequence is part
/// of the determinism contract (golden figure regressions depend on it), so
/// the arithmetic must never change -- only where it is compiled.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(u64 seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value.
  u64 next_u64() noexcept {
    const u64 result = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Lemire's unbiased bounded generation via 128-bit multiply.
  u64 uniform_int(u64 bound) noexcept {
    const u64 threshold = (0 - bound) % bound;
    for (;;) {
      const u64 x = next_u64();
      const auto m = static_cast<unsigned __int128>(x) * bound;
      if (static_cast<u64>(m) >= threshold) return static_cast<u64>(m >> 64);
    }
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Standard normal deviate (Box-Muller; second deviate cached).
  double gaussian() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept;

  /// Fills `out` with exactly the values `out.size()` consecutive uniform()
  /// calls would produce -- the draw sequence and results are bit-identical;
  /// only the call overhead is amortized.
  void uniform_block(std::span<double> out) noexcept;

  /// Fills `out` with the 53-bit integers K that `out.size()` consecutive
  /// uniform() calls would scale to K * 2^-53 -- the same draws in the same
  /// sequence, before the conversion to double. Every fault consumer
  /// buckets blocks straight from K (see fault/rung_cuts.hpp).
  void uniform_bits_block(std::span<u64> out) noexcept;

  /// Fills `out` with exactly the values `out.size()` consecutive gaussian()
  /// calls would produce, including consuming/leaving the cached second
  /// Box-Muller deviate the same way the scalar loop would.
  void gaussian_block(std::span<double> out) noexcept;

  /// Block version of gaussian(mean, stddev); same equivalence guarantee.
  void gaussian_block(std::span<double> out, double mean,
                      double stddev) noexcept;

 private:
  static constexpr u64 rotl(u64 x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<u64, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

/// Derives a task seed from `(chip_seed, trace_seed, task_index)` by folding
/// each word into a SplitMix64 stream. The experiment engine uses this to
/// hand every grid task an independent, decorrelated generator whose value
/// depends only on the tuple -- never on scheduling -- so a parallel sweep
/// is bit-identical to the serial loop over the same grid.
u64 derive_seed(u64 chip_seed, u64 trace_seed, u64 task_index) noexcept;

}  // namespace pcs
