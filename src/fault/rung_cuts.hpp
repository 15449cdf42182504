// Ladder buckets straight from uniform draws.
//
// A manufactured block's fail voltage is the order-statistic chain
// vf(K) = float(mu + sigma * inv_q(-expm1(log(u) / bits))) of its uniform
// draw u = K * 2^-53, and every fault consumer asks only where vf lands on
// a ladder of voltages: the fault map's code (how many levels the block
// fails at), the population engines' rung histogram and viability floor,
// Fig. 3d's pass counts at its probe voltages. Since vf rises with K, that
// answer is a step function of K, and RungCuts finds the steps once per
// (ladder, mu, sigma, bits) so each block costs a table lookup (DrawCuts)
// instead of a run of the chain. DESIGN.md §13 has the exactness argument.
#pragma once

#include <span>
#include <vector>

#include "util/draw_cuts.hpp"
#include "util/types.hpp"

namespace pcs {

/// Longest VDD ladder a population run accepts. Results hold a
/// levels-by-levels histogram, so the cap bounds a run's memory whatever
/// a job line asks for; PopulationSpec::grid() enforces it.
inline constexpr u32 kMaxPopulationLevels = 1024;

/// Where each rung of a VDD ladder cuts the uniform draws, for one
/// (ladder, mu, sigma, bits per block): buckets a block on the ladder
/// straight from its draw, without running the order-statistic chain.
///
/// Rng::uniform gives u = K * 2^-53 for a 53-bit draw index K, and the
/// chain vf(K) = float(mu + sigma * inv_q(-expm1(log(u) / bits))) rises
/// with K. A block's bucket upper_bound(ladder, vf(K)) -- the number of
/// rungs at or below its fail voltage -- therefore steps up once per rung,
/// at that rung's cut: the first K whose vf reaches the rung. The
/// constructor finds every cut by bisecting the exact chain; a block's
/// bucket is then the number of cuts <= K, which a DrawCuts table reads
/// (util/draw_cuts.hpp). Rounding makes the chain non-monotone within a
/// few draws of a cut, so a draw the table refers back -- one within
/// kGuardDraws of any cut -- is bucketed by the exact chain instead.
///
/// Read-only after construction, so one table serves every shard thread.
class RungCuts {
 public:
  /// Draw indices run over [0, kDraws).
  static constexpr u64 kDraws = DrawCuts::kDraws;
  /// Draws within this distance of a cut take the exact chain: the guard
  /// band of cut c is [c - kGuardDraws, c + kGuardDraws).
  static constexpr u64 kGuardDraws = DrawCuts::kGuardDraws;

  /// Throws std::invalid_argument unless mu is finite and sigma is finite
  /// and > 0 (the cuts need vf to rise with the draw) and `grid` is a
  /// sorted ladder of at most kMaxPopulationLevels rungs.
  RungCuts(std::span<const Volt> grid, double mu, double sigma,
           u32 bits_per_block);

  u32 num_levels() const noexcept { return static_cast<u32>(grid_.size()); }

  /// cuts()[k]: the first draw index whose block the chain puts at or above
  /// rung k (0-based), or kDraws if none. Non-decreasing in k.
  std::span<const i64> cuts() const noexcept { return cuts_.cuts(); }

  /// out[i] = the bucket of a block drawn as draws[i] (each < kDraws): the
  /// number of rungs at or below its fail voltage, as count_fail_rungs
  /// would bucket the chain's value. `out` must hold draws.size() entries.
  void bucket_draws(std::span<const u64> draws, std::span<u16> out) const;

  /// The bucket of chip_fail_voltage over the blocks behind `buckets` --
  /// upper_bound(grid, chip_fail_voltage(vf, assoc)) -- from the buckets
  /// alone: chip_fail_voltage's fold (fold_sets) with each set's min
  /// starting at the bucket of 2.0f and the max at the bucket of +0.0f.
  u32 floor_bucket(std::span<const u16> buckets, u32 assoc) const;

 private:
  /// upper_bound(grid, vf): the bucket the chain composition gives.
  u16 bucket_of(float vf) const;
  /// The bucket of a draw the table refers back: runs the chain on it.
  u16 exact_bucket(u64 draw) const;

  std::vector<Volt> grid_;
  double mu_;
  double sigma_;
  double bits_;
  DrawCuts cuts_;
  u16 set_seed_ = 0;  ///< bucket of 2.0f
  u16 max_seed_ = 0;  ///< bucket of +0.0f
};

}  // namespace pcs
