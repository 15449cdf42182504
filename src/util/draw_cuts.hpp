// A step function of one uniform draw, read from a table of its steps.
//
// Rng::uniform scales a 53-bit draw index K = next_u64() >> 11 to
// u = K * 2^-53. Two hot loops need only a small integer function of u:
// a block's ladder bucket (fault/rung_cuts.hpp) and a synthetic trace's
// geometric gap (workload/synthetic.hpp). Each is monotone in K apart from
// rounding within a few draws of its steps, so away from the steps it
// equals the number of *cuts* (the draws where it steps) at or below K.
// Each user finds its own cuts by bisecting its exact function; DrawCuts
// holds them and answers that count from a lookup on K's top bits, and
// refers every draw it cannot vouch for back to the exact function.
// DESIGN.md §13 has the exactness argument.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/types.hpp"

namespace pcs {

/// The cuts of a step function of the draw index K in [0, kDraws), and a
/// lookup that counts the cuts at or below a draw.
///
/// count(K) is the number of cuts <= K, except that it returns kExact for
/// a draw within kGuardDraws of a cut -- in [c - kGuardDraws,
/// c + kGuardDraws) -- and for K = 0, where Rng users clamp u = 0 to a
/// value their function is not monotone at. The caller then evaluates its
/// exact function on that draw. A lookup on K's top kLutBits bits holds
/// each bin's first count, flagged when a guard band (or K = 0) lies in the
/// bin; a flagged bin's draws walk the sorted cuts from there, and the
/// guard test also certifies the walk, so a mis-walked draw falls through
/// to the exact function and costs time, never a wrong count.
///
/// Read-only after construction, so one table serves every thread.
class DrawCuts {
 public:
  /// Draw indices run over [0, kDraws).
  static constexpr u64 kDraws = u64{1} << 53;
  /// Width of the lookup's index: K's top bits.
  static constexpr u32 kLutBits = 12;
  /// Half-width of each cut's guard band, in draws.
  static constexpr u64 kGuardDraws = u64{1} << 30;
  /// What count() returns for a draw the caller must evaluate exactly.
  static constexpr u32 kExact = ~u32{0};
  /// Most cuts a table holds: a lookup entry keeps its count in 15 bits.
  static constexpr std::size_t kMaxCuts = 0x7fff;

  /// Throws std::invalid_argument unless `cuts` is non-decreasing, each
  /// in [0, kDraws], with at most kMaxCuts entries. A cut at kDraws is a
  /// step no draw reaches; one at 0, a step every draw is past.
  explicit DrawCuts(std::span<const i64> cuts) {
    if (cuts.size() > kMaxCuts) {
      throw std::invalid_argument("DrawCuts: more than kMaxCuts cuts");
    }
    if (!std::is_sorted(cuts.begin(), cuts.end()) ||
        (!cuts.empty() &&
         (cuts.front() < 0 || cuts.back() > static_cast<i64>(kDraws)))) {
      throw std::invalid_argument(
          "DrawCuts: cuts must be non-decreasing within [0, 2^53]");
    }
    padded_.reserve(cuts.size() + 2);
    padded_.push_back(-kSentinel);
    padded_.insert(padded_.end(), cuts.begin(), cuts.end());
    padded_.push_back(kSentinel);

    lut_.assign(std::size_t{1} << kLutBits, 0);
    std::size_t below = 0;
    for (std::size_t b = 0; b < lut_.size(); ++b) {
      const i64 first = static_cast<i64>(b) << kLutShift;
      while (below < cuts.size() && cuts[below] <= first) ++below;
      lut_[b] = static_cast<u16>(below);
    }
    const i64 guard = static_cast<i64>(kGuardDraws);
    const i64 last_draw = static_cast<i64>(kDraws) - 1;
    for (const i64 c : cuts) {
      const i64 first = std::max<i64>(c - guard, 0) >> kLutShift;
      const i64 last = std::min<i64>(c + guard - 1, last_draw) >> kLutShift;
      for (i64 b = first; b <= last; ++b) {
        lut_[static_cast<std::size_t>(b)] |= kMixed;
      }
    }
    lut_[0] |= kMixed;  // K = 0
  }

  /// The cuts, in the order given.
  std::span<const i64> cuts() const noexcept {
    return {padded_.data() + 1, padded_.size() - 2};
  }

  /// The number of cuts <= draw (draw < kDraws), or kExact.
  u32 count(u64 draw) const noexcept {
    const u16 e = lut_[draw >> kLutShift];
    return (e & kMixed) == 0 ? e : walk(draw, e & ~kMixed);
  }

 private:
  static constexpr u32 kLutShift = 53 - kLutBits;
  static constexpr u16 kMixed = 0x8000;  // lut_ flag: walk the cuts
  static constexpr i64 kSentinel = i64{1} << 62;

  /// count() in a flagged bin whose first count is `start`.
  u32 walk(u64 draw, u32 start) const noexcept {
    const i64 k = static_cast<i64>(draw);
    const i64* cut = padded_.data() + 1;
    std::ptrdiff_t b = start;
    while (cut[b] <= k) ++b;
    // Passing this test needs cut[b-1] <= k - guard and cut[b] > k + guard,
    // which makes b the number of cuts <= k whatever the walk did.
    const i64 guard = static_cast<i64>(kGuardDraws);
    if (k != 0 && k - cut[b - 1] >= guard && cut[b] - k > guard) {
      return static_cast<u32>(b);
    }
    return kExact;
  }

  /// -2^62, the cuts, 2^62: the sentinels end the walk and the guard test.
  std::vector<i64> padded_;
  /// Per top-bits bin: the count at its first draw, ORed with kMixed when
  /// the bin holds K = 0 or part of a guard band.
  std::vector<u16> lut_;
};

}  // namespace pcs
