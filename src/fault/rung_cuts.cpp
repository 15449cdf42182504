#include "fault/rung_cuts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/set_fold.hpp"
#include "util/mathx.hpp"
#include "util/vecmath.hpp"

namespace pcs {

namespace {

/// The least double d with double(float(d)) >= v: every chain value below
/// it rounds to a float under a rung at v. Only seeds the cut search.
double float_rounding_edge(double v) {
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  if (!(v >= -kFloatMax && v <= kFloatMax)) return v;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float f = static_cast<float>(v);
  if (static_cast<double>(f) < v) f = std::nextafter(f, kInf);
  const float below = std::nextafter(f, -kInf);
  return 0.5 * (static_cast<double>(below) + static_cast<double>(f));
}

/// 2^53 * Phi(z)^bits, clamped to [0, 2^53]: the draw index at which the
/// maximum of `bits` standard normals sampled by the chain reaches z. The
/// closed-form inverse of the chain, up to its rounding.
i64 draw_index_of(double z, double bits) {
  const double scale = static_cast<double>(RungCuts::kDraws);
  const double log_phi =
      z < 0.0 ? std::log(q_function(-z)) : std::log1p(-q_function(z));
  const double x = bits * log_phi;
  // Near the top of the range, 2^53 + 2^53 * expm1(x) keeps the draws that
  // 2^53 * exp(x) would round away.
  const double k =
      x < -0.5 ? scale * std::exp(x) : scale + scale * std::expm1(x);
  if (!(k > 0.0)) return 0;
  if (k >= scale) return static_cast<i64>(RungCuts::kDraws);
  return static_cast<i64>(k);
}

constexpr u16 kMixed = 0x8000;  // lut_ flag: resolve the bin draw by draw
constexpr u32 kLutShift = 53 - RungCuts::kLutBits;
constexpr i64 kSentinel = i64{1} << 62;

/// Each rung's cut: the first draw index whose chain value reaches the
/// rung, kDraws if none does. Bisects with the invariant "lo misses the
/// rung, hi reaches it" and the virtual ends -1 (misses) and kDraws
/// (reaches), every step evaluating the chain at all open rungs' midpoints
/// in one sample_vf_block call. Forced non-decreasing in k.
std::vector<i64> bisect_cuts(std::span<const Volt> grid, double mu,
                             double sigma, double bits) {
  const std::size_t n = grid.size();
  const i64 draws = static_cast<i64>(RungCuts::kDraws);
  std::vector<i64> lo(n), hi(n);
  std::vector<std::size_t> open;  // rung of each probe
  std::vector<i64> at;            // draw of each probe
  std::vector<double> u;
  std::vector<float> vf;
  const auto evaluate = [&] {
    u.resize(at.size());
    vf.resize(at.size());
    for (std::size_t j = 0; j < at.size(); ++j) {
      u[j] = static_cast<double>(at[j]) * 0x1p-53;
    }
    vecmath::sample_vf_block(u.data(), u.size(), bits, mu, sigma, vf.data());
  };
  const auto reaches = [&](std::size_t j) {
    return static_cast<double>(vf[j]) >= grid[open[j]];
  };

  // Seed each bracket at the closed-form inverse of the rung's float
  // rounding edge, which lands within 18 draws of the bisected cut on the
  // soi45 ladders, and check both ends against the chain; a rung whose
  // check fails searches the full range instead.
  constexpr i64 kBracket = i64{1} << 6;
  for (std::size_t k = 0; k < n; ++k) {
    const i64 k0 =
        draw_index_of((float_rounding_edge(grid[k]) - mu) / sigma, bits);
    lo[k] = std::max<i64>(k0 - kBracket, -1);
    hi[k] = std::min<i64>(k0 + kBracket, draws);
    if (lo[k] >= 0) {
      open.push_back(k);
      at.push_back(lo[k]);
    }
    if (hi[k] < draws) {
      open.push_back(k);
      at.push_back(hi[k]);
    }
  }
  evaluate();
  std::vector<std::size_t> unbracketed;
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (reaches(j) != (at[j] == hi[open[j]])) unbracketed.push_back(open[j]);
  }
  for (const std::size_t k : unbracketed) {
    lo[k] = -1;
    hi[k] = draws;
  }

  for (;;) {
    open.clear();
    at.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (hi[k] - lo[k] > 1) {
        open.push_back(k);
        at.push_back(lo[k] + (hi[k] - lo[k]) / 2);
      }
    }
    if (open.empty()) break;
    evaluate();
    for (std::size_t j = 0; j < open.size(); ++j) {
      (reaches(j) ? hi[open[j]] : lo[open[j]]) = at[j];
    }
  }
  for (std::size_t k = 1; k < n; ++k) hi[k] = std::max(hi[k], hi[k - 1]);
  return hi;
}

}  // namespace

RungCuts::RungCuts(std::span<const Volt> grid, double mu, double sigma,
                   u32 bits_per_block)
    : grid_(grid.begin(), grid.end()),
      mu_(mu),
      sigma_(sigma),
      bits_(static_cast<double>(bits_per_block)) {
  if (!std::isfinite(mu)) {
    throw std::invalid_argument("population mu must be finite");
  }
  if (!std::isfinite(sigma) || !(sigma > 0.0)) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", sigma);
    throw std::invalid_argument(
        std::string("population sigma must be finite and positive, got ") +
        got);
  }
  if (grid.size() > kMaxPopulationLevels) {
    throw std::invalid_argument(
        "RungCuts: ladder longer than kMaxPopulationLevels");
  }
  const std::vector<i64> found = bisect_cuts(grid_, mu_, sigma_, bits_);
  padded_cuts_.reserve(found.size() + 2);
  padded_cuts_.push_back(-kSentinel);
  padded_cuts_.insert(padded_cuts_.end(), found.begin(), found.end());
  padded_cuts_.push_back(kSentinel);
  const std::span<const i64> cut = cuts();

  // Lookup: a bin's first draw's bucket, flagged when any cut's guard band
  // (clipped to the draw range) reaches into the bin.
  lut_.assign(std::size_t{1} << kLutBits, 0);
  std::size_t below = 0;
  for (std::size_t b = 0; b < lut_.size(); ++b) {
    const i64 first = static_cast<i64>(b) << kLutShift;
    while (below < cut.size() && cut[below] <= first) ++below;
    lut_[b] = static_cast<u16>(below);
  }
  const i64 guard = static_cast<i64>(kGuardDraws);
  const i64 last_draw = static_cast<i64>(kDraws) - 1;
  for (const i64 c : cut) {
    const i64 first = std::max<i64>(c - guard, 0) >> kLutShift;
    const i64 last = std::min<i64>(c + guard - 1, last_draw) >> kLutShift;
    for (i64 b = first; b <= last; ++b) {
      lut_[static_cast<std::size_t>(b)] |= kMixed;
    }
  }

  set_seed_ = bucket_of(2.0f);
  max_seed_ = bucket_of(0.0f);
}

u16 RungCuts::bucket_of(float vf) const {
  return static_cast<u16>(std::upper_bound(grid_.begin(), grid_.end(),
                                           static_cast<double>(vf)) -
                          grid_.begin());
}

u16 RungCuts::exact_bucket(u64 draw, u16 start) const {
  const i64 k = static_cast<i64>(draw);
  const i64* cut = padded_cuts_.data() + 1;
  std::ptrdiff_t b = start;
  while (cut[b] <= k) ++b;
  // Passing this test needs cut[b-1] <= k - guard and cut[b] > k + guard,
  // which makes b the number of cuts <= k whatever the walk did; a draw
  // failing it is inside a guard band (or was walked wrong).
  const i64 guard = static_cast<i64>(kGuardDraws);
  if (k - cut[b - 1] >= guard && cut[b] - k > guard) {
    return static_cast<u16>(b);
  }
  // Inside a guard band: run the chain on this one draw.
  const double u = static_cast<double>(draw) * 0x1p-53;
  float vf = 0.0f;
  vecmath::sample_vf_block(&u, 1, bits_, mu_, sigma_, &vf);
  return bucket_of(vf);
}

void RungCuts::bucket_draws(std::span<const u64> draws,
                            std::span<u16> out) const {
  const u16* lut = lut_.data();
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const u16 e = lut[draws[i] >> kLutShift];
    out[i] = (e & kMixed) == 0
                 ? e
                 : exact_bucket(draws[i], static_cast<u16>(e & ~kMixed));
  }
}

u32 RungCuts::floor_bucket(std::span<const u16> buckets, u32 assoc) const {
  // The bucket is non-decreasing in the fail voltage, so it commutes with
  // min and max: folding the buckets from the buckets of chip_fail_voltage's
  // seeds gives the bucket of its result.
  return fold_sets<u16>(buckets, assoc, set_seed_, max_seed_);
}

}  // namespace pcs
