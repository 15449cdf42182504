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

/// bisect_cuts for a ladder the cuts can use; throws naming what they
/// cannot.
std::vector<i64> checked_cuts(std::span<const Volt> grid, double mu,
                              double sigma, double bits) {
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
  return bisect_cuts(grid, mu, sigma, bits);
}

}  // namespace

RungCuts::RungCuts(std::span<const Volt> grid, double mu, double sigma,
                   u32 bits_per_block)
    : grid_(grid.begin(), grid.end()),
      mu_(mu),
      sigma_(sigma),
      bits_(static_cast<double>(bits_per_block)),
      cuts_(checked_cuts(grid_, mu_, sigma_, bits_)),
      set_seed_(bucket_of(2.0f)),
      max_seed_(bucket_of(0.0f)) {}

u16 RungCuts::bucket_of(float vf) const {
  return static_cast<u16>(std::upper_bound(grid_.begin(), grid_.end(),
                                           static_cast<double>(vf)) -
                          grid_.begin());
}

u16 RungCuts::exact_bucket(u64 draw) const {
  const double u = static_cast<double>(draw) * 0x1p-53;
  float vf = 0.0f;
  vecmath::sample_vf_block(&u, 1, bits_, mu_, sigma_, &vf);
  return bucket_of(vf);
}

void RungCuts::bucket_draws(std::span<const u64> draws,
                            std::span<u16> out) const {
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const u32 b = cuts_.count(draws[i]);
    out[i] = b != DrawCuts::kExact ? static_cast<u16>(b)
                                   : exact_bucket(draws[i]);
  }
}

u32 RungCuts::floor_bucket(std::span<const u16> buckets, u32 assoc) const {
  // The bucket is non-decreasing in the fail voltage, so it commutes with
  // min and max: folding the buckets from the buckets of chip_fail_voltage's
  // seeds gives the bucket of its result.
  return fold_sets<u16>(buckets, assoc, set_seed_, max_seed_);
}

}  // namespace pcs
