#include "util/mathx.hpp"

#include <cmath>
#include <limits>

#include <math.h>  // lgamma_r

namespace pcs {

namespace {

// glibc's lgamma writes the process-global `signgam`, which is a data race
// when experiment-grid workers evaluate yield models concurrently (found by
// TSan). The _r variant keeps the sign local.
double lgamma_threadsafe(double x) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(__unix__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double q_function(double x) noexcept {
  return 0.5 * std::erfc(x / std::sqrt(2.0));
}

namespace {

// Acklam's rational approximation to the inverse standard-normal CDF,
// accurate to ~1e-9 relative error on its own; refined below with one Halley
// step against erfc to near machine precision. Fast enough for per-block
// Monte-Carlo sampling of multi-megabyte caches.
double phi_inv_acklam(double p) noexcept {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return x;
}

}  // namespace

double inv_q_function(double p) noexcept {
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  if (p >= 1.0) return -std::numeric_limits<double>::infinity();
  // Q(x) = p  <=>  Phi(x) = 1 - p  <=>  x = -Phi_inv(p).
  double x = -phi_inv_acklam(p);
  // One Halley refinement on f(x) = Q(x) - p, f'(x) = -phi(x).
  const double inv_sqrt_2pi = 0.3989422804014327;
  for (int i = 0; i < 2; ++i) {
    const double e = q_function(x) - p;
    const double pdf = inv_sqrt_2pi * std::exp(-0.5 * x * x);
    if (pdf <= 0.0) break;
    const double u = e / pdf;  // Newton step is +u since f' = -pdf
    x = x + u / (1.0 - 0.5 * x * u);
  }
  return x;
}

double pow_one_minus(double p, double n) noexcept {
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return n > 0.0 ? 0.0 : 1.0;
  return std::exp(n * std::log1p(-p));
}

double one_minus_pow(double p, double n) noexcept {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return n > 0.0 ? 1.0 : 0.0;
  return -std::expm1(n * std::log1p(-p));
}

double binomial_pmf(unsigned n, unsigned k, double p) noexcept {
  if (k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double log_choose = lgamma_threadsafe(n + 1.0) -
                            lgamma_threadsafe(k + 1.0) -
                            lgamma_threadsafe(n - k + 1.0);
  const double log_pmf =
      log_choose + k * std::log(p) + (n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_cdf(unsigned n, unsigned k, double p) noexcept {
  if (k >= n) return 1.0;
  double acc = 0.0;
  for (unsigned i = 0; i <= k; ++i) acc += binomial_pmf(n, i, p);
  return acc > 1.0 ? 1.0 : acc;
}

}  // namespace pcs
