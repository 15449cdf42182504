// Numerical helpers shared by the fault and power models.
#pragma once

namespace pcs {

/// Gaussian tail probability Q(x) = P[N(0,1) > x].
double q_function(double x) noexcept;

/// Inverse of q_function on (0, 1): returns x with Q(x) = p.
/// Used to calibrate the BER model from (voltage, BER) anchor points.
double inv_q_function(double p) noexcept;

/// Numerically stable computation of 1 - (1-p)^n for p in [0,1], n >= 0.
/// This is the probability that at least one of n independent events with
/// probability p occurs -- e.g. a block of n bits containing >= 1 faulty bit.
double one_minus_pow(double p, double n) noexcept;

/// (1-p)^n computed via expm1/log1p; survival of n independent cells.
double pow_one_minus(double p, double n) noexcept;

/// Binomial PMF C(n,k) p^k (1-p)^(n-k) evaluated in log space.
double binomial_pmf(unsigned n, unsigned k, double p) noexcept;

/// P[Binomial(n, p) <= k].
double binomial_cdf(unsigned n, unsigned k, double p) noexcept;

}  // namespace pcs
