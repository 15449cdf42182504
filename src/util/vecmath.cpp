#include "util/vecmath.hpp"

#include <cmath>

#include "util/mathx.hpp"

namespace pcs::vecmath {

namespace {

double sample_z_one(double u, double bits_per_block) {
  if (u <= 0.0) u = 1e-300;
  const double p = -std::expm1(std::log(u) / bits_per_block);
  return inv_q_function(p);
}

}  // namespace

bool fast_math_active() { return false; }

// The affine tail mu + sigma * z is one expression shape in both
// functions below (a plain mul + add: baseline x86-64 has no FMA to
// contract into), so sample_vf_block equals the split composition.
void sample_vf_block(const double* u_draws, std::size_t count,
                     double bits_per_block, double mu, double sigma,
                     float* vf_out) {
  for (std::size_t i = 0; i < count; ++i) {
    vf_out[i] = static_cast<float>(
        mu + sigma * sample_z_one(u_draws[i], bits_per_block));
  }
}

void sample_z_block(const double* u_draws, std::size_t count,
                    double bits_per_block, double* z_out) {
  for (std::size_t i = 0; i < count; ++i) {
    z_out[i] = sample_z_one(u_draws[i], bits_per_block);
  }
}

void vf_from_z_block(const double* z, std::size_t count, double mu,
                     double sigma, float* vf_out) {
  for (std::size_t i = 0; i < count; ++i) {
    vf_out[i] = static_cast<float>(mu + sigma * z[i]);
  }
}

}  // namespace pcs::vecmath
