#include "util/rng.hpp"

#include <cmath>


namespace pcs {
namespace {

u64 splitmix64(u64& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(u64 seed) noexcept {
  u64 x = seed;
  for (auto& lane : s_) lane = splitmix64(x);
  // All-zero state is the one invalid xoshiro state; splitmix cannot emit
  // four zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

void Rng::uniform_block(std::span<double> out) noexcept {
  for (double& v : out) v = uniform();
}

void Rng::uniform_bits_block(std::span<u64> out) noexcept {
  for (u64& k : out) k = next_u64() >> 11;
}

void Rng::gaussian_block(std::span<double> out) noexcept {
  for (double& v : out) v = gaussian();
}

void Rng::gaussian_block(std::span<double> out, double mean,
                         double stddev) noexcept {
  gaussian_block(out);
  for (double& v : out) v = mean + stddev * v;
}

u64 derive_seed(u64 chip_seed, u64 trace_seed, u64 task_index) noexcept {
  // Each word perturbs the SplitMix64 state before the next draw, so any
  // single-bit change in any input word reshuffles the final output.
  u64 x = chip_seed;
  u64 h = splitmix64(x);
  x ^= trace_seed + 0x9e3779b97f4a7c15ULL;
  h ^= splitmix64(x);
  x ^= task_index + 0xD1B54A32D192ED03ULL;
  h ^= splitmix64(x);
  return h;
}

}  // namespace pcs
