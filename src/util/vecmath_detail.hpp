// Internal plumbing between the vecmath dispatcher (vecmath.cpp) and the
// optional AVX2 backend (vecmath_avx2.cpp, compiled with -mavx2 -mfma
// -ffp-contract=off on x86-64 only).  Not installed; not part of the API.
#pragma once

#include <cstddef>

namespace pcs::vecmath_detail {

using BlockFn = void (*)(const double*, double*, std::size_t);
using SampleFn = void (*)(const double*, std::size_t, double, double, double,
                          float*);
using ZSampleFn = void (*)(const double*, std::size_t, double, double*);

struct Kernels {
  BlockFn exp_b;
  BlockFn log_b;
  BlockFn expm1_b;
  BlockFn erfc_b;
  SampleFn sample;
  ZSampleFn sample_z;
  bool active;
};

/// Scalar reference for one fail-voltage draw (the exact chain from
/// CellFaultField::sample_fast_reference); also used by the AVX2 backend to
/// patch up lanes that fall outside a kernel's verified envelope.
float sample_vf_one(double u, double bits_per_block, double mu, double sigma);

/// The (mu, sigma)-independent core of sample_vf_one: the standard-normal
/// order-statistic deviate z with  float(mu + sigma * z) == sample_vf_one.
/// Backs sample_z_block, the split that pays the log/expm1/inv_q chain
/// once per block and reuses it across sigmas.
double sample_z_one(double u, double bits_per_block);

#if defined(PCS_HAVE_VECMATH_AVX2)
/// Attempt libm table discovery + bit-verification; on success overwrite the
/// function pointers in `k` with the AVX2 kernels and set k.active.  Returns
/// k.active.  Defined in vecmath_avx2.cpp.
bool try_init_avx2(Kernels& k);
#endif

}  // namespace pcs::vecmath_detail
