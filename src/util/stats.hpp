// Lightweight descriptive statistics used by the simulator and benches.
#pragma once

#include "util/types.hpp"

namespace pcs {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void reset() noexcept;

  u64 count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace pcs
