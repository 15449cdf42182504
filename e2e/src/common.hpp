// Shared plumbing of pcs_e2e: run options, the per-process
// report every workload fills, and the timing helpers.
//
// pcs_e2e reads the wall clock by design. No wall-clock value ever
// reaches a simulation input: workloads are pure functions of --seed, and
// timings only flow into the report.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace pcs::e2e {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool setup_only = false;
  u32 threads = 1;         ///< min(4, nproc), worked out by main()
  std::string workdir;     ///< scratch directory for generated inputs
  std::string trace_out;   ///< span file written by a traced run

  // Every workload derives its inputs from --seed S the same way, so S = 1
  // reproduces the CLIs' defaults (chip 1, trace 42, population 2024).
  u64 chip_seed() const noexcept { return seed; }
  u64 trace_seed() const noexcept { return 41 + seed; }
  u64 population_seed() const noexcept { return 2023 + seed; }
};

/// What one pcs_e2e process measured and checked.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  double setup_s = 0.0;
  u64 attempted = 0;  ///< ops (runs, jobs, engine runs) plus cross-checks
  u64 failed = 0;     ///< ops that threw plus cross-checks that failed
  std::string digest = "none";
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one op or cross-check; a false `ok` is a failure named `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what);
    }
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls `rep` back to back, at least once, while another call -- as long
/// as the last one -- still ends within `seconds` of wall time. Returns
/// what each call returned: the wall seconds of its timed part, so the
/// checks a rep runs afterwards stay untimed.
inline std::vector<double> timed_reps(double seconds,
                                      const std::function<double()>& rep) {
  std::vector<double> walls;
  const double start = now_s();
  double last = 0.0;
  do {
    const double t0 = now_s();
    walls.push_back(rep());
    last = now_s() - t0;
  } while (now_s() - start + last <= seconds);
  return walls;
}

/// Wall seconds of one call of `fn`.
template <class F>
double wall_of(F&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> xs);

/// FNV-1a 64 digest of `bytes`, printed as 16 hex digits.
std::string hex_digest(std::string_view bytes);

/// Appends the exact bit pattern of `v` (so digests see every bit).
void put_bits(std::string& out, double v);
void put_u64(std::string& out, u64 v);

// Workload entry points (see e2e/README.md). Each generates its inputs
// from the seed in a timed set-up, then either measures untraced reps for
// `seconds` and checks their outputs, or runs the traced decomposition.
void run_fig4_sweep(const Options& o, Report& r);
void run_population(const Options& o, Report& r);
void run_population_grid(const Options& o, Report& r);
void run_serve_mix(const Options& o, Report& r);

}  // namespace pcs::e2e
