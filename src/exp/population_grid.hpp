// Sample-once population grid engine.
//
// POPULATION.md's grid runs evaluate one manufactured fleet against a full
// (size_kb x assoc x sigma) design grid. Chip c's draws depend only on
// (seed, c), never on the grid axes, so the engine hands every grid point
// to run_fleet (population_engine.hpp) at once: each die is drawn once at
// the largest size and bucketed once per sigma, smaller sizes reuse a
// prefix of its draws, and each assoc only refolds the buckets.
//
// Every per-point PopulationResult is therefore BIT-IDENTICAL to a
// standalone PopulationEngine run of that point's spec with the same seed
// (asserted per point by tests/test_population_grid.cpp and the CI grid
// determinism smoke), at any thread count and any shard size, and resumes
// from a checkpoint sidecar the same way (one histogram set per point).
#pragma once

#include <iosfwd>
#include <vector>

#include "exp/population_engine.hpp"

namespace pcs {

/// A (size_kb x assoc x sigma) grid over one manufactured fleet. The base
/// spec contributes everything except the swept axes: chip count, seed, VDD
/// ladder, SPCS target, shard size, block geometry. Axis values are used in
/// spec order; duplicates are rejected by validate().
struct PopulationGridSpec {
  /// Largest cache size, in KB, whose byte count fits a u64.
  static constexpr u64 kMaxSizeKb = ~u64{0} / 1024;

  PopulationSpec base;

  std::vector<u64> sizes_kb{64};  ///< cache sizes, KB
  std::vector<u32> assocs{4};     ///< associativities (ways)
  /// Process-variation sigmas of the fail-voltage distribution. Empty means
  /// "the engine's BerModel sigma" (one point on the sigma axis).
  std::vector<Volt> sigmas;

  /// Throws std::invalid_argument unless every axis is non-empty and
  /// duplicate-free, sizes are at most kMaxSizeKb, sigmas are finite and
  /// positive, and every (size, assoc) yields a valid CacheOrg.
  void validate() const;

  /// Points on the sigma axis: `sigmas`, or {fallback_sigma} when empty.
  std::vector<Volt> sigma_axis(Volt fallback_sigma) const;

  /// The base org resized to one grid cell.
  CacheOrg org_for(u64 size_kb, u32 assoc) const;

  /// The standalone PopulationSpec of one grid point (what a per-point
  /// PopulationEngine run would take; tests compare against it).
  PopulationSpec point_spec(u64 size_kb, u32 assoc) const;

  u64 num_points() const noexcept {
    const u64 s = sigmas.empty() ? 1 : sigmas.size();
    return sizes_kb.size() * assocs.size() * s;
  }
};

/// One grid cell: its coordinates plus the full fleet distributions.
struct PopulationGridPointResult {
  u64 size_kb = 0;
  u32 assoc = 0;
  Volt sigma = 0.0;
  PopulationResult result;
};

/// All grid cells, size-major in spec order:
/// point (si, ai, gi) lives at index (si * assocs + ai) * sigmas + gi.
struct PopulationGridResult {
  std::vector<PopulationGridPointResult> points;
};

/// Runs population grids across the deterministic ThreadPool.
class PopulationGridEngine {
 public:
  /// `ber` supplies mu and the fallback sigma; must outlive the engine.
  /// `num_threads` 0 = pcs_thread_count().
  explicit PopulationGridEngine(const BerModel& ber, u32 num_threads = 0);

  /// Evaluates every grid point over the shared fleet. When `trace` is
  /// non-null, one deterministic `population_grid_point` record is emitted
  /// per point, in point order, after the run (see TELEMETRY.md). `ckpt`
  /// enables shard-range checkpoint/resume exactly as in
  /// PopulationEngine::run; the sidecar holds one histogram set per point.
  PopulationGridResult run(const PopulationGridSpec& spec,
                           TraceSink* trace = nullptr,
                           const CheckpointOptions* ckpt = nullptr) const;

 private:
  const BerModel* ber_;
  u32 num_threads_;
};

/// Renders the operator-facing grid summary table (one row per point:
/// coordinates, yield at the top ladder level, floor/SPCS medians, unusable
/// count) to `out`. Bytes depend only on (spec, result) -- shared by
/// examples/population_grid and the pcs_sim service mode.
void render_population_grid_report(const PopulationGridSpec& spec,
                                   const PopulationGridResult& result,
                                   std::ostream& out);

}  // namespace pcs
