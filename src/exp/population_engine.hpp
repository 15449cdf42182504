// Fleet-scale chip-population engine.
//
// The paper's Fig. 3 / Fig. 5 story is a *population* claim: yield and
// energy savings are distributions over process-variation chip instances,
// not properties of one die. This engine simulates millions of manufactured
// dies of one cache design and reduces them to fleet-level distributions --
// per-die minimum operating voltage (the DPCS floor), per-die SPCS binning
// voltage, yield vs VDD, and effective capacity at the floor -- plus the
// per-bin DPCS ladder tuning the binning report derives from them.
//
// Scale contract (POPULATION.md is the operator-facing spec):
//
//   * The population is split into SHARDS of `chips_per_shard` consecutive
//     chips; shards fan across the deterministic ThreadPool. Chip c's RNG
//     is Rng(derive_seed(seed, 0, c)) with c the GLOBAL chip index, so the
//     manufactured die depends only on (seed, c) -- never on the shard size
//     or the thread count.
//   * Shards reduce to integer histograms (u64 counts over the fixed VDD
//     ladder), and shard results merge by elementwise addition -- exact and
//     associative -- so the merged PopulationResult is byte-identical at
//     any thread count AND any shard size. No per-chip records are kept:
//     memory is O(levels^2), independent of the population size.
//   * Derived statistics (means, quantiles, yield curves) are computed from
//     the histograms by fixed-order folds, inheriting the same determinism.
//
// The per-chip kernel does not run the order-statistic chain per block: a
// block's ladder bucket is a step function of its 53-bit uniform draw, so
// RungCuts finds each rung's step once per run and bin_chip buckets every
// block straight from its draw (running the chain only for the rare draw
// next to a step), then takes the viability floor (the max over sets of
// the min over ways) and every level's capacity from the buckets alone.
// The result equals the chain composition bit for bit (DESIGN.md §13;
// tests/test_draw_binning.cpp).
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cachemodel/cache_org.hpp"
#include "exp/thread_pool.hpp"
#include "fault/ber_model.hpp"
#include "fault/rung_cuts.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/types.hpp"

namespace pcs {

/// Capacity-at-floor histogram resolution (fixed bins over [0, 1]).
inline constexpr u32 kPopulationCapacityBins = 100;

/// One population run, fully specified. Every field participates in the
/// determinism contract except `chips_per_shard`, which must not change any
/// result (asserted by tests/test_population.cpp).
struct PopulationSpec {
  CacheOrg org{64 * 1024, 4, 64, 31};
  u64 num_chips = 10'000;
  u64 seed = 2024;

  /// VDD ladder: grid_lo, grid_lo+grid_step, ... up to grid_hi (inclusive
  /// within half a step). Levels are 1-based like FaultMap's.
  Volt grid_lo = 0.45;
  Volt grid_hi = 1.00;
  Volt grid_step = 0.01;

  /// SPCS selection: lowest viable level with >= this effective capacity.
  double spcs_min_capacity = 0.99;

  /// Chips per shard (result-invariant; tunes task granularity only).
  u64 chips_per_shard = 4096;

  /// The ladder's levels. Throws std::invalid_argument, naming the field,
  /// for a non-finite grid_lo/grid_hi/grid_step, a step <= 0, an empty
  /// ladder, or more than kMaxPopulationLevels levels -- all before the
  /// ladder is allocated.
  std::vector<Volt> grid() const;
};

/// Where one die lands: the per-chip kernel's output.
struct ChipBinPoint {
  u32 floor_level = 0;   ///< lowest viable level, 1-based; 0 = unusable
  u32 spcs_level = 0;    ///< lowest viable level with SPCS capacity; 0 = none
  u32 capacity_bin = 0;  ///< effective capacity at floor_level, binned
};

/// The per-die kernel of both engines. Bins one manufactured die, given
/// its blocks' uniform draws (Rng::uniform_bits_block, block order) at its
/// largest size, at every (size, assoc) pair: buckets every block once
/// with `cuts`, grows the rung histogram over `sizes` (block counts,
/// ascending, the last at most draws.size()) -- a smaller cache's draws are
/// a prefix of a larger one's -- and at each size takes every assoc's
/// viability floor with RungCuts::floor_bucket and its bin with
/// bin_from_floor_bucket. out[k * assocs.size() + a] receives size k,
/// assoc a. `buckets` (>= draws.size() entries), `rungs` and `faulty_at`
/// (cuts.num_levels() + 2 entries each) are scratch the caller reuses
/// across dies. At one size and one assoc it equals the chain composition
/// sample_vf_block -> chip_fail_voltage -> count_fail_rungs ->
/// bin_from_fail_summary.
void bin_chip(std::span<const u64> draws, const RungCuts& cuts,
              std::span<const u64> sizes, std::span<const u32> assocs,
              double min_capacity, std::span<u16> buckets,
              std::span<u64> rungs, std::span<u64> faulty_at,
              std::span<ChipBinPoint> out);

/// Fig. 3d's Monte-Carlo yield curve: manufactures `trials` dies of `org`
/// (die i draws from Rng(derive_seed(seed, 0, i))) across `num_threads`
/// workers and returns, per probe voltage, how many dies pass there: probe
/// > the die's fail voltage (chip_fail_voltage over its blocks). A die is
/// the floor bucket of its draws over RungCuts on the raw probes, which
/// must ascend (std::invalid_argument otherwise), so each count is a
/// prefix count of those buckets. Identical at every thread count.
std::vector<u64> yield_pass_counts_mc(u64 trials, u64 seed,
                                      const BerModel& ber,
                                      const CacheOrg& org,
                                      std::span<const Volt> probes,
                                      u32 num_threads);

/// Adds each bucket to `rung_counts` (num_levels + 2 entries); suffix
/// sums over indices n..1 then give every level's faulty count, exactly as
/// after count_fail_rungs. Additive over block ranges.
void count_buckets(std::span<const u16> buckets, std::span<u64> rung_counts);

/// The float-path histogram: adds each block's ladder bucket to
/// `rung_counts`, where block b lands in index upper_bound(grid, vf[b]) --
/// the number of ladder rungs at or below its fail voltage (on a finite
/// ladder NaN and +inf land in grid.size(), -inf in 0). O(1) per block: a
/// guess from the mean rung spacing, corrected against the real rungs, so
/// any sorted ladder gets the exact upper_bound bucket. `grid` holds at
/// most kMaxPopulationLevels rungs (std::invalid_argument otherwise);
/// `rung_counts` must have grid.size() + 2 entries, and suffix-summing
/// indices n..1 turns the buckets into per-level faulty counts. No code
/// in src/ calls it: the engines bucket from draws instead (RungCuts). It
/// stays for callers that hold fail voltages -- the end-to-end benchmark's
/// traced cross-check (e2e/src/traced.cpp), the chain-composition oracle
/// in the tests, and the micro-benchmarks.
void count_fail_rungs(std::span<const float> vf, std::span<const Volt> grid,
                      std::span<u64> rung_counts);

/// The binning step: places a die given the bucket of its viability floor
/// (upper_bound(grid, vf_chip), grid.size() = unusable) and its
/// suffix-summed per-level faulty counts `faulty_at` (num_levels + 2
/// entries, 1-based levels) for a cache of `num_blocks` blocks. bin_chip
/// calls it with RungCuts::floor_bucket once per (size, assoc) over
/// shared summaries, which is what keeps every grid point bit-identical to
/// its standalone run.
ChipBinPoint bin_from_floor_bucket(u32 floor_bucket,
                                   std::span<const u64> faulty_at,
                                   u64 num_blocks, u32 num_levels,
                                   double min_capacity);

/// bin_from_floor_bucket given the viability-floor scalar `vf_chip`
/// itself (chip_fail_voltage's result) instead of its bucket. No code in
/// src/ calls it; it stays for the end-to-end benchmark's traced
/// cross-check (e2e/src/traced.cpp) and the tests.
ChipBinPoint bin_from_fail_summary(float vf_chip,
                                   std::span<const u64> faulty_at,
                                   u64 num_blocks, std::span<const Volt> grid,
                                   double min_capacity);

/// Merged fleet-level distributions. All counts are u64; all level indices
/// are 1-based positions in `grid` (index l-1 stores level l).
struct PopulationResult {
  std::vector<Volt> grid;
  u64 num_chips = 0;
  u64 unusable = 0;  ///< dies with no viable level even at nominal
  u64 no_spcs = 0;   ///< viable dies that never reach the capacity target

  std::vector<u64> floor_hist;     ///< per level: dies with that min-VDD
  std::vector<u64> spcs_hist;      ///< per level: dies SPCS-binned there
  std::vector<u64> capacity_hist;  ///< kPopulationCapacityBins bins over [0,1]
  /// Joint (spcs_level, floor_level) counts, flattened spcs-major:
  /// index (s-1)*levels + (f-1). Feeds the per-bin DPCS ladder table.
  std::vector<u64> bin_floor_hist;

  bool operator==(const PopulationResult&) const = default;

  u32 num_levels() const noexcept { return static_cast<u32>(grid.size()); }
  u64 usable() const noexcept { return num_chips - unusable; }

  /// Dies viable at `level` (1-based): prefix sum of floor_hist.
  u64 viable_at(u32 level) const noexcept;
  /// Fleet yield at `level`: viable_at / num_chips.
  double yield_at(u32 level) const noexcept;

  /// Mean ladder voltage of a per-level histogram (0 if empty).
  Volt mean_vdd(const std::vector<u64>& level_hist) const noexcept;
  /// Smallest ladder voltage with cumulative fraction >= q (0 if empty).
  Volt quantile_vdd(const std::vector<u64>& level_hist,
                    double q) const noexcept;

  /// Elementwise accumulation of a shard result (grids must match).
  void merge(const PopulationResult& shard);
};

/// A zeroed PopulationResult shaped for `grid` (shard parts, grid points,
/// and the checkpoint loader all start from this).
PopulationResult make_empty_population_result(std::vector<Volt> grid);

/// Folds one die into the histograms.
void accumulate_chip(PopulationResult& r, const ChipBinPoint& p);

/// Shard-range checkpointing (POPULATION.md "checkpoint / resume"). With a
/// non-empty `path` the engine serializes the merged integer histograms
/// plus a completed-shard watermark to the sidecar after every
/// `every_shards` merged shards and once at run end (written to a ".tmp"
/// sibling and renamed into place, so a kill mid-write never corrupts an
/// existing sidecar). With `resume` set it first loads the sidecar -- if
/// present; a missing file just starts fresh -- and skips the completed
/// shard prefix. Because shards merge in shard order with exact integer
/// addition, a resumed run's result and report are byte-identical to an
/// uninterrupted run's. The sidecar carries a fingerprint of the full run
/// description; a sidecar that fails validation (fingerprint mismatch,
/// shape mismatch, truncated/corrupt file, a token that is not an exact
/// u64, a watermark past the end of the run, counts that do not add up to
/// the watermark's dies) is rejected with a stderr warning naming the path
/// and the check, and the run starts fresh -- still byte-identical to an
/// uninterrupted run, with the bad sidecar overwritten by the next save.
struct CheckpointOptions {
  std::string path;       ///< sidecar file; "" disables checkpointing
  u64 every_shards = 16;  ///< save cadence (0 = only the final save)
  bool resume = false;    ///< load the sidecar and skip completed shards
  /// Test hook: invoked after each sidecar write with the watermark value
  /// (kill-mid-run tests _exit() from here to leave a real torn run).
  std::function<void(u64)> on_checkpoint;
};

/// FNV-1a 64 over a canonical run description (engines build the string;
/// the sidecar stores the hash so resumes refuse mismatched runs).
u64 population_fingerprint(std::string_view canonical);

/// One design a fleet run bins every die at.
struct FleetPoint {
  u64 blocks = 0;  ///< cache size, in blocks
  u32 assoc = 0;
  Volt sigma = 0.0;  ///< fail-voltage spread (mu is the run's)
};

/// Runs after each merged shard with the shard's index, its first chip and
/// its per-point results.
using FleetShardHook =
    std::function<void(u64 shard, u64 first_chip,
                       std::span<const PopulationResult> part)>;

/// The fleet run behind both engines: manufactures base.num_chips dies
/// and bins each at every point, returning one merged PopulationResult per
/// point, in point order. `base` supplies the chip count, seed, ladder,
/// SPCS target, shard size and block geometry; its size and assoc are
/// unused. The ladder and one RungCuts table per sigma are built once; the
/// shards fan across `num_threads` workers and merge in shard order, then
/// `after_shard` runs (if set) and the sidecar is saved on the `ckpt`
/// cadence under `fingerprint`. With ckpt->resume the run first resumes
/// from the sidecar (see CheckpointOptions).
std::vector<PopulationResult> run_fleet(const PopulationSpec& base,
                                        std::span<const FleetPoint> points,
                                        double mu, u32 num_threads,
                                        u64 fingerprint,
                                        const CheckpointOptions* ckpt,
                                        const FleetShardHook& after_shard);

/// Runs populations across the deterministic ThreadPool.
class PopulationEngine {
 public:
  /// `ber` must outlive the engine. `num_threads` 0 = pcs_thread_count().
  explicit PopulationEngine(const BerModel& ber, u32 num_threads = 0);

  u32 num_threads() const noexcept { return num_threads_; }
  const BerModel& ber() const noexcept { return *ber_; }

  /// Simulates spec.num_chips dies and returns the merged distributions:
  /// run_fleet at the one point (blocks, assoc, the model's sigma) of
  /// `spec.org`. When `trace` is non-null, one deterministic
  /// `population_shard` record is emitted per shard, in shard order (see
  /// TELEMETRY.md); a resumed run emits records only for the shards it
  /// actually ran. `ckpt` enables shard-range checkpoint/resume (see
  /// CheckpointOptions).
  PopulationResult run(const PopulationSpec& spec, TraceSink* trace = nullptr,
                       const CheckpointOptions* ckpt = nullptr) const;

 private:
  const BerModel* ber_;
  u32 num_threads_;
};

/// Renders the operator-facing binning report (yield curve, min-VDD /
/// SPCS-VDD distributions, per-bin DPCS ladder table) to `out`. The bytes
/// depend only on (spec, result) -- examples/chip_binning and the pcs_sim
/// service mode share this renderer, which is what makes a service job's
/// output byte-identical to the standalone run (POPULATION.md).
void render_population_report(const PopulationSpec& spec,
                              const PopulationResult& result,
                              std::ostream& out);

}  // namespace pcs
