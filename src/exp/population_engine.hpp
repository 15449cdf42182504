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
// The per-chip inner loop is the PR 6 fused Monte-Carlo kernel: one
// CellFaultField::sample_fast draw per die, chip_fail_voltage() for the
// viability floor (one scalar encodes pass/fail at every voltage), and one
// O(1)-per-block histogram pass over the block fail voltages for every
// level's capacity behind the SPCS level search.
#pragma once

#include <functional>
#include <future>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cachemodel/cache_org.hpp"
#include "exp/thread_pool.hpp"
#include "fault/ber_model.hpp"
#include "fault/cell_fault_field.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/types.hpp"

namespace pcs {

/// Capacity-at-floor histogram resolution (fixed bins over [0, 1]).
inline constexpr u32 kPopulationCapacityBins = 100;

/// Longest VDD ladder a population run accepts. Results hold a
/// levels-by-levels histogram, so the cap bounds a run's memory whatever
/// a job line asks for; PopulationSpec::grid() enforces it.
inline constexpr u32 kMaxPopulationLevels = 1024;

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

/// Bins one manufactured die against a VDD ladder: viability floor via the
/// fused fail-voltage kernel, then every level's effective capacity from a
/// single O(1)-per-block histogram pass over the per-block fail voltages
/// (no sort, no dense FaultMap). Exposed for tests and the
/// micro-benchmarks.
ChipBinPoint bin_chip(const CellFaultField& field, const CacheOrg& org,
                      std::span<const Volt> grid, double min_capacity);

/// The histogram half of bin_chip: adds each block's ladder bucket to
/// `rung_counts`, where block b lands in index upper_bound(grid, vf[b]) --
/// the number of ladder rungs at or below its fail voltage (on a finite
/// ladder NaN and +inf land in grid.size(), -inf in 0). O(1) per block: a
/// guess from the mean rung spacing, corrected against the real rungs, so
/// any sorted ladder gets the exact upper_bound bucket. `grid` holds at
/// most kMaxPopulationLevels rungs (std::invalid_argument otherwise);
/// `rung_counts` must have grid.size() + 2 entries, and suffix-summing
/// indices n..1 turns the buckets into per-level faulty counts. Additive,
/// so the grid engine can extend a smaller cache's counts with just the new
/// blocks of the next size up (the draw prefix property, see
/// population_grid.hpp).
void count_fail_rungs(std::span<const float> vf, std::span<const Volt> grid,
                      std::span<u64> rung_counts);

/// The binning half of bin_chip: places a die given its viability-floor
/// scalar `vf_chip` and its suffix-summed per-level faulty counts
/// `faulty_at` (size grid.size() + 2, 1-based levels) for a cache of
/// `num_blocks` blocks. bin_chip == count_fail_rungs + suffix sum + this;
/// the grid engine calls it once per (size, assoc, sigma) point over shared
/// summaries, which is what keeps every grid point bit-identical to its
/// standalone run.
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
/// shape mismatch, truncated/corrupt file) is rejected with a stderr
/// warning and the run starts fresh -- still byte-identical to an
/// uninterrupted run, with the bad sidecar overwritten by the next save.
/// Set `strict_resume` to turn a rejected sidecar into a
/// std::runtime_error instead (operators who would rather stop than
/// silently redo a large run).
struct CheckpointOptions {
  std::string path;       ///< sidecar file; "" disables checkpointing
  u64 every_shards = 16;  ///< save cadence (0 = only the final save)
  bool resume = false;    ///< load the sidecar and skip completed shards
  bool strict_resume = false;  ///< throw on a rejected sidecar (no fallback)
  /// Test hook: invoked after each sidecar write with the watermark value
  /// (kill-mid-run tests _exit() from here to leave a real torn run).
  std::function<void(u64)> on_checkpoint;
};

/// FNV-1a 64 over a canonical run description (engines build the string;
/// the sidecar stores the hash so resumes refuse mismatched runs).
u64 population_fingerprint(std::string_view canonical);

/// Writes a checkpoint sidecar: `parts` is the in-order merged state so
/// far (one entry for PopulationEngine, one per grid point for the grid
/// engine). Atomic via `path`.tmp + rename; throws std::runtime_error on
/// I/O failure.
void save_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64 shards_done,
                                std::span<const PopulationResult> parts);

/// Loads a checkpoint sidecar into `parts` (pre-sized by the caller with
/// empty results whose grids are set; counts are overwritten). Returns
/// false if `path` does not exist; throws std::runtime_error on a corrupt
/// file, a fingerprint mismatch, or a shape mismatch.
bool load_population_checkpoint(const std::string& path, u64 fingerprint,
                                u64& shards_done,
                                std::vector<PopulationResult>& parts);

/// Resume front end over load_population_checkpoint: with `strict` unset, a
/// sidecar the loader rejects (corrupt file, fingerprint mismatch, shape
/// mismatch) produces a stderr warning and a clean start (returns false,
/// `parts`/`shards_done` contents unspecified -- callers discard them on a
/// false return) instead of propagating the exception; with `strict` set
/// the exception passes through. A missing sidecar returns false silently
/// in both modes.
bool try_load_population_checkpoint(const std::string& path, u64 fingerprint,
                                    u64& shards_done,
                                    std::vector<PopulationResult>& parts,
                                    bool strict);

/// Shard scheduler shared by PopulationEngine and PopulationGridEngine:
/// evaluates `shard(s)` for s in [start_shard, num_shards) across the pool
/// and hands the parts to `merge(s, part)` IN SHARD ORDER. (Integer
/// addition makes the merged result order-independent; in-order merging is
/// what gives the checkpoint watermark its "completed prefix" meaning and
/// keeps telemetry emission deterministic.) `save(shards_done)` runs after
/// every ckpt->every_shards merged shards and once at the end of any run
/// that merged at least one shard.
template <class ShardFn, class MergeFn, class SaveFn>
void run_population_shards(u32 num_threads, u64 start_shard, u64 num_shards,
                           const CheckpointOptions* ckpt, ShardFn&& shard,
                           MergeFn&& merge, SaveFn&& save) {
  const bool checkpointing = ckpt != nullptr && !ckpt->path.empty();
  const u64 every = checkpointing ? ckpt->every_shards : 0;
  u64 since_save = 0;
  const auto after_merge = [&](u64 shards_done) {
    if (!checkpointing) return;
    ++since_save;
    if ((every != 0 && since_save >= every) || shards_done == num_shards) {
      save(shards_done);
      since_save = 0;
      if (ckpt->on_checkpoint) ckpt->on_checkpoint(shards_done);
    }
  };
  if (num_threads <= 1) {
    for (u64 s = start_shard; s < num_shards; ++s) {
      merge(s, shard(s));
      after_merge(s + 1);
    }
    return;
  }
  using Part = std::invoke_result_t<ShardFn&, u64>;
  ThreadPool pool(num_threads);
  std::vector<std::future<Part>> futures;
  futures.reserve(static_cast<std::size_t>(num_shards - start_shard));
  for (u64 s = start_shard; s < num_shards; ++s) {
    futures.push_back(pool.submit([&shard, s] { return shard(s); }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    merge(start_shard + i, futures[i].get());
    after_merge(start_shard + i + 1);
  }
}

/// Runs populations across the deterministic ThreadPool.
class PopulationEngine {
 public:
  /// `ber` must outlive the engine. `num_threads` 0 = pcs_thread_count().
  explicit PopulationEngine(const BerModel& ber, u32 num_threads = 0);

  u32 num_threads() const noexcept { return num_threads_; }
  const BerModel& ber() const noexcept { return *ber_; }

  /// Simulates spec.num_chips dies and returns the merged distributions.
  /// When `trace` is non-null, one deterministic `population_shard` record
  /// is emitted per shard, in shard order (see TELEMETRY.md); a resumed run
  /// emits records only for the shards it actually ran. `ckpt` enables
  /// shard-range checkpoint/resume (see CheckpointOptions).
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
