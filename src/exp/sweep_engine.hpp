// Lane-parallel multi-configuration sweep engine.
//
// The figure sweeps are grids of cache configurations evaluated over the
// SAME synthetic address stream: Fig. 4 replays each workload once per
// (config x policy) cell, so the scalar ExperimentRunner decodes every
// trace event #configs times. This engine decodes each event ONCE and
// replays it into N resident configurations ("lanes"):
//
//   * Tier A -- CacheLaneSweep: N bare CacheLevels (one per lane) packed
//     into a single CacheArena, updated per decoded CacheOp. This is the
//     unit the randomized differential suite pins against the scalar
//     CacheLevel, and what examples/voltage_explorer --sweep-lanes drives.
//
//   * Tier B -- SweepRunner: full PcsSystems as lanes. Grid points that
//     share (workload, trace_seed, RunParams) form a GROUP (the synthetic
//     trace is a pure function of (spec, seed), so their event streams are
//     identical); groups split into shards of at most max_lanes lanes, and
//     shards fan across the deterministic ThreadPool -- lanes within a
//     task, shards across tasks. Each lane's operation sequence is exactly
//     the scalar PcsSystem::run() sequence (decoded event -> step ->
//     controller ticks), so every SimReport is bit-identical to
//     ExperimentRunner's, at any thread count and any lane count.
//
// Determinism argument (DESIGN.md section 12): lanes never share mutable
// state -- each owns its hierarchy, controllers, meters, and RNG-derived
// fault maps; the shared trace generator is read-only broadcast after
// decode. Shard composition depends only on the grid and max_lanes, never
// on the thread count, and reports are deposited by grid index. Telemetry
// follows the experiment-runner discipline: per-lane buffered sinks
// replayed in grid order (deterministic section byte-identical to the
// scalar engine's), profiling records appended after (see TELEMETRY.md:
// sweep_task_profile / sweep_profile).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_arena.hpp"
#include "cache/cache_level.hpp"
#include "exp/experiment_runner.hpp"

namespace pcs {

// ---- Tier A: bare cache-level lanes ---------------------------------------

/// One decoded operation, applied to every lane of a CacheLaneSweep.
struct CacheOp {
  enum class Kind : u8 {
    kAccess,      ///< demand read/write of `addr`
    kWriteback,   ///< writeback of `addr` arriving from above
    kSetFaulty,   ///< mark (set % lane_sets, way % lane_assoc) per `faulty`
    kInvalidate,  ///< invalidate (set % lane_sets, way % lane_assoc)
  };
  Kind kind = Kind::kAccess;
  bool write = false;   ///< kAccess only
  bool faulty = false;  ///< kSetFaulty only
  u64 addr = 0;         ///< kAccess / kWriteback
  u64 set = 0;          ///< kSetFaulty / kInvalidate (reduced per lane)
  u32 way = 0;          ///< kSetFaulty / kInvalidate (reduced per lane)
};

/// N independent CacheLevels sharing one arena, driven op by op.
///
/// Lanes may differ in geometry and replacement policy; set/way-addressed
/// ops are reduced modulo each lane's own shape so one op stream exercises
/// every lane. step() and replay() apply the identical per-lane operation
/// sequence -- replay() only reorders ACROSS lanes (lane-major over a
/// block, replacement dispatch hoisted per lane), which is invisible to
/// per-lane state, stats, and results.
class CacheLaneSweep {
 public:
  struct LaneSpec {
    std::string name;
    CacheOrg org;
    const char* replacement = "lru";
  };

  explicit CacheLaneSweep(const std::vector<LaneSpec>& lanes);

  u32 num_lanes() const noexcept { return static_cast<u32>(lanes_.size()); }
  CacheLevel& lane(u32 i) noexcept { return lanes_[i]; }
  const CacheLevel& lane(u32 i) const noexcept { return lanes_[i]; }

  /// Applies `op` to every lane. When `results` is non-null it receives
  /// one AccessResult per lane (zeroed for non-access kinds).
  void step(const CacheOp& op, CacheLevel::AccessResult* results = nullptr);

  /// Applies a block of ops to every lane (the throughput path).
  void replay(const CacheOp* ops, u64 n);

 private:
  template <CacheLevel::ReplKind K>
  void replay_lane(CacheLevel& c, const CacheOp* ops, u64 n);
  static void apply_side_op(CacheLevel& c, const CacheOp& op);

  CacheArena arena_;
  std::vector<CacheLevel> lanes_;
};

// ---- Tier B: full-system grouped sweep ------------------------------------

/// Knobs for SweepRunner.
struct SweepOptions {
  u32 num_threads = 1;  ///< 0 = pcs_thread_count()
  u32 max_lanes = 16;   ///< lanes (grid points) per shard/task
};

/// Executes expanded experiment grids with shared trace decode.
///
/// Drop-in for ExperimentRunner::run: same inputs, bit-identical
/// SimReports (asserted by tests/test_sweep_equivalence.cpp and the golden
/// figure regressions), byte-identical deterministic trace section.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& opt = {});

  u32 num_threads() const noexcept { return num_threads_; }
  u32 max_lanes() const noexcept { return max_lanes_; }

  std::vector<SimReport> run(const ExperimentGrid& grid,
                             TraceSink* trace = nullptr,
                             RunnerStats* stats = nullptr) const;
  std::vector<SimReport> run(std::vector<ExperimentPoint> points,
                             TraceSink* trace = nullptr,
                             RunnerStats* stats = nullptr) const;

 private:
  u32 num_threads_;
  u32 max_lanes_;
};

// ---- Die fail voltage (the Fig. 3d fold) ----------------------------------

/// Fail voltage of one manufactured die: the max over sets of the min over
/// ways of its block fail voltages `vf` (vf.size() must be a multiple of
/// assoc) -- one scalar encodes the die's pass/fail at every probe
/// voltage. Bit-identical to the original bench/fig3_yield loop (a per-set
/// std::min from 2.0f, then a std::max from +0.0f in set order) although
/// it folds several sets side by side. The library bins dies from their
/// draws instead (RungCuts::floor_bucket is this fold over buckets); this
/// serves callers that hold fail voltages, such as the chain-composition
/// oracle.
float chip_fail_voltage(std::span<const float> vf, u32 assoc);

}  // namespace pcs
