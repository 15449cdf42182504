// The compressed multi-VDD fault map at the heart of the PCS mechanism.
//
// Because voltage-induced SRAM faults obey the fault-inclusion property
// (a bit faulty at some VDD is faulty at all lower VDDs), a single small code
// per block -- the lowest non-faulty VDD level -- captures the block's fault
// behaviour at *every* allowed level. For N allowed data VDD levels the code
// needs only ceil(log2(N+1)) bits per block (paper section 3.1), versus one
// full bitmap per level for schemes like FFT-Cache.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace pcs {

class BerModel;
class Rng;

/// Immutable per-block fault codes for a fixed ladder of VDD levels.
///
/// Levels are indexed 1..N from the lowest voltage (VDD1) to the highest
/// (VDDN = nominal). A block's code f means: the block is faulty at levels
/// 1..f and non-faulty at levels f+1..N; f = 0 means never faulty.
class FaultMap {
 public:
  /// Most levels a map holds: codes are u8.
  static constexpr u32 kMaxLevels = 255;

  /// Builds from measured per-block failure voltages (e.g. BIST output):
  /// block b is faulty at level L iff float(levels[L-1]) <= vf[b].
  /// `levels_ascending` must be 1..kMaxLevels strictly ascending voltages
  /// (std::invalid_argument otherwise).
  ///
  /// `assoc_hint` (optional): the set associativity the map will be queried
  /// with.  When non-zero, the build precomputes each set's minimum code and
  /// the maximum of those minima, collapsing viable(assoc_hint, level) to a
  /// single comparison and lowest_level_with_capacity to O(levels).  Queries
  /// with a different assoc fall back to the reference scan.
  FaultMap(std::vector<Volt> levels_ascending,
           std::span<const float> block_fail_voltages, u32 assoc_hint = 0);

  /// Manufactures a die's map: the map FaultMap(levels, CellFaultField::
  /// sample_fast(ber, num_blocks, bits_per_block, rng).fail_voltages(),
  /// assoc_hint) builds, code for code, with `rng` left in the same state.
  /// Draws the same uniforms (Rng::uniform_bits_block) but buckets each
  /// block from its draw with RungCuts over the float-rounded levels, so
  /// the order-statistic chain runs only for draws next to a cut.
  static FaultMap sample(std::vector<Volt> levels_ascending,
                         const BerModel& ber, u64 num_blocks,
                         u32 bits_per_block, u32 assoc_hint, Rng& rng);

  u32 num_levels() const noexcept { return static_cast<u32>(levels_.size()); }
  u64 num_blocks() const noexcept { return code_.size(); }
  Volt level_vdd(u32 level) const noexcept { return levels_[level - 1]; }
  const std::vector<Volt>& levels() const noexcept { return levels_; }

  /// Fault-map code of a block (0..N).
  u8 code(u64 block) const noexcept { return code_[block]; }

  /// True if `block` must be disabled when the data array runs at `level`.
  bool faulty_at(u64 block, u32 level) const noexcept {
    return level <= code_[block];
  }

  /// Number of faulty blocks at a level.
  u64 faulty_count(u32 level) const noexcept;

  /// Fraction of usable blocks at a level.
  double effective_capacity(u32 level) const noexcept;

  /// True if, with blocks laid out set-major (block = set*assoc + way),
  /// every set keeps at least one non-faulty block at `level` -- the
  /// viability constraint of the mechanism (section 3.1).
  ///
  /// O(1) when `assoc` matches the construction-time assoc_hint: a set is
  /// all-faulty at `level` iff level <= min(code in set), so the map is
  /// viable iff level > max over sets of that minimum (fault inclusion makes
  /// this exact, see DESIGN.md section 11).  Otherwise O(sets * assoc).
  bool viable(u32 assoc, u32 level) const noexcept;

  /// The original per-set scan, kept as the executable spec viable() is
  /// differentially tested against (tests/test_fault_equivalence).
  bool viable_reference(u32 assoc, u32 level) const noexcept;

  /// Associativity the O(1) viability summary was built for (0 = none).
  u32 assoc_hint() const noexcept { return assoc_hint_; }

  /// Lowest viable level with effective capacity >= `min_capacity`
  /// (0 if none) -- the SPCS selection applied to one manufactured chip.
  u32 lowest_level_with_capacity(u32 assoc, double min_capacity) const noexcept;

  /// FM bits per block needed to encode N levels: ceil(log2(N+1)).
  static u32 fm_bits_for_levels(u32 num_levels) noexcept;

  /// Total metadata storage: FM bits plus the one Faulty bit, per block.
  u64 storage_bits() const noexcept;

 private:
  /// Validates the levels; code_ is left empty.
  FaultMap(std::vector<Volt> levels_ascending, u32 assoc_hint);
  /// The level thresholds codes count: float(levels[l]).
  std::vector<float> thresholds() const;
  /// Per-level faulty counts from the code histogram (num_levels + 1
  /// entries) and the viability summary from code_.
  void summarize(std::span<const u64> code_hist);

  std::vector<Volt> levels_;
  std::vector<u8> code_;
  std::vector<u64> faulty_at_level_;  // index L-1 -> count of code >= L
  u32 assoc_hint_ = 0;
  u8 max_min_code_ = 0;  // max over sets of min(code in set), for assoc_hint_
};

}  // namespace pcs
