// Two-level cache hierarchy: split L1 (I/D) backed by a unified L2 and a
// fixed-latency DRAM model -- the memory system of the paper's gem5 runs
// (Table 1: L1 split + L2, one DDR3 channel), simplified to blocking caches
// (see DESIGN.md section 4 for the CPU-model substitution).
//
// This is the one L1 -> L2 -> DRAM routing. A single-core system owns its
// L2; each core of the multi-core hierarchy (src/multicore) is a Hierarchy
// that borrows one L2 shared with the other cores.
#pragma once

#include <memory>

#include "cache/cache_level.hpp"
#include "cache/mem_ref.hpp"
#include "util/types.hpp"

namespace pcs {

/// Sentinel for Hierarchy::access_t: dispatch replacement per call via the
/// public CacheLevel entry points instead of binding one ReplKind.
inline constexpr int kReplDynamic = -1;

/// Hierarchy construction parameters.
struct HierarchyConfig {
  CacheOrg l1i{32 * 1024, 4, 64, 31};
  CacheOrg l1d{32 * 1024, 4, 64, 31};
  CacheOrg l2{2 * 1024 * 1024, 8, 64, 31};
  u32 l1_hit_latency = 2;
  u32 l2_hit_latency = 4;
  u32 mem_latency = 120;
  const char* replacement = "lru";
};

/// Timing + routing outcome of one memory reference.
struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  bool mem_access = false;
};

/// Non-inclusive, write-back, write-allocate two-level hierarchy.
class Hierarchy final {
 public:
  /// When `arena` is non-null the three levels carve their state from it
  /// (reserve() it with storage_spec() first); see cache_arena.hpp.
  explicit Hierarchy(const HierarchyConfig& cfg, CacheArena* arena = nullptr);

  /// One core's private L1s over `shared_l2`, an L2 that other cores'
  /// hierarchies use too; it must outlive this one. cfg.l2 goes unused: the
  /// shared L2 has its own organisation. The L1, L2 and DRAM latencies
  /// still come from `cfg`, and the DRAM counters count this core's share.
  Hierarchy(const HierarchyConfig& cfg, CacheLevel& shared_l2);

  /// Arena slab footprint of all three levels of `cfg`.
  static CacheArena::Spec storage_spec(const HierarchyConfig& cfg);

  /// Performs one demand reference end-to-end (fills, writebacks, DRAM).
  AccessOutcome access(const MemRef& ref);

  /// Single-definition access path; access() == access_t<kReplDynamic>.
  /// Instantiate with a CacheLevel::ReplKind value (only when all three
  /// levels share it) to bind the replacement dispatch at compile time --
  /// bodies in hierarchy_inl.hpp.
  template <int K>
  AccessOutcome access_t(const MemRef& ref);

  CacheLevel& l1i() noexcept { return *l1i_; }
  CacheLevel& l1d() noexcept { return *l1d_; }
  CacheLevel& l2() noexcept { return *l2_; }
  const CacheLevel& l1i() const noexcept { return *l1i_; }
  const CacheLevel& l1d() const noexcept { return *l1d_; }
  const CacheLevel& l2() const noexcept { return *l2_; }

  /// DRAM traffic counters.
  u64 mem_reads() const noexcept { return mem_reads_; }
  u64 mem_writes() const noexcept { return mem_writes_; }

  u32 mem_latency() const noexcept { return cfg_.mem_latency; }
  const HierarchyConfig& config() const noexcept { return cfg_; }

  /// Routes a block flushed outside the demand path (the PCS transition
  /// procedure): L1 flushes land in L2; L2 flushes go to DRAM.
  void writeback_from(CacheLevel& from, u64 addr);

 private:
  template <int K>
  void l2_access_t(u64 addr, bool write, AccessOutcome& out);

  HierarchyConfig cfg_;
  std::unique_ptr<CacheLevel> l1i_;
  std::unique_ptr<CacheLevel> l1d_;
  CacheLevel* l2_;  ///< owned_l2_ or the L2 shared with other cores
  u64 mem_reads_ = 0;
  u64 mem_writes_ = 0;
  std::unique_ptr<CacheLevel> owned_l2_;  ///< null when the L2 is shared
};

}  // namespace pcs
