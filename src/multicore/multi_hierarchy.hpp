// Multi-core memory system: per-core private L1I/L1D caches kept coherent
// by an MSI snooping protocol over a shared bus, backed by one shared L2
// and a fixed-latency DRAM.
//
// This implements the paper's named future-work direction ("a broader
// design space exploration involving multi-core systems with consideration
// of cache coherence"). Each core is a single-core Hierarchy whose L2 is
// the one shared L2, so the L1 -> L2 -> DRAM routing (fills, writebacks,
// bypassed stores, DRAM counts) is Hierarchy's own; this class adds only
// the bus. The coherence protocol is a bus-snooping MSI:
//   * a store miss (or a store hit on a potentially shared line) broadcasts
//     an invalidation that removes the block from every other L1D;
//   * a load miss that finds a dirty copy in a remote L1D forces that copy
//     to be written back to the shared L2 (through its own core's
//     hierarchy) before the fill;
//   * L1I caches hold read-only code and never need invalidation (cores
//     run disjoint code segments).
// Each bus transaction costs `snoop_latency` cycles on the requester.
#pragma once

#include <memory>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/hierarchy.hpp"
#include "cache/mem_ref.hpp"
#include "util/types.hpp"

namespace pcs {

/// Construction parameters for the multi-core system. `levels` gives every
/// core's L1s, the shared L2's organisation and all latencies.
struct MultiHierarchyConfig {
  HierarchyConfig levels;
  u32 num_cores = 2;
  u32 snoop_latency = 12;  ///< bus round trip for an invalidate / intervention
};

/// Coherence-event counters.
struct CoherenceStats {
  u64 invalidations_sent = 0;   ///< remote L1D copies killed by stores
  u64 interventions = 0;        ///< dirty remote copies flushed for a load
  u64 bus_transactions = 0;     ///< total snoops that found a remote copy
};

/// Shared-L2 multi-core hierarchy with MSI-snooped private L1s.
class MultiHierarchy {
 public:
  explicit MultiHierarchy(const MultiHierarchyConfig& cfg);

  /// One demand reference from `core`: the snoop, then the core's own
  /// Hierarchy access, then the snoop's bus latency.
  AccessOutcome access(u32 core, const MemRef& ref);

  /// Core `c`'s hierarchy: its private L1s over the shared L2. PCS flushes
  /// of its L1s route through it (and the shared L2's through core 0's).
  Hierarchy& core(u32 c) noexcept { return *cores_[c]; }
  CacheLevel& l1d(u32 c) noexcept { return cores_[c]->l1d(); }
  CacheLevel& l2() noexcept { return *l2_; }
  const CoherenceStats& coherence() const noexcept { return coherence_; }
  /// DRAM traffic summed over the cores.
  u64 mem_reads() const noexcept;
  u64 mem_writes() const noexcept;

 private:
  /// Invalidate (store) or downgrade (load) `addr` in every L1D except
  /// `requester`'s; dirty copies drain to the shared L2 through their own
  /// core's hierarchy. Returns the bus latency: snoop_latency when any
  /// remote copy existed, else 0.
  Cycle snoop_remote(u32 requester, u64 addr, bool for_store);

  u32 snoop_latency_;
  std::unique_ptr<CacheLevel> l2_;
  std::vector<std::unique_ptr<Hierarchy>> cores_;
  CoherenceStats coherence_;
};

}  // namespace pcs
