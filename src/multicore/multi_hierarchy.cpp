#include "multicore/multi_hierarchy.hpp"

namespace pcs {

MultiHierarchy::MultiHierarchy(const MultiHierarchyConfig& cfg)
    : snoop_latency_(cfg.snoop_latency) {
  const HierarchyConfig& lv = cfg.levels;
  l2_ = std::make_unique<CacheLevel>("L2", lv.l2, lv.l2_hit_latency,
                                     lv.replacement);
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    cores_.push_back(std::make_unique<Hierarchy>(lv, *l2_));
  }
}

u64 MultiHierarchy::mem_reads() const noexcept {
  u64 n = 0;
  for (const auto& h : cores_) n += h->mem_reads();
  return n;
}

u64 MultiHierarchy::mem_writes() const noexcept {
  u64 n = 0;
  for (const auto& h : cores_) n += h->mem_writes();
  return n;
}

Cycle MultiHierarchy::snoop_remote(u32 requester, u64 addr, bool for_store) {
  bool found = false;
  for (u32 c = 0; c < cores_.size(); ++c) {
    if (c == requester) continue;
    CacheLevel& remote = cores_[c]->l1d();
    const int way = remote.find_way(addr);
    if (way < 0) continue;
    found = true;
    const u64 set = remote.set_of(addr);
    const bool dirty = remote.is_dirty(set, static_cast<u32>(way));
    if (for_store) {
      // BusRdX: the remote copy dies; dirty data drains to the shared L2.
      if (remote.invalidate(set, static_cast<u32>(way))) {
        cores_[c]->writeback_from(remote, addr);
      }
      ++coherence_.invalidations_sent;
    } else if (dirty) {
      // BusRd intervention: the M copy is flushed to L2 and downgraded to
      // a shared clean copy.
      cores_[c]->writeback_from(remote, addr);
      remote.clean_line(set, static_cast<u32>(way));
      ++coherence_.interventions;
    }
  }
  if (!found) return 0;
  ++coherence_.bus_transactions;
  return snoop_latency_;
}

AccessOutcome MultiHierarchy::access(u32 core, const MemRef& ref) {
  Cycle snoop = 0;
  if (!ref.ifetch) {
    if (ref.write) {
      // Stores must own the line exclusively: kill every remote copy.
      // (A real MSI design skips the broadcast when the line is already in
      // M; our L1 state cannot distinguish M from S on a hit, so the snoop
      // filter is the remote probe itself — only found copies cost time.)
      snoop = snoop_remote(core, ref.addr, /*for_store=*/true);
    } else if (!cores_[core]->l1d().probe(ref.addr)) {
      // Load miss: fetch the freshest data — flush any remote dirty copy
      // into the shared L2 before reading it.
      snoop = snoop_remote(core, ref.addr, /*for_store=*/false);
    }
  }
  AccessOutcome out = cores_[core]->access(ref);
  out.latency += snoop;
  return out;
}

}  // namespace pcs
