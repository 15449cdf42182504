#include "multicore/multi_hierarchy.hpp"

#include <string>

namespace pcs {

MultiHierarchy::MultiHierarchy(const MultiHierarchyConfig& cfg) : cfg_(cfg) {
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    l1i_.push_back(std::make_unique<CacheLevel>(
        "L1I" + std::to_string(c), cfg.l1i, cfg.l1_hit_latency,
        cfg.replacement));
    l1d_.push_back(std::make_unique<CacheLevel>(
        "L1D" + std::to_string(c), cfg.l1d, cfg.l1_hit_latency,
        cfg.replacement));
  }
  l2_ = std::make_unique<CacheLevel>("L2", cfg.l2, cfg.l2_hit_latency,
                                     cfg.replacement);
}

void MultiHierarchy::l2_receive_writeback(u64 addr) {
  const auto wb = l2_->receive_writeback(addr);
  if (wb.writeback) ++mem_writes_;
  if (wb.bypassed) ++mem_writes_;
}

void MultiHierarchy::l2_access(u64 addr, bool write, AccessOutcome& out) {
  out.latency += cfg_.l2_hit_latency;
  const auto r2 = l2_->access(addr, write);
  out.l2_hit = r2.hit;
  if (!r2.hit) {
    out.latency += cfg_.mem_latency;
    out.mem_access = true;
    ++mem_reads_;
  }
  if (r2.writeback) ++mem_writes_;
  if (r2.bypassed && write) ++mem_writes_;
}

bool MultiHierarchy::snoop_remote(u32 requester, u64 addr, bool for_store,
                                  AccessOutcome& out) {
  bool found = false;
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    if (c == requester) continue;
    CacheLevel& remote = *l1d_[c];
    const int way = remote.find_way(addr);
    if (way < 0) continue;
    found = true;
    const u64 set = remote.set_of(addr);
    const bool dirty = remote.is_dirty(set, static_cast<u32>(way));
    if (for_store) {
      // BusRdX: the remote copy dies; dirty data drains to the shared L2.
      if (remote.invalidate(set, static_cast<u32>(way))) {
        l2_receive_writeback(addr);
      }
      ++coherence_.invalidations_sent;
    } else if (dirty) {
      // BusRd intervention: the M copy is flushed to L2 and downgraded to
      // a shared clean copy.
      l2_receive_writeback(addr);
      remote.clean_line(set, static_cast<u32>(way));
      ++coherence_.interventions;
    }
  }
  if (found) {
    ++coherence_.bus_transactions;
    out.latency += cfg_.snoop_latency;
  }
  return found;
}

AccessOutcome MultiHierarchy::access(u32 core, const MemRef& ref) {
  AccessOutcome out;
  CacheLevel& l1 = ref.ifetch ? *l1i_[core] : *l1d_[core];

  out.latency += cfg_.l1_hit_latency;

  if (!ref.ifetch) {
    if (ref.write) {
      // Stores must own the line exclusively: kill every remote copy.
      // (A real MSI design skips the broadcast when the line is already in
      // M; our L1 state cannot distinguish M from S on a hit, so the snoop
      // filter is the remote probe itself — only found copies cost time.)
      snoop_remote(core, ref.addr, /*for_store=*/true, out);
    } else if (!l1.probe(ref.addr)) {
      // Load miss: fetch the freshest data — flush any remote dirty copy
      // into the shared L2 before reading it.
      snoop_remote(core, ref.addr, /*for_store=*/false, out);
    }
  }

  const auto r1 = l1.access(ref.addr, ref.write);
  out.l1_hit = r1.hit;

  if (r1.writeback) l2_receive_writeback(r1.writeback_addr);

  if (!r1.hit) {
    l2_access(ref.addr, false, out);
    if (r1.bypassed && ref.write) {
      // The store could not allocate in L1, so L2 captures its data with a
      // write access. A dirty victim that evicts, or the data itself when
      // the L2 set is all faulty too, must reach memory (as in Hierarchy).
      const auto r2 = l2_->access(ref.addr, true);
      if (r2.writeback) ++mem_writes_;
      if (r2.bypassed) ++mem_writes_;
    }
  }
  return out;
}

void MultiHierarchy::writeback_from(CacheLevel& from, u64 addr) {
  if (&from == l2_.get()) {
    ++mem_writes_;
    return;
  }
  l2_receive_writeback(addr);
}

}  // namespace pcs
