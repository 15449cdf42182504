// Tests for the multi-core extension: MSI coherence, the interleaved
// multi-core clock, and PCS over a shared L2.
#include "multicore/multi_system.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

MultiHierarchyConfig tiny_mc(u32 cores) {
  MultiHierarchyConfig cfg;
  cfg.num_cores = cores;
  cfg.levels.l1i = {4 * 1024, 2, 64, 31};
  cfg.levels.l1d = {4 * 1024, 2, 64, 31};
  cfg.levels.l2 = {64 * 1024, 4, 64, 31};
  cfg.levels.l1_hit_latency = 2;
  cfg.levels.l2_hit_latency = 6;
  cfg.levels.mem_latency = 100;
  cfg.snoop_latency = 10;
  return cfg;
}

TEST(MultiHierarchy, PrivateL1sSharedL2) {
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x10000, false, false});
  EXPECT_EQ(h.l1d(0).stats().accesses, 1u);
  EXPECT_EQ(h.l1d(1).stats().accesses, 0u);
  // Core 1 misses its own L1 but hits the shared L2.
  const auto out = h.access(1, {0x10000, false, false});
  EXPECT_FALSE(out.l1_hit);
  EXPECT_TRUE(out.l2_hit);
}

TEST(MultiHierarchy, StoreInvalidatesRemoteCopies) {
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x10000, false, false});  // core 0 caches the block
  ASSERT_TRUE(h.l1d(0).probe(0x10000));
  h.access(1, {0x10000, true, false});  // core 1 writes it
  EXPECT_FALSE(h.l1d(0).probe(0x10000));  // core 0's copy is gone
  EXPECT_TRUE(h.l1d(1).probe(0x10000));
  EXPECT_EQ(h.coherence().invalidations_sent, 1u);
}

TEST(MultiHierarchy, NoStaleReadAfterRemoteWrite) {
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x10000, false, false});
  h.access(1, {0x10000, true, false});  // invalidates core 0
  // Core 0 re-reads: MUST miss its L1 (the hit would be stale data).
  const auto out = h.access(0, {0x10000, false, false});
  EXPECT_FALSE(out.l1_hit);
}

TEST(MultiHierarchy, LoadMissFlushesRemoteDirtyCopy) {
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x10000, true, false});  // core 0 holds the block dirty (M)
  const u64 set = h.l1d(0).set_of(0x10000);
  const int way = h.l1d(0).find_way(0x10000);
  ASSERT_GE(way, 0);
  ASSERT_TRUE(h.l1d(0).is_dirty(set, static_cast<u32>(way)));

  const auto out = h.access(1, {0x10000, false, false});  // core 1 reads
  EXPECT_EQ(h.coherence().interventions, 1u);
  // The M copy was written back to L2, so core 1's miss hits L2.
  EXPECT_TRUE(out.l2_hit);
  // Core 0 keeps a clean (shared) copy.
  EXPECT_TRUE(h.l1d(0).probe(0x10000));
  EXPECT_FALSE(h.l1d(0).is_dirty(set, static_cast<u32>(way)));
}

TEST(MultiHierarchy, SnoopLatencyExplicit) {
  // Same store, with and without a remote (clean) copy. The block is in L2
  // both times; only the snoop cost differs.
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x10000, false, false});   // L2 + core0 L1 now hold it
  const auto hit_remote = h.access(1, {0x10000, true, false});

  MultiHierarchy h2(tiny_mc(2));
  h2.access(1, {0x10000, false, false});  // warm L2 via core 1 itself
  h2.l1d(1).reset();                      // drop the local copy, keep L2
  const auto no_remote = h2.access(1, {0x10000, true, false});
  EXPECT_EQ(hit_remote.latency, no_remote.latency + 10);
}

TEST(MultiHierarchy, IfetchNeverSnoops) {
  MultiHierarchy h(tiny_mc(2));
  h.access(0, {0x400, false, true});
  h.access(1, {0x400, false, true});
  EXPECT_EQ(h.coherence().bus_transactions, 0u);
}

TEST(MultiHierarchy, PcsWritebackRouting) {
  MultiHierarchy h(tiny_mc(2));
  h.core(0).writeback_from(h.l1d(0), 0x5000);
  EXPECT_EQ(h.l2().stats().writebacks_in, 1u);
  h.core(0).writeback_from(h.l2(), 0x5000);
  EXPECT_EQ(h.mem_writes(), 1u);
}

TEST(MultiHierarchy, BypassStoreCountsL2DirtyEviction) {
  MultiHierarchy h(tiny_mc(1));
  // Poison every way of the L1D set for 0x0000 so the store bypasses L1.
  const u64 l1set = h.l1d(0).set_of(0x0000);
  h.l1d(0).set_block_faulty(l1set, 0, true);
  h.l1d(0).set_block_faulty(l1set, 1, true);
  // Fill the L2 set of 0x0000 with dirty blocks so the fill the bypass
  // store triggers must evict one. L2: 64 KB / 4-way -> 256 sets, set
  // stride 256*64 = 0x4000.
  for (u64 i = 1; i <= 4; ++i) h.l2().receive_writeback(i * 0x4000);
  const u64 w0 = h.mem_writes();
  h.access(0, {0x0000, true, false});  // bypass store
  // The L2 fill evicted one dirty victim; its data must reach DRAM.
  EXPECT_EQ(h.mem_writes(), w0 + 1);
  EXPECT_GE(h.l2().stats().writes, 1u);  // store captured by L2
}

TEST(MultiHierarchy, BypassStoreThroughAllFaultyL2ReachesMemory) {
  MultiHierarchy h(tiny_mc(1));
  // Every way faulty in both the L1D and L2 sets of 0x0000: the dirty data
  // is uncacheable anywhere and must be counted as a DRAM write.
  const u64 l1set = h.l1d(0).set_of(0x0000);
  h.l1d(0).set_block_faulty(l1set, 0, true);
  h.l1d(0).set_block_faulty(l1set, 1, true);
  const u64 l2set = h.l2().set_of(0x0000);
  for (u32 w = 0; w < 4; ++w) h.l2().set_block_faulty(l2set, w, true);
  const u64 w0 = h.mem_writes();
  h.access(0, {0x0000, true, false});
  EXPECT_EQ(h.mem_writes(), w0 + 1);
}

TEST(MultiCpu, ClockSemantics) {
  MultiCpu cpu(3);
  cpu.advance(0, 100);
  cpu.advance(1, 50);
  EXPECT_EQ(cpu.cycles(), 0u);      // core 2 is the front
  EXPECT_EQ(cpu.next_core(), 2u);
  cpu.advance(2, 200);
  EXPECT_EQ(cpu.cycles(), 50u);     // now core 1 lags
  EXPECT_EQ(cpu.wall_cycles(), 200u);
  cpu.add_stall(10);                // shared stall hits everyone
  EXPECT_EQ(cpu.cycles(), 60u);
  cpu.close();
  EXPECT_EQ(cpu.cycles(), cpu.wall_cycles());
}

TEST(MultiCpu, StoppedCoreLeavesTheFront) {
  MultiCpu cpu(3);
  cpu.advance(0, 100);
  cpu.advance(1, 50);
  cpu.advance(2, 200);
  cpu.set_running(1, false);        // core 1 finished its share
  EXPECT_EQ(cpu.next_core(), 0u);
  EXPECT_EQ(cpu.cycles(), 100u);    // the front moves on without it
  cpu.add_stall(10);                // stalls still charge every core
  EXPECT_EQ(cpu.core_cycles(1), 60u);
  EXPECT_EQ(cpu.cycles(), 110u);
  cpu.set_running(0, false);
  cpu.set_running(2, false);
  EXPECT_EQ(cpu.next_core(), 3u);   // nothing runs
  EXPECT_EQ(cpu.cycles(), cpu.wall_cycles());
  cpu.set_running(1, true);
  EXPECT_EQ(cpu.next_core(), 1u);
  EXPECT_EQ(cpu.cycles(), 60u);
}

// ---------------------------------------------------------------------------

MultiSystemConfig quick_cfg(u32 cores) {
  MultiSystemConfig mc;
  mc.base = SystemConfig::config_a();
  mc.num_cores = cores;
  return mc;
}

RunParams quick_params() {
  RunParams p;
  p.max_refs = 60'000;   // per core
  p.warmup_refs = 15'000;
  return p;
}

MultiSimReport run_mc(u32 cores, PolicyKind kind, double shared_frac = 0.0) {
  MultiPcsSystem sys(quick_cfg(cores), kind, 1);
  std::vector<std::unique_ptr<SyntheticTrace>> traces;
  std::vector<TraceSource*> ptrs;
  for (u32 c = 0; c < cores; ++c) {
    WorkloadSpec w = spec_profile(c % 2 == 0 ? "hmmer" : "gcc");
    // Distinct physical allocations per process (multiprogrammed mix);
    // only the designated shared region overlaps.
    w.data_base_addr += static_cast<u64>(c) * 0x1000'0000;
    w.code_base_addr += static_cast<u64>(c) * 0x0100'0000;
    w.shared_frac = shared_frac;
    traces.push_back(std::make_unique<SyntheticTrace>(w, 100 + c));
    ptrs.push_back(traces.back().get());
  }
  return sys.run(ptrs, quick_params());
}

TEST(MultiPcsSystem, RunsAndReports) {
  const auto r = run_mc(2, PolicyKind::kStatic);
  EXPECT_EQ(r.num_cores, 2u);
  EXPECT_EQ(r.refs, 120'000u);
  EXPECT_GT(r.wall_cycles, 0u);
  EXPECT_GT(r.total_cache_energy(), 0.0);
}

TEST(MultiPcsSystem, SpcsSavesEnergyMultiCore) {
  const auto base = run_mc(2, PolicyKind::kBaseline);
  const auto spcs = run_mc(2, PolicyKind::kStatic);
  const double saving =
      1.0 - spcs.total_cache_energy() / base.total_cache_energy();
  EXPECT_GT(saving, 0.40);
  EXPECT_LT(saving, 0.65);
}

TEST(MultiPcsSystem, DpcsAtMostSpcsEnergy) {
  const auto spcs = run_mc(2, PolicyKind::kStatic);
  const auto dpcs = run_mc(2, PolicyKind::kDynamic);
  EXPECT_LE(dpcs.total_cache_energy(), spcs.total_cache_energy() * 1.03);
}

TEST(MultiPcsSystem, SharedDataDrivesCoherence) {
  const auto isolated = run_mc(2, PolicyKind::kBaseline, 0.0);
  const auto sharing = run_mc(2, PolicyKind::kBaseline, 0.10);
  EXPECT_EQ(isolated.coherence.invalidations_sent, 0u);
  EXPECT_GT(sharing.coherence.invalidations_sent, 100u);
  EXPECT_GT(sharing.coherence.bus_transactions,
            isolated.coherence.bus_transactions);
}

TEST(MultiPcsSystem, MoreCoresMoreL2Pressure) {
  const auto two = run_mc(2, PolicyKind::kBaseline);
  const auto four = run_mc(4, PolicyKind::kBaseline);
  // Four gcc/hmmer instances contend for the shared 2 MB L2 harder than
  // two: miss rate does not improve, work and wall time grow.
  EXPECT_GE(four.l2_miss_rate, two.l2_miss_rate * 0.9);
  EXPECT_GT(four.refs, two.refs);
  EXPECT_GT(four.wall_cycles, two.wall_cycles / 2);
}

// One core over the shared L2 is the single-core system: the same
// routing, controllers, chip draws and clock, so every figure is bit-equal.
TEST(MultiPcsSystem, OneCoreIsPcsSystem) {
  RunParams p;
  p.max_refs = 300'000;
  p.warmup_refs = 75'000;
  for (const char* name : {"hmmer", "gcc", "mcf"}) {
    for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kStatic,
                            PolicyKind::kDynamic}) {
      SCOPED_TRACE(std::string(name) + " " + to_string(kind));
      MultiSystemConfig mc;
      mc.num_cores = 1;
      MultiPcsSystem multi(mc, kind, 5);
      auto mt = make_spec_trace(name, 3);
      const MultiSimReport m = multi.run({mt.get()}, p);

      PcsSystem single(mc.base, kind, 5);
      auto st = make_spec_trace(name, 3);
      const SimReport s = single.run(*st, p);

      EXPECT_EQ(m.wall_cycles, s.cycles);
      EXPECT_EQ(m.instructions, s.instructions);
      EXPECT_EQ(m.refs, s.refs);
      EXPECT_EQ(m.l1_energy, s.l1i.total_energy() + s.l1d.total_energy());
      EXPECT_EQ(m.l2_energy, s.l2.total_energy());
      EXPECT_EQ(m.l2_avg_vdd, s.l2.avg_vdd);
      EXPECT_EQ(m.l2_transitions, s.l2.transitions);
      EXPECT_EQ(m.l2_miss_rate, s.l2.miss_rate);
    }
  }
}

// A core whose trace ends in warm-up leaves the front, so the controllers
// keep reading the running core's time: the L2's measured window is the
// wall window, and its average VDD weighs each DPCS level by the time
// spent at it rather than charging nearly the whole window at the final
// level once the front freezes.
TEST(MultiPcsSystem, CoreWhoseTraceEndsInWarmupLeavesTheFront) {
  MultiPcsSystem sys(quick_cfg(2), PolicyKind::kDynamic, 1);
  WorkloadSpec ending = spec_profile("gcc");
  ending.data_base_addr += 0x1000'0000;
  ending.code_base_addr += 0x0100'0000;
  ending.phases.resize(1);
  ending.phases[0].duration_refs = 2'000;
  ending.loop_phases = false;
  SyntheticTrace t0(spec_profile("mcf"), 100);
  SyntheticTrace t1(ending, 101);
  RunParams p;
  p.max_refs = 300'000;
  p.warmup_refs = 75'000;
  const MultiSimReport r = sys.run({&t0, &t1}, p);
  EXPECT_EQ(r.refs, 300'000u);
  ASSERT_GE(r.l2_transitions, 2u);
  const PcsController& l2 = sys.l2_controller();
  Cycle resident = 0;
  for (Cycle c : l2.pcs_stats().cycles_at_level) resident += c;
  EXPECT_EQ(resident, r.wall_cycles);
  EXPECT_GT(std::abs(r.l2_avg_vdd - l2.current_vdd()), 0.005);
}

TEST(MultiPcsSystem, RejectsTraceCountMismatch) {
  MultiPcsSystem sys(quick_cfg(2), PolicyKind::kStatic, 1);
  std::vector<TraceSource*> one;
  auto t = make_spec_trace("hmmer", 1);
  one.push_back(t.get());
  EXPECT_THROW(sys.run(one, quick_params()), std::invalid_argument);
}

}  // namespace
}  // namespace pcs
