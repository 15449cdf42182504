// Policy playground: run DPCS on a deliberately phased workload and print a
// timeline of the L2 voltage level, miss rate, and transitions -- watching
// Listing 1 react as the working set swings between L2-resident and
// DRAM-bound phases.
//
//   ./build/examples/policy_playground [interval] [super_interval]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/system.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

using namespace pcs;

int main(int argc, char** argv) {
  SystemConfig cfg = SystemConfig::config_a();
  if (argc > 1) {
    cfg.l2.dpcs_interval = cli_u64("policy_playground", "interval", argv[1]);
  }
  if (argc > 2) {
    // DPCS needs a warm-up, a NAAT and a park interval per SuperInterval.
    cfg.l2.super_interval = static_cast<u32>(cli_u64(
        "policy_playground", "super_interval", argv[2], 3, 0xffffffffu));
  }

  // Two-phase workload: a small working set that fits the 2 MB L2 easily,
  // then a 6 MB phase that thrashes it.
  WorkloadSpec w;
  w.name = "phased-demo";
  PhaseSpec small, large;
  small.working_set_bytes = 512 * 1024;
  small.duration_refs = 300'000;
  small.reuse_prob = 0.6;
  large.working_set_bytes = 6 * 1024 * 1024;
  large.duration_refs = 300'000;
  large.reuse_prob = 0.4;
  w.phases = {small, large};

  SyntheticTrace trace(w, 7);
  PcsSystem sys(cfg, PolicyKind::kDynamic, 1);

  std::printf("DPCS timeline (L2 interval=%llu accesses, SuperInterval=%u)\n\n",
              static_cast<unsigned long long>(cfg.l2.dpcs_interval),
              cfg.l2.super_interval);

  TextTable t({"refs (k)", "phase", "L2 VDD", "L2 capacity", "L2 missrate",
               "transitions"});
  auto& cpu = sys.cpu();
  auto& l2ctl = sys.l2_controller();
  AccessOutcome out;
  u64 refs = 0;
  u64 last_l2_acc = 0, last_l2_miss = 0;
  const u64 sample_every = 100'000;
  while (refs < 2'000'000 && cpu.step(trace, out)) {
    sys.l1i_controller().tick();
    sys.l1d_controller().tick();
    l2ctl.tick();
    ++refs;
    if (refs % sample_every == 0) {
      const auto& s = sys.hierarchy().l2().stats();
      const u64 da = s.accesses - last_l2_acc;
      const u64 dm = s.misses - last_l2_miss;
      last_l2_acc = s.accesses;
      last_l2_miss = s.misses;
      t.add_row({std::to_string(refs / 1000),
                 std::to_string(trace.current_phase()),
                 fmt_fixed(l2ctl.current_vdd(), 2) + " V",
                 fmt_pct(l2ctl.cache().effective_capacity(), 1),
                 da ? fmt_pct(static_cast<double>(dm) / static_cast<double>(da),
                              1)
                    : "-",
                 std::to_string(l2ctl.pcs_stats().transitions)});
    }
  }
  t.print(std::cout);

  std::printf(
      "\nExpected shape: VDD drops toward VDD1 in the small-WS phase (extra "
      "capacity is\nidle), and climbs back to the SPCS level when the 6 MB "
      "phase makes every block count.\n");
  return 0;
}
