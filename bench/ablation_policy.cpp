// ABL-POL: DPCS policy sensitivity (paper section 4.1 notes the tuning
// constants were "set to reasonable values to reduce the huge design
// space"). Sweeps Interval, SuperInterval, and the LT/HT thresholds --
// including the paper's original 0.05/0.10 -- on two contrasting workloads,
// plus the fault-placement randomness check (< 1% spread over seeds).
#include <cstdlib>
#include <iostream>

#include "core/system.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

struct Outcome {
  double savings;
  double overhead;
  u32 transitions;
};

Outcome run(const SystemConfig& cfg, const char* wl, u64 refs,
            u64 chip_seed = 1) {
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 5;
  SimReport base, dpcs;
  {
    auto t = make_spec_trace(wl, 42);
    PcsSystem sys(cfg, PolicyKind::kBaseline, chip_seed);
    base = sys.run(*t, rp);
  }
  {
    auto t = make_spec_trace(wl, 42);
    PcsSystem sys(cfg, PolicyKind::kDynamic, chip_seed);
    dpcs = sys.run(*t, rp);
  }
  return {1.0 - dpcs.total_cache_energy() / base.total_cache_energy(),
          static_cast<double>(dpcs.cycles) / static_cast<double>(base.cycles) - 1.0,
          dpcs.l2.transitions + dpcs.l1d.transitions};
}

}  // namespace

int main() {
  u64 refs = 600'000;
  if (const char* env = std::getenv("PCS_REFS")) {
    refs = cli_u64("ablation_policy", "PCS_REFS", env, 1) / 2;
  }
  const char* workloads[] = {"hmmer", "gcc"};

  std::cout << "== ABL-POL(1): threshold sweep (LT/HT) ==\n\n";
  TextTable t1({"LT/HT", "workload", "DPCS savings", "perf overhead",
                "transitions"});
  const double bands[][2] = {{0.01, 0.03}, {0.02, 0.05}, {0.05, 0.10},
                             {0.10, 0.20}};
  for (const auto& b : bands) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.low_threshold = b[0];
      cfg.high_threshold = b[1];
      const auto o = run(cfg, wl, refs);
      t1.add_row({fmt_fixed(b[0], 2) + "/" + fmt_fixed(b[1], 2), wl,
                  fmt_pct(o.savings, 1), fmt_pct(o.overhead, 2),
                  std::to_string(o.transitions)});
    }
  }
  t1.print(std::cout);
  std::cout << "\nshape: looser bands (paper's 0.05/0.10) accept more "
               "performance loss for more savings; the default 0.02/0.05 "
               "compensates for the blocking CPU model.\n";

  std::cout << "\n== ABL-POL(2): L2 interval sweep ==\n\n";
  TextTable t2({"L2 interval", "workload", "DPCS savings", "perf overhead",
                "transitions"});
  for (u64 interval : {500ULL, 2'000ULL, 10'000ULL, 50'000ULL}) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.l2.dpcs_interval = interval;
      const auto o = run(cfg, wl, refs);
      t2.add_row({fmt_count(interval), wl, fmt_pct(o.savings, 1),
                  fmt_pct(o.overhead, 2), std::to_string(o.transitions)});
    }
  }
  t2.print(std::cout);
  std::cout << "\nshape: short intervals adapt faster (more savings on "
               "phased workloads) but spend more transitions; very long "
               "intervals degenerate toward SPCS.\n";

  std::cout << "\n== ABL-POL(3): SuperInterval sweep ==\n\n";
  TextTable t3({"SuperInterval", "workload", "DPCS savings",
                "perf overhead"});
  for (u32 si : {5u, 10u, 25u, 50u}) {
    for (const char* wl : workloads) {
      SystemConfig cfg = SystemConfig::config_a();
      cfg.l1i.super_interval = si;
      cfg.l1d.super_interval = si;
      cfg.l2.super_interval = si;
      const auto o = run(cfg, wl, refs);
      t3.add_row({std::to_string(si), wl, fmt_pct(o.savings, 1),
                  fmt_pct(o.overhead, 2)});
    }
  }
  t3.print(std::cout);

  std::cout << "\n== ABL-POL(4): fault-placement randomness "
               "(paper: < 1% spread over 5 runs) ==\n\n";
  TextTable t4({"chip seed", "DPCS savings", "perf overhead"});
  RunningStats sav;
  for (u64 seed = 1; seed <= 5; ++seed) {
    const auto o = run(SystemConfig::config_a(), "hmmer", refs, seed);
    sav.add(o.savings);
    t4.add_row({std::to_string(seed), fmt_pct(o.savings, 2),
                fmt_pct(o.overhead, 2)});
  }
  t4.print(std::cout);
  std::cout << "\nspread (max - min savings): "
            << fmt_pct(sav.max() - sav.min(), 2) << " (paper: < 1%)\n";
  return 0;
}
