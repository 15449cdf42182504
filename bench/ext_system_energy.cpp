// EXT-SYS: system-wide energy impact (paper future work: "an evaluation of
// system-wide power and energy impacts").
//
// Puts the cache-level savings of Fig. 4 into whole-system context: core +
// DRAM + cache energy per run. Cache savings dilute by the cache's share of
// system energy, and any execution-time overhead charges core and DRAM
// background energy against the gains -- quantifying how much slowdown a
// cache-energy optimization can afford at the system level.
#include <cstdlib>
#include <iostream>

#include "core/system.hpp"
#include "core/system_energy.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

SimReport run(PolicyKind kind, const char* wl, u64 refs) {
  const SystemConfig cfg = SystemConfig::config_a();
  auto t = make_spec_trace(wl, 42);
  PcsSystem sys(cfg, kind, 1);
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  return sys.run(*t, rp);
}

}  // namespace

int main() {
  u64 refs = 800'000;
  if (const char* env = std::getenv("PCS_REFS")) {
    refs = cli_u64("ext_system_energy", "PCS_REFS", env, 1) / 2;
  }
  const SystemEnergyModel model({}, SystemConfig::config_a().clock_ghz * 1e9);

  std::cout << "== EXT-SYS: whole-system energy (core + DRAM + caches, "
               "Config A) ==\n\n";
  TextTable t({"benchmark", "policy", "core", "DRAM", "caches",
               "system total", "cache share", "cache savings",
               "system savings"});
  RunningStats cache_sav, sys_sav;
  for (const char* wl : {"hmmer", "gcc", "mcf", "libquantum", "sphinx3"}) {
    const auto base = run(PolicyKind::kBaseline, wl, refs);
    const auto eb = model.evaluate(base);
    for (PolicyKind kind : {PolicyKind::kStatic, PolicyKind::kDynamic}) {
      const auto r = run(kind, wl, refs);
      const auto e = model.evaluate(r);
      const double cs = 1.0 - e.cache / eb.cache;
      const double ss = 1.0 - e.total() / eb.total();
      cache_sav.add(cs);
      sys_sav.add(ss);
      t.add_row({wl, r.policy, fmt_joules(e.core), fmt_joules(e.dram),
                 fmt_joules(e.cache), fmt_joules(e.total()),
                 fmt_pct(eb.cache / eb.total(), 1), fmt_pct(cs, 1),
                 fmt_pct(ss, 1)});
    }
  }
  t.print(std::cout);

  std::cout << "\naverage: cache-level savings " << fmt_pct(cache_sav.mean(), 1)
            << " dilute to " << fmt_pct(sys_sav.mean(), 1)
            << " at the system level (cache share of system energy times "
               "savings, minus overhead costs).\n";
  return 0;
}
