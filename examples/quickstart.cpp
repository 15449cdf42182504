// Quickstart: build a power/capacity-scaling cache system, run a workload
// under the baseline, SPCS, and DPCS policies, and print the energy /
// performance summary.
//
//   ./build/examples/quickstart [workload] [refs]
//
// Workloads are the sixteen SPEC-CPU2006-like profiles (default: hmmer).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "core/system.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "hmmer";
  const u64 refs =
      argc > 2 ? cli_u64("quickstart", "refs", argv[2], 1) : 1'000'000;

  try {
    const SystemConfig cfg = SystemConfig::config_a();
    RunParams rp;
    rp.max_refs = refs;
    rp.warmup_refs = refs / 5;

    std::printf("Power/Capacity Scaling quickstart\n");
    std::printf(
        "config %s: L1 %llu KB %u-way, L2 %llu MB %u-way @ %.1f GHz\n\n",
        cfg.name.c_str(),
        static_cast<unsigned long long>(cfg.l1d.org.size_bytes / 1024),
        cfg.l1d.org.assoc,
        static_cast<unsigned long long>(cfg.l2.org.size_bytes >> 20),
        cfg.l2.org.assoc, cfg.clock_ghz);

    SimReport base;
    TextTable table({"policy", "cache energy", "savings", "exec cycles",
                     "perf overhead", "L2 avg VDD", "L2 transitions"});
    for (PolicyKind kind :
         {PolicyKind::kBaseline, PolicyKind::kStatic, PolicyKind::kDynamic}) {
      auto trace = make_spec_trace(workload, /*seed=*/42);
      PcsSystem sys(cfg, kind, /*chip_seed=*/1);
      const SimReport r = sys.run(*trace, rp);
      if (kind == PolicyKind::kBaseline) base = r;
      const double save =
          1.0 - r.total_cache_energy() / base.total_cache_energy();
      const double ov = static_cast<double>(r.cycles) /
                            static_cast<double>(base.cycles) -
                        1.0;
      table.add_row({r.policy, fmt_joules(r.total_cache_energy()),
                     fmt_pct(save, 1), fmt_count(r.cycles), fmt_pct(ov, 2),
                     fmt_fixed(r.l2.avg_vdd, 3) + " V",
                     std::to_string(r.l2.transitions)});
    }

    std::printf("workload: %s (%llu measured refs)\n\n", workload.c_str(),
                static_cast<unsigned long long>(refs));
    table.print(std::cout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }
  return 0;
}
