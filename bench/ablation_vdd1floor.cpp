// ABL-VDD1: the VDD1 capacity-floor trade-off.
//
// The paper bounds VDD1 only by the 99%-yield set constraint; for highly
// associative caches that admits a deep capacity cliff (e.g. 39% of blocks
// gated in the 16-way 8 MB L2). On the paper's OoO core the resulting extra
// misses are partially hidden; on this reproduction's blocking CPU they are
// not, so the default selection also demands >= 90% expected capacity at
// VDD1 (DESIGN.md section 5). This bench sweeps that floor and reports the
// DPCS savings / performance-overhead frontier it trades along.
#include <cstdlib>
#include <iostream>

#include "core/system.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

struct Outcome {
  Volt vdd1;
  double savings;
  double overhead;
};

Outcome run(double floor, const char* wl, u64 refs) {
  SystemConfig cfg = SystemConfig::config_b();
  cfg.vdd1_capacity_floor = floor;
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  SimReport base, dpcs;
  {
    auto t = make_spec_trace(wl, 42);
    PcsSystem sys(cfg, PolicyKind::kBaseline, 1);
    base = sys.run(*t, rp);
  }
  Volt vdd1 = 0.0;
  {
    auto t = make_spec_trace(wl, 42);
    PcsSystem sys(cfg, PolicyKind::kDynamic, 1);
    dpcs = sys.run(*t, rp);
    vdd1 = sys.ladder("L2").min_vdd();
  }
  return {vdd1,
          1.0 - dpcs.total_cache_energy() / base.total_cache_energy(),
          static_cast<double>(dpcs.cycles) / static_cast<double>(base.cycles) -
              1.0};
}

}  // namespace

int main() {
  u64 refs = 500'000;
  if (const char* env = std::getenv("PCS_REFS")) {
    refs = cli_u64("ablation_vdd1floor", "PCS_REFS", env, 1) / 4;
  }

  std::cout << "== ABL-VDD1: capacity floor at VDD1 vs DPCS savings and "
               "overhead (Config B) ==\n\n";
  TextTable t({"floor", "L2 VDD1", "workload", "DPCS savings",
               "perf overhead"});
  const double floors[] = {0.99, 0.95, 0.90, 0.75, 0.50};
  for (double f : floors) {
    for (const char* wl : {"hmmer", "libquantum", "sjeng"}) {
      const auto o = run(f, wl, refs);
      t.add_row({fmt_pct(f, 0), fmt_fixed(o.vdd1, 2) + " V", wl,
                 fmt_pct(o.savings, 1), fmt_pct(o.overhead, 2)});
    }
  }
  t.print(std::cout);

  std::cout
      << "\nshape: lower floors unlock deeper VDD1 (bigger savings ceiling) "
         "but expose capacity-\nsensitive workloads to larger overheads -- "
         "the paper's yield-only rule corresponds to\nthe bottom rows and "
         "relies on an OoO core to absorb the misses.\n";
  return 0;
}
