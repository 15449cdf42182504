// EXT-MC: multi-core power/capacity scaling (paper future work: "a broader
// design space exploration involving multi-core systems with consideration
// of cache coherence").
//
// Runs 1/2/4-core multiprogrammed mixes (and a 2-core run with a shared
// heap to drive the MSI protocol) on Config A, reporting cache-energy
// savings, execution overhead (wall clock of the slowest core), and
// coherence traffic. Expected shape: SPCS savings carry over unchanged from
// single core (the mechanism is per-cache); DPCS on the shared L2 adapts to
// the *combined* working set, so its savings shrink as cores are added and
// the L2 fills up.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "exp/thread_pool.hpp"
#include "multicore/multi_system.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

const char* kMix[] = {"hmmer", "gcc", "h264ref", "sjeng"};

std::vector<std::unique_ptr<SyntheticTrace>> make_mix(u32 cores,
                                                      double shared_frac) {
  std::vector<std::unique_ptr<SyntheticTrace>> traces;
  for (u32 c = 0; c < cores; ++c) {
    WorkloadSpec w = spec_profile(kMix[c % 4]);
    w.data_base_addr += static_cast<u64>(c) * 0x1000'0000;
    w.code_base_addr += static_cast<u64>(c) * 0x0100'0000;
    w.shared_frac = shared_frac;
    traces.push_back(std::make_unique<SyntheticTrace>(w, 100 + c));
  }
  return traces;
}

MultiSimReport run(u32 cores, PolicyKind kind, double shared_frac, u64 refs) {
  MultiSystemConfig cfg;
  cfg.base = SystemConfig::config_a();
  cfg.num_cores = cores;
  MultiPcsSystem sys(cfg, kind, 1);
  auto traces = make_mix(cores, shared_frac);
  std::vector<TraceSource*> ptrs;
  for (auto& t : traces) ptrs.push_back(t.get());
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  return sys.run(ptrs, rp);
}

}  // namespace

int main() {
  u64 refs = 400'000;  // per core
  if (const char* env = std::getenv("PCS_REFS")) {
    refs = cli_u64("ext_multicore", "PCS_REFS", env, 1) / 4;
  }

  std::cout << "== EXT-MC: multi-core PCS on Config A (mix: hmmer/gcc/"
               "h264ref/sjeng, " << fmt_count(refs) << " refs/core) ==\n\n";

  TextTable t({"cores", "shared", "policy", "cache energy", "savings",
               "wall overhead", "L2 avg VDD", "L2 trans", "invals",
               "interventions"});

  // Expand the (cores, shared, policy) grid -- baselines included as
  // ordinary cells -- then fan the independent runs across PCS_THREADS
  // workers. Each cell builds its own MultiPcsSystem and traces, so the
  // results match the old serial loop bit-for-bit at any thread count.
  struct Cell {
    u32 cores;
    double shared;
    PolicyKind kind;
  };
  std::vector<Cell> cells;
  for (u32 cores : {1u, 2u, 4u}) {
    for (double shared : {0.0, 0.05}) {
      if (cores == 1 && shared > 0.0) continue;  // nothing to share with
      for (PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kStatic,
                              PolicyKind::kDynamic}) {
        cells.push_back({cores, shared, kind});
      }
    }
  }
  const std::vector<MultiSimReport> reports = parallel_index_map(
      pcs_thread_count(), cells.size(), [&](u64 i) {
        return run(cells[i].cores, cells[i].kind, cells[i].shared, refs);
      });

  for (u64 i = 0; i < cells.size(); i += 3) {
    const MultiSimReport& base = reports[i];
    for (u64 j = i + 1; j < i + 3; ++j) {
      const MultiSimReport& r = reports[j];
      const double save =
          1.0 - r.total_cache_energy() / base.total_cache_energy();
      const double ov = static_cast<double>(r.wall_cycles) /
                            static_cast<double>(base.wall_cycles) -
                        1.0;
      t.add_row({std::to_string(cells[j].cores), fmt_pct(cells[j].shared, 0),
                 r.policy, fmt_joules(r.total_cache_energy()),
                 fmt_pct(save, 1), fmt_pct(ov, 2),
                 fmt_fixed(r.l2_avg_vdd, 3) + " V",
                 std::to_string(r.l2_transitions),
                 fmt_count(r.coherence.invalidations_sent),
                 fmt_count(r.coherence.interventions)});
    }
  }
  t.print(std::cout);

  std::cout << "\nshapes: SPCS savings are core-count invariant (per-cache "
               "mechanism); DPCS's L2 savings\nshrink with more cores (the "
               "combined working set needs the capacity); sharing generates\n"
               "coherence traffic without disturbing the PCS policies.\n";
  return 0;
}
