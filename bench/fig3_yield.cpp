// FIG3d: yield vs data-array VDD for conventional (no fault tolerance),
// SECDED, DECTED, FFT-Cache, and the proposed mechanism (paper Fig. 3,
// "Yield" pane). L1 Config A.
//
// Paper shape: conventional collapses first; proposed beats SECDED in all
// configurations; DECTED slightly beats proposed at this low associativity;
// FFT-Cache reaches the lowest min-VDD.
//
// The closed-form curves are cross-checked by Monte-Carlo chip trials
// (PCS_TRIALS manufactured dies, default 2000, 0 skips them; fanned across
// PCS_THREADS workers with per-trial SplitMix64-derived seeds -- output is
// identical at every thread count).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "baselines/ecc.hpp"
#include "baselines/fft_cache.hpp"
#include "exp/population_engine.hpp"
#include "exp/thread_pool.hpp"
#include "fault/yield_model.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace pcs;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0]
              << " (PCS_TRIALS and PCS_THREADS from the environment)\n";
    return 2;
  }
  u64 trials = 2000;
  if (const char* env = std::getenv("PCS_TRIALS")) {
    trials = cli_u64("fig3_yield", "PCS_TRIALS", env);
  }
  const auto tech = Technology::soi45();
  const CacheOrg org{64 * 1024, 4, 64, 31};
  BerModel ber(tech);
  YieldModel pcs_yield(ber, org);
  EccYieldModel secded(ber, org, EccScheme::secded16());
  EccYieldModel dected(ber, org, EccScheme::dected16());
  FftCacheModel fft(tech, org, ber);

  std::cout << "== FIG3d: yield vs VDD (L1 Config A) ==\n"
            << "SECDED/DECTED applied at the 2-byte sub-block level "
               "(Table 1)\n\n";

  TextTable t({"VDD (V)", "conventional", "SECDED", "DECTED", "FFT-Cache",
               "proposed"});
  for (Volt v = 0.90; v >= 0.449; v -= 0.025) {
    t.add_row({fmt_fixed(v, 3), fmt_pct(pcs_yield.conventional_yield(v), 2),
               fmt_pct(secded.yield(v), 2), fmt_pct(dected.yield(v), 2),
               fmt_pct(fft.yield(v), 2), fmt_pct(pcs_yield.yield(v), 2)});
  }
  t.print(std::cout);

  std::cout << "\nmin-VDD at 99% yield:\n";
  TextTable m({"scheme", "min-VDD (V)"});
  auto grid_min = [&](auto&& yield_fn) {
    for (Volt v = tech.vdd_floor; v <= tech.vdd_nominal; v += tech.vdd_step) {
      if (yield_fn(v) >= 0.99) return v;
    }
    return tech.vdd_nominal;
  };
  m.add_row({"conventional",
             fmt_fixed(grid_min([&](Volt v) {
                         return pcs_yield.conventional_yield(v);
                       }),
                       2)});
  m.add_row({"SECDED", fmt_fixed(secded.min_vdd(0.99, tech.vdd_floor,
                                                tech.vdd_nominal,
                                                tech.vdd_step),
                                 2)});
  m.add_row({"DECTED", fmt_fixed(dected.min_vdd(0.99, tech.vdd_floor,
                                                tech.vdd_nominal,
                                                tech.vdd_step),
                                 2)});
  m.add_row({"FFT-Cache", fmt_fixed(fft.min_vdd(0.99), 2)});
  m.add_row({"proposed",
             fmt_fixed(pcs_yield.min_vdd(0.99, tech.vdd_floor,
                                         tech.vdd_nominal, tech.vdd_step),
                       2)});
  m.print(std::cout);
  std::cout << "\nexpected ordering: FFT < DECTED <= proposed < SECDED < "
               "conventional.\n";

  // Monte-Carlo validation: manufacture PCS_TRIALS independent dies and
  // measure the empirical PCS yield directly. A block works at v iff
  // v > vf; a set survives iff its best way works; the whole chip survives
  // iff every set does -- so one scalar per die (the max over sets of the
  // min over ways of vf) encodes its pass/fail at *every* voltage.
  if (trials == 0) return 0;  // PCS_TRIALS=0 opts out of the cross-check
  const u64 mc_seed = 7;
  const std::vector<Volt> probes = {0.60, 0.625, 0.65, 0.70, 0.75};
  const std::vector<u64> pass_counts = yield_pass_counts_mc(
      trials, mc_seed, ber, org, probes, pcs_thread_count());

  std::cout << "\nMonte-Carlo cross-check (" << fmt_count(trials)
            << " manufactured dies):\n";
  TextTable mc({"VDD (V)", "analytic yield", "empirical yield"});
  for (std::size_t k = 0; k < probes.size(); ++k) {
    mc.add_row({fmt_fixed(probes[k], 3), fmt_pct(pcs_yield.yield(probes[k]), 2),
                fmt_pct(static_cast<double>(pass_counts[k]) /
                            static_cast<double>(trials),
                        2)});
  }
  mc.print(std::cout);
  std::cout << "\nempirical columns should track the analytic model to "
               "sampling error (~1/sqrt(trials)).\n";
  return 0;
}
