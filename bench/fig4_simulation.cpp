// FIG4: the architectural simulation sweep (paper Fig. 4, all eight panes).
//
// For each system config (A, B) and each of the sixteen SPEC-like
// workloads, runs baseline / SPCS / DPCS and reports:
//   (a-d) L1 and L2 average cache power, normalized to baseline;
//   (e,f) execution-time overhead vs baseline;
//   (g,h) total cache energy, normalized to baseline.
//
// Paper shapes to match: SPCS ~55% avg energy savings, DPCS ~69%; DPCS >=
// SPCS nearly everywhere, with a larger gap for config B's bigger caches;
// perf overheads <= 2.6% (A) / 4.4% (B); no benchmark regressing energy.
//
// Runtime scales with PCS_REFS (default 2,000,000 measured refs per run).
// The grid runs through SweepRunner: each workload's trace is decoded once
// per shard of up to 16 lanes, and shards fan across PCS_THREADS workers
// (default: all hardware threads; the output is byte-identical at every
// thread count). Set PCS_TRACE=<path> to also write a telemetry trace of
// all 96 runs (TELEMETRY.md); its deterministic section is likewise
// byte-identical at every thread count. Pass --trace-file PATH
// (repeatable) to replay recorded trace files -- text or the compressed
// .pcst container (TRACES.md) -- in place of the synthetic workload
// column.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "exp/sweep_engine.hpp"
#include "telemetry/trace_sink.hpp"
#include "trace/workload_source.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

struct Row {
  std::string name;
  SimReport base, spcs, dpcs;
};

/// Non-empty = replay these recorded trace files (text or .pcst, see
/// TRACES.md) instead of the sixteen synthetic SPEC-like profiles. The
/// warmup/measure boundary is event-positional, so a converted .pcst
/// replays the same windows as its text original.
std::vector<std::string> g_trace_files;

const std::vector<std::string>& grid_workloads() {
  return g_trace_files.empty() ? spec_profile_names() : g_trace_files;
}

std::string workload_label(const std::string& workload) {
  const auto slash = workload.find_last_of('/');
  return slash == std::string::npos ? workload : workload.substr(slash + 1);
}

// Fans the whole 2xWx3 grid across the pool; reports come back in grid
// order (config-major, workload, then baseline/SPCS/DPCS), so rows[c][w]
// is at a fixed offset regardless of which worker finished when.
std::vector<std::vector<Row>> run_grid(u64 refs, TraceSink* sink) {
  RunParams rp;
  rp.max_refs = refs;
  rp.warmup_refs = refs / 4;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_config(SystemConfig::config_b())
      .add_workloads(grid_workloads())
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kStatic)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);

  SweepOptions opt;
  opt.num_threads = 0;  // pcs_thread_count()
  opt.max_lanes = 16;
  const auto reports = SweepRunner(opt).run(grid, sink);

  const u64 num_wl = grid_workloads().size();
  std::vector<std::vector<Row>> rows(2, std::vector<Row>(num_wl));
  for (u64 c = 0; c < 2; ++c) {
    for (u64 w = 0; w < num_wl; ++w) {
      Row& row = rows[c][w];
      row.name = workload_label(grid_workloads()[w]);
      const u64 at = (c * num_wl + w) * 3;
      row.base = reports[at];
      row.spcs = reports[at + 1];
      row.dpcs = reports[at + 2];
    }
  }
  return rows;
}

void report_config(const SystemConfig& cfg, const std::vector<Row>& rows) {
  std::cout << "\n===== Config " << cfg.name << " =====\n";

  std::cout << "\n-- FIG4(" << (cfg.name == "A" ? "a" : "b")
            << "): L1 cache power (normalized to baseline) + FIG4("
            << (cfg.name == "A" ? "c" : "d") << "): L2 cache power --\n\n";
  TextTable p({"benchmark", "L1 base (mW)", "L1 SPCS", "L1 DPCS",
               "L2 base (mW)", "L2 SPCS", "L2 DPCS"});
  RunningStats l1s, l1d, l2s, l2d;
  for (const auto& r : rows) {
    const double l1b = r.base.l1_power(), l2b = r.base.l2_power();
    l1s.add(r.spcs.l1_power() / l1b);
    l1d.add(r.dpcs.l1_power() / l1b);
    l2s.add(r.spcs.l2_power() / l2b);
    l2d.add(r.dpcs.l2_power() / l2b);
    p.add_row({r.name, fmt_fixed(l1b * 1e3, 1),
               fmt_pct(r.spcs.l1_power() / l1b, 1),
               fmt_pct(r.dpcs.l1_power() / l1b, 1), fmt_fixed(l2b * 1e3, 1),
               fmt_pct(r.spcs.l2_power() / l2b, 1),
               fmt_pct(r.dpcs.l2_power() / l2b, 1)});
  }
  p.add_row({"AVERAGE", "-", fmt_pct(l1s.mean(), 1), fmt_pct(l1d.mean(), 1),
             "-", fmt_pct(l2s.mean(), 1), fmt_pct(l2d.mean(), 1)});
  p.print(std::cout);

  std::cout << "\n-- FIG4(" << (cfg.name == "A" ? "e" : "f")
            << "): execution time overhead vs baseline --\n\n";
  TextTable o({"benchmark", "SPCS", "DPCS", "DPCS transitions (L1D+L2)"});
  RunningStats ovs, ovd;
  double worst_s = 0.0, worst_d = 0.0;
  for (const auto& r : rows) {
    const double os =
        static_cast<double>(r.spcs.cycles) / static_cast<double>(r.base.cycles) -
        1.0;
    const double od =
        static_cast<double>(r.dpcs.cycles) / static_cast<double>(r.base.cycles) -
        1.0;
    ovs.add(os);
    ovd.add(od);
    worst_s = std::max(worst_s, os);
    worst_d = std::max(worst_d, od);
    o.add_row({r.name, fmt_pct(os, 2), fmt_pct(od, 2),
               std::to_string(r.dpcs.l1d.transitions + r.dpcs.l2.transitions)});
  }
  o.add_row({"AVERAGE", fmt_pct(ovs.mean(), 2), fmt_pct(ovd.mean(), 2), "-"});
  o.add_row({"WORST", fmt_pct(worst_s, 2), fmt_pct(worst_d, 2), "-"});
  o.print(std::cout);

  std::cout << "\n-- FIG4(" << (cfg.name == "A" ? "g" : "h")
            << "): total cache energy (normalized to baseline) --\n\n";
  TextTable e({"benchmark", "baseline", "SPCS", "savings", "DPCS", "savings",
               "L2 avg VDD (DPCS)"});
  RunningStats ss, sd;
  for (const auto& r : rows) {
    const double eb = r.base.total_cache_energy();
    const double es = r.spcs.total_cache_energy() / eb;
    const double ed = r.dpcs.total_cache_energy() / eb;
    ss.add(1.0 - es);
    sd.add(1.0 - ed);
    e.add_row({r.name, fmt_joules(eb), fmt_pct(es, 1), fmt_pct(1.0 - es, 1),
               fmt_pct(ed, 1), fmt_pct(1.0 - ed, 1),
               fmt_fixed(r.dpcs.l2.avg_vdd, 3) + " V"});
  }
  e.add_row({"AVERAGE", "-", "-", fmt_pct(ss.mean(), 1), "-",
             fmt_pct(sd.mean(), 1), "-"});
  e.print(std::cout);

  std::cout << "\nconfig " << cfg.name << " summary: SPCS saves "
            << fmt_pct(ss.mean(), 1) << " (paper ~55%), DPCS saves "
            << fmt_pct(sd.mean(), 1) << " (paper ~69%); DPCS beats SPCS by "
            << fmt_pct((sd.mean() - ss.mean()) / (1.0 - ss.mean()), 1)
            << " of remaining energy (paper: 23.9% A / 33.2% B); worst perf "
               "overhead "
            << fmt_pct(worst_d, 1) << " (paper: 2.6% A / 4.4% B)\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Default scaled so the biggest (Config B) caches reach DPCS steady state
  // within the measured window; PCS_REFS trades fidelity for wall clock.
  u64 refs = 2'000'000;
  if (const char* env = std::getenv("PCS_REFS")) {
    refs = cli_u64("fig4_simulation", "PCS_REFS", env, 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-file") == 0 && i + 1 < argc) {
      g_trace_files.emplace_back(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0] << " [--trace-file PATH]...\n";
      return 2;
    }
  }
  try {
    // Every file opens before the first byte of the report.
    for (const std::string& path : g_trace_files) (void)open_trace_file(path);
    std::unique_ptr<TraceSink> sink;
    if (const char* path = std::getenv("PCS_TRACE")) {
      sink = make_trace_sink(path);
      emit_trace_header(*sink);
    }
    std::cout << "== FIG4: gem5-style simulation sweep (" << fmt_count(refs)
              << " measured refs per run; set PCS_REFS to change) ==\n";
    const auto rows = run_grid(refs, sink.get());
    if (sink) sink->finish();
    report_config(SystemConfig::config_a(), rows[0]);
    report_config(SystemConfig::config_b(), rows[1]);
  } catch (const std::exception& e) {
    std::cerr << "fig4_simulation: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
