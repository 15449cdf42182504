// Population grid study: evaluate one manufactured fleet against a full
// (size_kb x assoc x sigma) design grid in a single pass (POPULATION.md
// "grid runs"). The grid engine samples each die once and derives every
// point from the shared draws, so each point's distributions are
// bit-identical to a standalone chip_binning run of that point -- at a
// fraction of the cost (see BENCH_micro.json: BM_PopulationGridDie).
//
//   ./build/examples/population_grid [num_chips] [seed] [shard_chips]
//       [--sizes KB,KB,...] [--assocs W,W,...] [--sigmas S,S,...]
//       [--out-dir DIR]
//       [--checkpoint PATH] [--checkpoint-shards N] [--resume]
//       [--checkpoint-stop-after N]
//
// Defaults: sizes 64, assocs 4, sigmas empty (the soi45 calibration).
// --out-dir additionally writes one chip_binning-style report per point
// (point_<size>kb_<ways>w_s<i>.txt), byte-identical to the standalone CLI
// with the same parameters -- the CI grid-determinism smoke `cmp`s exactly
// this. The checkpoint flags mirror chip_binning's; the summary report is
// byte-identical at any thread count, any shard size, and across a
// kill+resume. PCS_TRACE writes the population_grid_point telemetry stream
// (TELEMETRY.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exp/job_service.hpp"
#include "exp/thread_pool.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/parse.hpp"

using namespace pcs;

namespace {

constexpr const char* kProg = "population_grid";

/// `s`, the value of `flag`, as a comma-separated list of integers of at
/// most `hi`; a malformed item, an empty one too, exits 2 naming the flag.
std::vector<u64> parse_u64_csv(const char* flag, const char* s, u64 hi) {
  std::vector<u64> out;
  for (std::string_view rest = s;;) {
    const std::size_t comma = rest.find(',');
    const std::string item(rest.substr(0, comma));
    out.push_back(cli_u64(kProg, flag, item.c_str(), 0, hi));
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

/// `s`, the value of `flag`, as a comma-separated list of numbers; a
/// malformed item, an empty one too, exits 2 naming the flag. As with the
/// `sigmas` job key, an empty `s` is the empty list (the soi45 default).
std::vector<double> parse_real_csv(const char* flag, const char* s) {
  std::vector<double> out;
  if (*s == '\0') return out;
  for (std::string_view rest = s;;) {
    const std::size_t comma = rest.find(',');
    const std::string item(rest.substr(0, comma));
    char* end = nullptr;
    out.push_back(std::strtod(item.c_str(), &end));
    if (item.empty() || *end != '\0') {
      std::fprintf(stderr,
                   "%s: %s must be a comma-separated list of numbers with no "
                   "empty items, got '%s'\n",
                   kProg, flag, s);
      std::exit(2);
    }
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  PopulationGridSpec spec;
  spec.base.num_chips = 500;
  std::string out_dir, checkpoint;
  u64 checkpoint_shards = 16, stop_after = 0;
  bool resume = false;
  int pos = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--sizes") == 0 && i + 1 < argc) {
        spec.sizes_kb = parse_u64_csv(arg, argv[++i], ~u64{0});
      } else if (std::strcmp(arg, "--assocs") == 0 && i + 1 < argc) {
        spec.assocs.clear();
        for (const u64 a : parse_u64_csv(arg, argv[++i], 0xffffffffu)) {
          spec.assocs.push_back(static_cast<u32>(a));
        }
      } else if (std::strcmp(arg, "--sigmas") == 0 && i + 1 < argc) {
        spec.sigmas = parse_real_csv(arg, argv[++i]);
      } else if (std::strcmp(arg, "--out-dir") == 0 && i + 1 < argc) {
        out_dir = argv[++i];
      } else if (std::strcmp(arg, "--checkpoint") == 0 && i + 1 < argc) {
        checkpoint = argv[++i];
      } else if (std::strcmp(arg, "--checkpoint-shards") == 0 &&
                 i + 1 < argc) {
        checkpoint_shards = cli_u64(kProg, arg, argv[++i]);
      } else if (std::strcmp(arg, "--resume") == 0) {
        resume = true;
      } else if (std::strcmp(arg, "--checkpoint-stop-after") == 0 &&
                 i + 1 < argc) {
        stop_after = cli_u64(kProg, arg, argv[++i]);
      } else {
        switch (++pos) {
          case 1: spec.base.num_chips = cli_u64(kProg, "num_chips", arg); break;
          case 2: spec.base.seed = cli_u64(kProg, "seed", arg); break;
          case 3:
            spec.base.chips_per_shard = cli_u64(kProg, "shard_chips", arg);
            break;
          default:
            std::fprintf(stderr,
                         "population_grid: unexpected argument '%s'\n", arg);
            return 2;
        }
      }
    }

    std::unique_ptr<TraceSink> sink;
    if (const char* env = std::getenv("PCS_TRACE")) {
      sink = make_trace_sink(env);
      emit_trace_header(*sink);
    }

    const BerModel ber(Technology::soi45());
    const PopulationGridEngine engine(ber, pcs_thread_count());
    CheckpointOptions ckpt;
    ckpt.path = checkpoint;
    ckpt.every_shards = checkpoint_shards;
    ckpt.resume = resume;
    u64 saves = 0;
    if (stop_after > 0) {
      // Test hook: tear the process down after the Nth sidecar write (exit
      // 3) so the CI smoke can resume a genuinely torn run.
      ckpt.on_checkpoint = [&](u64) {
        if (++saves >= stop_after) std::_Exit(3);
      };
    }
    const PopulationGridResult result = engine.run(
        spec, sink.get(), ckpt.path.empty() ? nullptr : &ckpt);
    if (sink) sink->finish();
    render_population_grid_report(spec, result, std::cout);

    if (!out_dir.empty()) {
      // One standalone-equivalent report per point: the render path and the
      // (spec, result) pair are exactly chip_binning's, so the bytes match
      // `chip_binning chips size assoc seed shard_chips sigma`.
      std::filesystem::create_directories(out_dir);
      for (const PopulationGridPointResult& pt : result.points) {
        std::size_t gi = 0;
        const std::vector<Volt> sigmas = spec.sigma_axis(ber.sigma());
        while (gi < sigmas.size() && sigmas[gi] != pt.sigma) ++gi;
        char name[128];
        std::snprintf(name, sizeof name, "point_%llukb_%uw_s%zu.txt",
                      static_cast<unsigned long long>(pt.size_kb), pt.assoc,
                      gi);
        const std::string path = out_dir + "/" + name;
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        if (!f) {
          throw std::runtime_error("cannot open '" + path + "'");
        }
        render_population_report(spec.point_spec(pt.size_kb, pt.assoc),
                                 pt.result, f);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "population_grid: %s\n", e.what());
    return 2;
  }
  return 0;
}
