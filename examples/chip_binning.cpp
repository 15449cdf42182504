// Chip binning study at population scale: manufacture many dies of the same
// cache design and report the fleet-level distributions the paper's SPCS /
// DPCS policies exploit -- yield vs VDD, per-die minimum operating voltage,
// and per-bin DPCS ladder tuning (POPULATION.md).
//
//   ./build/examples/chip_binning [num_chips] [size_kb] [assoc] [seed]
//                                 [shard_chips] [sigma]
//                                 [--checkpoint PATH] [--checkpoint-shards N]
//                                 [--resume] [--checkpoint-stop-after N]
//
// The optional sigma overrides the fail-voltage spread (0 = the soi45
// calibration); a malformed, non-finite or negative sigma exits 2 with a
// message. --checkpoint enables the shard-range sidecar; --resume skips
// the completed shard prefix of an earlier run; --checkpoint-stop-after N is
// the CI/test hook that kills the process (exit 3) after the Nth sidecar
// write, leaving a genuinely torn run behind for a resume to finish.
//
// Runs on PCS_THREADS workers; the report is byte-identical at any thread
// count and any shard size -- and for a resumed run -- and matches a
// `population` job submitted to `pcs_sim --serve` with the same parameters.
// PCS_TRACE writes the population_shard telemetry stream (TELEMETRY.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "exp/job_service.hpp"
#include "exp/thread_pool.hpp"
#include "telemetry/trace_sink.hpp"
#include "util/parse.hpp"

using namespace pcs;

namespace {
constexpr const char* kProg = "chip_binning";
}  // namespace

int main(int argc, char** argv) {
  PopulationJobSpec job;
  u64 stop_after = 0;
  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--checkpoint") == 0 && i + 1 < argc) {
      job.checkpoint = argv[++i];
    } else if (std::strcmp(arg, "--checkpoint-shards") == 0 && i + 1 < argc) {
      job.checkpoint_shards = cli_u64(kProg, arg, argv[++i]);
    } else if (std::strcmp(arg, "--resume") == 0) {
      job.resume = true;
    } else if (std::strcmp(arg, "--checkpoint-stop-after") == 0 &&
               i + 1 < argc) {
      stop_after = cli_u64(kProg, arg, argv[++i]);
    } else {
      switch (++pos) {
        case 1: job.spec.num_chips = cli_u64(kProg, "num_chips", arg); break;
        case 2:
          job.spec.org.size_bytes =
              cli_u64(kProg, "size_kb", arg, 0, ~u64{0} / 1024) * 1024;
          break;
        case 3:
          job.spec.org.assoc =
              static_cast<u32>(cli_u64(kProg, "assoc", arg, 0, 0xffffffffu));
          break;
        case 4: job.spec.seed = cli_u64(kProg, "seed", arg); break;
        case 5:
          job.spec.chips_per_shard = cli_u64(kProg, "shard_chips", arg);
          break;
        case 6: {
          char* end = nullptr;
          job.sigma = std::strtod(arg, &end);
          if (end == arg || *end != '\0') {
            std::fprintf(stderr, "chip_binning: malformed sigma '%s'\n",
                         arg);
            return 2;
          }
          break;
        }
        default:
          std::fprintf(stderr, "chip_binning: unexpected argument '%s'\n",
                       arg);
          return 2;
      }
    }
  }
  if (pos < 1) job.spec.num_chips = 500;

  try {
    std::unique_ptr<TraceSink> sink;
    if (const char* env = std::getenv("PCS_TRACE")) {
      sink = make_trace_sink(env);
      emit_trace_header(*sink);
    }
    if (stop_after > 0) {
      // Test hook: run the engine directly so the on_checkpoint callback
      // can tear the process down mid-run (the normal path below is the
      // byte-identity surface shared with the service).
      const BerModel ber = job.sigma == 0.0
                               ? BerModel(Technology::soi45())
                               : BerModel(Technology::soi45().ber_mu,
                                          job.sigma);
      const PopulationEngine engine(ber, pcs_thread_count());
      CheckpointOptions ckpt;
      ckpt.path = job.checkpoint;
      ckpt.every_shards = job.checkpoint_shards;
      ckpt.resume = job.resume;
      u64 saves = 0;
      ckpt.on_checkpoint = [&](u64) {
        if (++saves >= stop_after) std::_Exit(3);
      };
      const PopulationResult result = engine.run(job.spec, sink.get(), &ckpt);
      render_population_report(job.spec, result, std::cout);
    } else {
      // Same run + render path as a service-mode "population" job, so the
      // standalone report is byte-identical to the job's output file.
      run_population_job(job, std::cout, pcs_thread_count(), sink.get());
    }
    if (sink) sink->finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chip_binning: %s\n", e.what());
    return 2;
  }
  return 0;
}
