// pcs_sim: the command-line front end to the simulator.
//
//   ./build/examples/pcs_sim [options]
//
//   --config A|B          system configuration (default A)
//   --policy baseline|spcs|dpcs|all   (default all)
//   --workload NAME       one of the 16 SPEC-like profiles, or a path to a
//                         trace file recorded with --record (default hmmer)
//   --refs N              measured references (default 1000000)
//   --warmup N            warm-up references (default refs/4)
//   --chip-seed N         manufactured die (default 1)
//   --trace-seed N        workload randomness (default 42)
//   --levels N            allowed VDD levels, 2..255 (default 3)
//   --csv                 emit one CSV row per run instead of tables
//   --record PATH N       record N events of --workload into PATH and exit
//   --format text|pcst    container for --record (default text; pcst is the
//                         compressed binary container, see TRACES.md --
//                         trace_convert converts between the two)
//   --trace PATH          write a telemetry trace (JSONL, or per-type CSV
//                         when PATH ends in .csv) -- see TELEMETRY.md; the
//                         PCS_TRACE environment variable is an equivalent
//                         fallback when the flag is absent
//   --serve JOBFILE       service mode: read line-delimited JSON jobs from
//                         JOBFILE ('-' = stdin; a FIFO works) and run them
//                         concurrently; each job writes its own output file
//                         and optional telemetry trace. Kinds: "sim",
//                         "population", "population_grid" (the sample-once
//                         (size x assoc x sigma) grid engine), and
//                         "trace_replay" (replay a recorded trace file).
//                         Job schema and the determinism contract are
//                         documented in POPULATION.md. Exits non-zero if
//                         any job failed.
//
// Examples:
//   pcs_sim --config B --policy dpcs --workload mcf --refs 2000000
//   pcs_sim --workload gcc --csv
//   pcs_sim --record /tmp/gcc.trace 100000 --workload gcc
//   pcs_sim --record /tmp/gcc.pcst 100000 --workload gcc --format pcst
//   pcs_sim --workload /tmp/gcc.trace
//   pcs_sim --policy dpcs --workload hmmer --trace run.jsonl
//   pcs_sim --serve jobs.ndjson
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "exp/job_service.hpp"
#include "exp/thread_pool.hpp"
#include "fault/fault_map.hpp"
#include "telemetry/trace_sink.hpp"
#include "trace/encode.hpp"
#include "trace/workload_source.hpp"
#include "util/parse.hpp"

using namespace pcs;

namespace {

constexpr const char* kProg = "pcs_sim";

struct Options {
  SimJobSpec job;
  std::string record_path;
  u64 record_count = 0;
  TraceFormat record_format = TraceFormat::kText;
  std::string serve_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config A|B] [--policy baseline|spcs|dpcs|all]\n"
               "          [--workload NAME|trace-file] [--refs N] [--warmup N]\n"
               "          [--chip-seed N] [--trace-seed N] [--levels N]\n"
               "          [--csv] [--record PATH N] [--format text|pcst]\n"
               "          [--trace PATH] [--serve JOBFILE]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int more) {
      if (i + more >= argc) usage(argv[0]);
    };
    if (a == "--config") {
      need(1);
      o.job.config = argv[++i];
      if (o.job.config != "A" && o.job.config != "B") {
        std::fprintf(stderr, "%s: --config must be \"A\" or \"B\", got '%s'\n",
                     kProg, argv[i]);
        std::exit(2);
      }
    } else if (a == "--policy") {
      need(1);
      o.job.policy = argv[++i];
    } else if (a == "--workload") {
      need(1);
      o.job.workload = argv[++i];
    } else if (a == "--refs") {
      need(1);
      o.job.refs = cli_u64(kProg, a.c_str(), argv[++i]);
    } else if (a == "--warmup") {
      need(1);
      o.job.warmup = cli_u64(kProg, a.c_str(), argv[++i]);
    } else if (a == "--chip-seed") {
      need(1);
      o.job.chip_seed = cli_u64(kProg, a.c_str(), argv[++i]);
    } else if (a == "--trace-seed") {
      need(1);
      o.job.trace_seed = cli_u64(kProg, a.c_str(), argv[++i]);
    } else if (a == "--levels") {
      need(1);
      o.job.levels = static_cast<u32>(
          cli_u64(kProg, "--levels", argv[++i], 2, FaultMap::kMaxLevels));
    } else if (a == "--csv") {
      o.job.csv = true;
    } else if (a == "--record") {
      need(2);
      o.record_path = argv[++i];
      o.record_count = cli_u64(kProg, a.c_str(), argv[++i]);
    } else if (a == "--format") {
      need(1);
      const std::string fmt = argv[++i];
      if (fmt == "text") {
        o.record_format = TraceFormat::kText;
      } else if (fmt == "pcst") {
        o.record_format = TraceFormat::kPcst;
      } else {
        usage(argv[0]);
      }
    } else if (a == "--trace") {
      need(1);
      o.job.trace_path = argv[++i];
    } else if (a == "--serve") {
      need(1);
      o.serve_path = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (o.job.trace_path.empty()) {
    if (const char* env = std::getenv("PCS_TRACE")) o.job.trace_path = env;
  }
  return o;
}

int serve(const std::string& path) {
  JobService service(pcs_thread_count());
  std::vector<JobOutcome> outcomes;
  if (path == "-") {
    outcomes = service.serve(std::cin, std::cout);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "pcs_sim: cannot open job file '%s'\n",
                   path.c_str());
      return 2;
    }
    outcomes = service.serve(in, std::cout);
  }
  for (const JobOutcome& oc : outcomes) {
    if (!oc.ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  if (!o.serve_path.empty()) return serve(o.serve_path);

  try {
    if (!o.record_path.empty()) {
      auto trace = make_workload_source(o.job.workload, o.job.trace_seed);
      const u64 n =
          record_trace(*trace, o.record_path, o.record_count, o.record_format);
      std::printf("recorded %llu events of '%s' into %s\n",
                  static_cast<unsigned long long>(n), trace->name(),
                  o.record_path.c_str());
      return 0;
    }

    // Same run + render path as a service-mode "sim" job, which is what
    // makes a job's output file byte-identical to this standalone run.
    std::unique_ptr<TraceSink> sink;
    if (!o.job.trace_path.empty()) sink = make_trace_sink(o.job.trace_path);
    run_sim_job(o.job, std::cout, pcs_thread_count(), sink.get());
    if (sink) sink->finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcs_sim: %s\n", e.what());
    return 2;
  }
  return 0;
}
