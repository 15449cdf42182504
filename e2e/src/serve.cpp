// serve_mix: JobService.serve on a 128-line job file generated in set-up.
//
// It runs the same cache and core layers as fig4_sweep differently -- the
// scalar path, one decode per run, text parsing next to mmap'd .pcst
// decode -- and exposes cross-job scheduling, where heterogeneous jobs
// leave stragglers.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "exp/job_service.hpp"
#include "tech/technology.hpp"
#include "trace/encode.hpp"
#include "traced.hpp"
#include "util/rng.hpp"
#include "util/vecmath.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs::e2e {

namespace {

constexpr u64 kRecordedEvents = 1'000'000;
/// Measured refs of every replay and sim job (warm-up: refs/4).
constexpr u64 kJobRefs = 60'000;
constexpr u64 kPopulationJobDies = 2'500;
/// The traced run re-drives the first jobs of the file.
constexpr std::size_t kTracedJobs = 16;
/// Every this-many-th output is checked against a direct run.
constexpr std::size_t kVerifyStride = 8;
/// Shuffles the job lines; fixed, so every seed serves the same kind mix.
constexpr u64 kShuffleSeed = 0x5e7e;

const char* const kReplayProfiles[] = {"gcc", "mcf", "lbm", "hmmer"};
const char* const kSimProfiles[] = {"perlbench", "bzip2",   "gobmk", "sjeng",
                                    "libquantum", "h264ref", "omnetpp",
                                    "astar"};

struct JobFile {
  std::string path;
  std::vector<std::string> lines;  ///< in submission order
};

/// Records the replay traces and writes the job file under `dir`:
/// 64 trace_replay jobs (4 profiles x .pcst/text x A/B x 4 chip seeds),
/// 32 sim jobs (8 other profiles x A/B x 3/4 VDD levels) and 32
/// population jobs (2 sizes x 4 assocs x 4 seeds), shuffled.
JobFile make_job_file(const Options& o, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir + "/out");
  const auto out = [&](const std::string& id) {
    return ",\"out\":\"" + dir + "/out/" + id + ".txt\"}";
  };
  const std::string refs = std::to_string(kJobRefs);
  JobFile jf;
  for (const char* profile : kReplayProfiles) {
    for (const auto& [ext, format] :
         {std::pair{".pcst", TraceFormat::kPcst},
          std::pair{".trace", TraceFormat::kText}}) {
      const std::string file = dir + "/" + profile + ext;
      const auto src = make_spec_trace(profile, o.trace_seed());
      record_trace(*src, file, kRecordedEvents, format);
      for (const char* config : {"A", "B"}) {
        for (u64 k = 0; k < 4; ++k) {
          const std::string id = std::string("replay-") + profile + ext + "-" +
                                 config + "-" + std::to_string(k);
          jf.lines.push_back(
              "{\"kind\":\"trace_replay\",\"id\":\"" + id + "\",\"file\":\"" +
              file + "\",\"config\":\"" + config + "\",\"refs\":" + refs +
              ",\"chip_seed\":" + std::to_string(o.chip_seed() + k) + out(id));
        }
      }
    }
  }
  for (const char* profile : kSimProfiles) {
    for (const char* config : {"A", "B"}) {
      for (const char* levels : {"3", "4"}) {
        const std::string id =
            std::string("sim-") + profile + "-" + config + "-" + levels;
        jf.lines.push_back(
            "{\"kind\":\"sim\",\"id\":\"" + id + "\",\"workload\":\"" +
            profile + "\",\"config\":\"" + config + "\",\"levels\":" + levels +
            ",\"refs\":" + refs +
            ",\"chip_seed\":" + std::to_string(o.chip_seed()) +
            ",\"trace_seed\":" + std::to_string(o.trace_seed()) + out(id));
      }
    }
  }
  for (u64 j = 0; j < 32; ++j) {
    const std::string id = "population-" + std::to_string(j);
    jf.lines.push_back(
        "{\"kind\":\"population\",\"id\":\"" + id +
        "\",\"chips\":" + std::to_string(kPopulationJobDies) +
        ",\"size_kb\":" + std::to_string(j % 2 == 0 ? 32 : 64) +
        ",\"assoc\":" + std::to_string(2u << (j / 2 % 4)) +
        ",\"seed\":" + std::to_string(o.population_seed() + j / 8) + out(id));
  }
  Rng rng(kShuffleSeed);
  for (std::size_t i = jf.lines.size() - 1; i > 0; --i) {
    std::swap(jf.lines[i], jf.lines[rng.uniform_int(i + 1)]);
  }
  jf.path = dir + "/jobs.ndjson";
  std::ofstream f(jf.path, std::ios::trunc);
  for (const std::string& line : jf.lines) f << line << '\n';
  if (!f.flush()) throw std::runtime_error("cannot write " + jf.path);
  return jf;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// The sim job a trace_replay job runs (run_trace_replay_job's mapping).
SimJobSpec as_sim(const Job& job) {
  if (job.kind == Job::Kind::kSim) return job.sim;
  const TraceReplayJobSpec& t = job.trace_replay;
  SimJobSpec s;
  s.id = t.id;
  s.config = t.config;
  s.policy = t.policy;
  s.workload = t.file;
  s.refs = t.refs;
  s.warmup = t.warmup;
  s.chip_seed = t.chip_seed;
  s.trace_seed = 0;
  s.levels = t.levels;
  return s;
}

/// The policy runs of a sim job, configured as run_sim_job configures them
/// (the service's job files here use policy "all").
std::vector<ExperimentPoint> sim_points(const SimJobSpec& s) {
  SystemConfig cfg =
      s.config == "B" ? SystemConfig::config_b() : SystemConfig::config_a();
  cfg.num_vdd_levels = s.levels;
  RunParams rp;
  rp.max_refs = s.refs;
  rp.warmup_refs = s.warmup ? s.warmup : s.refs / 4;
  std::vector<ExperimentPoint> points;
  for (const PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kStatic, PolicyKind::kDynamic}) {
    ExperimentPoint p;
    p.config = cfg;
    p.workload = s.workload;
    p.policy = kind;
    p.chip_seed = s.chip_seed;
    p.trace_seed = s.trace_seed;
    p.params = rp;
    points.push_back(std::move(p));
  }
  return points;
}

/// One serve() of the whole file: outcomes, the outputs in submission
/// order (log first) and the makespan.
struct Served {
  std::vector<JobOutcome> outcomes;
  std::string bytes;
  double makespan_s = 0.0;
};

Served serve_once(const JobFile& jf, u32 threads, Report& r) {
  Served s;
  std::ifstream in(jf.path);
  std::ostringstream log;
  s.makespan_s =
      wall_of([&] { s.outcomes = JobService(threads).serve(in, log); });
  s.bytes = log.str();
  for (const std::string& line : jf.lines) {
    s.bytes += read_file(parse_job_line(line).out_path());
  }
  for (const JobOutcome& oc : s.outcomes) {
    r.check(oc.ok, "job " + oc.id + " failed: " + oc.error);
  }
  return s;
}

/// Every kVerifyStride-th job rerun directly, single-threaded, into memory;
/// its output file must match byte for byte.
void verify_outputs(const JobFile& jf, u32 threads, Report& r) {
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < jf.lines.size(); i += kVerifyStride) {
    picks.push_back(i);
  }
  const std::vector<std::string> direct =
      parallel_index_map(threads, picks.size(), [&](u64 k) {
        const Job job = parse_job_line(jf.lines[picks[k]]);
        std::ostringstream out;
        switch (job.kind) {
          case Job::Kind::kSim: run_sim_job(job.sim, out, 1); break;
          case Job::Kind::kPopulation:
            run_population_job(job.population, out, 1);
            break;
          case Job::Kind::kPopulationGrid:
            run_population_grid_job(job.population_grid, out, 1);
            break;
          case Job::Kind::kTraceReplay:
            run_trace_replay_job(job.trace_replay, out, 1);
            break;
        }
        return out.str();
      });
  for (std::size_t k = 0; k < picks.size(); ++k) {
    const Job job = parse_job_line(jf.lines[picks[k]]);
    r.check(read_file(job.out_path()) == direct[k],
            "output of job " + job.id() + " differs from a direct run");
  }
}

void run_traced(const Options& o, const JobFile& jf, Report& r) {
  const Served s = serve_once(jf, o.threads, r);
  r.digest = hex_digest(s.bytes);
  std::vector<double> job_ms;
  double busy_ms = 0.0;
  for (const JobOutcome& oc : s.outcomes) {
    job_ms.push_back(oc.wall_ms);
    busy_ms += oc.wall_ms;
  }
  r.metric("exp.pool_util", busy_ms / (o.threads * s.makespan_s * 1e3),
           "ratio");
  r.metric("exp.tasks", static_cast<double>(job_ms.size()), "count");
  r.metric("exp.task_max_over_p50",
           *std::max_element(job_ms.begin(), job_ms.end()) / median(job_ms),
           "ratio");

  // Untraced references for the re-driven jobs, computed up front.
  std::vector<Job> jobs;
  std::vector<ExperimentPoint> sims;
  std::vector<PopulationSpec> pops;
  double untraced_s = 0.0;
  for (std::size_t i = 0; i < kTracedJobs; ++i) {
    jobs.push_back(parse_job_line(jf.lines[i]));
    untraced_s += s.outcomes[i].wall_ms * 1e-3;
    if (jobs.back().kind == Job::Kind::kPopulation) {
      pops.push_back(jobs.back().population.spec);
    } else {
      for (ExperimentPoint& p : sim_points(as_sim(jobs.back()))) {
        sims.push_back(std::move(p));
      }
    }
  }
  const std::vector<SimReport> sim_refs =
      parallel_index_map(o.threads, sims.size(), [&](u64 k) {
        const ExperimentPoint& p = sims[k];
        return run_one(p.config, p.workload, p.policy, p.chip_seed,
                       p.trace_seed, p.params);
      });
  const BerModel ber(Technology::soi45());  // the jobs' sigma 0
  const std::vector<PopulationResult> pop_refs =
      parallel_index_map(o.threads, pops.size(), [&](u64 k) {
        return PopulationEngine(ber, 1).run(pops[k]);
      });
  r.attempted += sims.size() + pops.size();

  Tracer tr;
  const u64 root = tr.open("serve_mix");
  {
    CallAgg& parses = tr.calls(root, "exp.job_parses");
    for (const std::string& line : jf.lines) {
      const i64 t0 = now_ns();
      parse_job_line(line);
      parses.since(t0);
      tr.calibrate();
    }
  }
  u64 transitions = 0;
  std::size_t next_sim = 0, next_pop = 0;
  std::vector<SimReport> traced_reports;
  for (const Job& job : jobs) {
    const u64 span = tr.open("job " + job.id(), root);
    if (job.kind == Job::Kind::kPopulation) {
      const PopulationResult got =
          trace_population(tr, span, job.population.spec, ber);
      r.check(got == pop_refs[next_pop++],
              "traced job " + job.id() + " differs from PopulationEngine");
    } else {
      // run_sim_job opens one source and builds one system per policy.
      for (const ExperimentPoint& p : sim_points(as_sim(job))) {
        const SimReport got =
            trace_shard(tr, span, {p}, /*engine_layout=*/false, transitions)
                .front();
        r.check(got == sim_refs[next_sim++],
                "traced job " + job.id() + " differs from run_one");
        traced_reports.push_back(got);
      }
    }
    tr.close(span);
  }
  tr.close(root);
  tr.report_layers(root, untraced_s, r);
  report_cache_counts(traced_reports, r);
  r.metric("core.transitions", static_cast<double>(transitions), "count");
  tr.write_jsonl(o.trace_out, o.workload);
}

}  // namespace

void run_serve_mix(const Options& o, Report& r) {
  const double t0 = now_s();
  vecmath::fast_math_active();
  const JobFile jf = make_job_file(o, o.workdir + "/serve_mix");
  r.setup_s = now_s() - t0;
  if (o.setup_only) return;

  if (o.traced) {
    run_traced(o, jf, r);
    return;
  }
  std::string first;
  const std::vector<double> walls = timed_reps(o.seconds, [&] {
    Served s = serve_once(jf, o.threads, r);
    if (first.empty()) {
      first = std::move(s.bytes);
    } else {
      r.check(s.bytes == first, "serve_mix rep differs from the first rep");
    }
    return s.makespan_s;
  });
  r.metric("throughput", static_cast<double>(jf.lines.size()) / median(walls),
           "1/s");
  r.digest = hex_digest(first);
  verify_outputs(jf, o.threads, r);
}

}  // namespace pcs::e2e
