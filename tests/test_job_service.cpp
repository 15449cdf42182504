// Job service: the runtime teeth of the POPULATION.md schema (parse
// defaults and rejections), the per-job determinism contract (service
// output files byte-identical to the standalone CLIs at any concurrency),
// and the deterministic service log.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/job_service.hpp"

namespace pcs {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Job-line parsing (POPULATION.md schema, runtime side)

TEST(ParseJobLine, EmptyObjectYieldsSimDefaults) {
  const Job job = parse_job_line("{}");
  EXPECT_EQ(job.kind, Job::Kind::kSim);
  EXPECT_EQ(job.sim.id, "");
  EXPECT_EQ(job.sim.config, "A");
  EXPECT_EQ(job.sim.policy, "all");
  EXPECT_EQ(job.sim.workload, "hmmer");
  EXPECT_EQ(job.sim.refs, 1'000'000u);
  EXPECT_EQ(job.sim.warmup, 0u);
  EXPECT_EQ(job.sim.chip_seed, 1u);
  EXPECT_EQ(job.sim.trace_seed, 42u);
  EXPECT_EQ(job.sim.levels, 3u);
  EXPECT_FALSE(job.sim.csv);
  EXPECT_EQ(job.sim.out, "");
  EXPECT_EQ(job.sim.trace_path, "");
}

TEST(ParseJobLine, PopulationKeysMapOntoTheSpec) {
  const Job job = parse_job_line(
      R"({"kind": "population", "id": "fleet", "chips": 500, "size_kb": 32,)"
      R"( "assoc": 8, "seed": 7, "shard_chips": 128, "grid_lo": 0.5,)"
      R"( "grid_hi": 0.9, "grid_step": 0.02, "min_capacity": 0.95,)"
      R"( "out": "fleet.txt", "trace": "fleet.jsonl"})");
  EXPECT_EQ(job.kind, Job::Kind::kPopulation);
  const PopulationJobSpec& p = job.population;
  EXPECT_EQ(p.id, "fleet");
  EXPECT_EQ(p.spec.num_chips, 500u);
  EXPECT_EQ(p.spec.org.size_bytes, 32u * 1024u);
  EXPECT_EQ(p.spec.org.assoc, 8u);
  EXPECT_EQ(p.spec.seed, 7u);
  EXPECT_EQ(p.spec.chips_per_shard, 128u);
  EXPECT_NEAR(p.spec.grid_lo, 0.5, 1e-12);
  EXPECT_NEAR(p.spec.grid_hi, 0.9, 1e-12);
  EXPECT_NEAR(p.spec.grid_step, 0.02, 1e-12);
  EXPECT_NEAR(p.spec.spcs_min_capacity, 0.95, 1e-12);
  EXPECT_EQ(p.out, "fleet.txt");
  EXPECT_EQ(p.trace_path, "fleet.jsonl");
}

TEST(ParseJobLine, PopulationSigmaAndCheckpointKeysMapOntoTheSpec) {
  const Job job = parse_job_line(
      R"({"kind": "population", "chips": 100, "sigma": 0.1823,)"
      R"( "checkpoint": "fleet.ck", "checkpoint_shards": 4,)"
      R"( "resume": true, "out": "fleet.txt"})");
  EXPECT_EQ(job.kind, Job::Kind::kPopulation);
  EXPECT_NEAR(job.population.sigma, 0.1823, 1e-12);
  EXPECT_EQ(job.population.ckpt.path, "fleet.ck");
  EXPECT_EQ(job.checkpoint_path(), "fleet.ck");
  EXPECT_EQ(job.population.ckpt.every_shards, 4u);
  EXPECT_TRUE(job.population.ckpt.resume);
  // Defaults: sigma 0 = soi45 calibration, checkpointing off.
  const Job plain = parse_job_line(R"({"kind": "population"})");
  EXPECT_EQ(plain.population.sigma, 0.0);
  EXPECT_EQ(plain.population.ckpt.path, "");
  EXPECT_EQ(plain.population.ckpt.every_shards, 16u);
  EXPECT_FALSE(plain.population.ckpt.resume);
}

TEST(ParseJobLine, PopulationGridKeysMapOntoTheSpec) {
  const Job job = parse_job_line(
      R"({"kind": "population_grid", "id": "grid", "chips": 500,)"
      R"( "sizes_kb": "32,64", "assocs": "2,4,8", "sigmas": "0.14, 0.1585",)"
      R"( "seed": 7, "shard_chips": 128, "grid_lo": 0.5, "grid_hi": 0.9,)"
      R"( "grid_step": 0.02, "min_capacity": 0.95, "out": "grid.txt",)"
      R"( "trace": "grid.jsonl", "checkpoint": "grid.ck",)"
      R"( "checkpoint_shards": 3, "resume": true})");
  EXPECT_EQ(job.kind, Job::Kind::kPopulationGrid);
  const PopulationGridJobSpec& g = job.population_grid;
  EXPECT_EQ(g.id, "grid");
  EXPECT_EQ(g.spec.base.num_chips, 500u);
  EXPECT_EQ(g.spec.sizes_kb, (std::vector<u64>{32, 64}));
  EXPECT_EQ(g.spec.assocs, (std::vector<u32>{2, 4, 8}));
  ASSERT_EQ(g.spec.sigmas.size(), 2u);
  EXPECT_NEAR(g.spec.sigmas[0], 0.14, 1e-12);
  EXPECT_NEAR(g.spec.sigmas[1], 0.1585, 1e-12);
  EXPECT_EQ(g.spec.base.seed, 7u);
  EXPECT_EQ(g.spec.base.chips_per_shard, 128u);
  EXPECT_NEAR(g.spec.base.grid_lo, 0.5, 1e-12);
  EXPECT_NEAR(g.spec.base.spcs_min_capacity, 0.95, 1e-12);
  EXPECT_EQ(g.out, "grid.txt");
  EXPECT_EQ(g.trace_path, "grid.jsonl");
  EXPECT_EQ(g.ckpt.path, "grid.ck");
  EXPECT_EQ(job.checkpoint_path(), "grid.ck");
  EXPECT_EQ(g.ckpt.every_shards, 3u);
  EXPECT_TRUE(g.ckpt.resume);
  // Defaults: one 64 KB 4-way point at the calibration sigma, no
  // checkpointing.
  const Job plain = parse_job_line(R"({"kind": "population_grid"})");
  EXPECT_EQ(plain.population_grid.spec.sizes_kb, (std::vector<u64>{64}));
  EXPECT_EQ(plain.population_grid.spec.assocs, (std::vector<u32>{4}));
  EXPECT_TRUE(plain.population_grid.spec.sigmas.empty());
  EXPECT_EQ(plain.population_grid.ckpt.path, "");
  EXPECT_EQ(plain.population_grid.ckpt.every_shards, 16u);
  EXPECT_FALSE(plain.population_grid.ckpt.resume);
}

TEST(ParseJobLine, RejectsMalformedAndOffSchemaLines) {
  const char* bad[] = {
      "not json at all",
      "{\"kind\": \"sim\"} trailing",
      R"({"refs": 100, "refs": 200})",                 // duplicate key
      R"({"kind": "spectral"})",                       // unknown kind
      R"({"bogus_key": 1})",                           // unknown key
      R"({"kind": "population", "refs": 100})",        // sim key, wrong kind
      R"({"refs": "many"})",                           // type mismatch
      R"({"refs": -5})",                               // negative integer
      R"({"refs": 1.5})",                              // fractional integer
      R"({"config": "C"})",                            // bad enum value
      R"({"policy": "fastest"})",                      // bad enum value
      "{\"id\": \"\\u0041\"}",                         // unsupported escape
      R"({"kind": "sim",})",                           // trailing comma
      R"({"kind": "population", "sigma": -0.1})",      // negative sigma
      R"({"kind": "population_grid", "sizes_kb": ""})",        // empty list
      R"({"kind": "population_grid", "sizes_kb": "32,,64"})",  // empty item
      R"({"kind": "population_grid", "sizes_kb": "32,64,"})",  // trailing ','
      R"({"kind": "population_grid", "assocs": "4,x"})",   // malformed item
      R"({"kind": "population_grid", "assocs": "4,4"})",   // duplicate value
      R"({"kind": "population_grid", "sigmas": "0.1,-0.2"})",  // negative
      R"({"kind": "population_grid", "sizes_kb": "63"})",  // invalid org
      R"({"kind": "population_grid", "refs": 100})",   // sim key, wrong kind
  };
  for (const char* line : bad) {
    EXPECT_THROW(parse_job_line(line), std::invalid_argument) << line;
  }
}

/// Expects parse_job_line to reject `line` with a message containing `what`.
void expect_rejected(const std::string& line, const std::string& what) {
  try {
    parse_job_line(line);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << line << " -> " << e.what();
  }
}

TEST(ParseJobLine, IntegerKeysAreExactOverTheWholeU64Range) {
  // 2^53 + 1 once went through a double and ran as seed 2^53.
  EXPECT_EQ(parse_job_line(R"({"kind": "population",)"
                           R"( "seed": 9007199254740993})")
                .population.spec.seed,
            9'007'199'254'740'993u);
  // 2^64 - 1 was rejected, although chip_binning takes it as a seed.
  EXPECT_EQ(parse_job_line(R"({"kind": "population",)"
                           R"( "seed": 18446744073709551615})")
                .population.spec.seed,
            ~u64{0});
  EXPECT_EQ(parse_job_line(R"({"chip_seed": 18446744073709551615})")
                .sim.chip_seed,
            ~u64{0});
}

TEST(ParseJobLine, IntegerKeysRejectSignsFractionsExponentsAndOverflow) {
  for (const char* v : {"18446744073709551616", "-1", "-0", "+1", "1.0",
                        "1e3", "1E3"}) {
    expect_rejected(
        std::string(R"({"kind": "population", "seed": )") + v + "}",
        "job key 'seed': expected a non-negative integer");
  }
  // strtod once read this as 1000 dies.
  expect_rejected(R"({"kind": "population", "chips": 1e3})",
                  "job key 'chips': expected a non-negative integer");
}

TEST(ParseJobLine, AssocAboveU32IsRejectedNotTruncated) {
  // 4294967300 once ran as a 4-way cache.
  expect_rejected(R"({"kind": "population", "assoc": 4294967300})",
                  "job key 'assoc': associativity out of range");
  // 4294967295 KB is 16 sets of 4294967295 ways: an organisation that
  // indexes, so the line is accepted.
  EXPECT_EQ(parse_job_line(R"({"kind": "population",)"
                           R"( "size_kb": 4294967295, "assoc": 4294967295})")
                .population.spec.org.assoc,
            0xffffffffu);
}

TEST(ParseJobLine, SizesWhoseByteCountOverflowsAreRejectedNamingTheKey) {
  // 2^54 + 1 KB once wrapped to a 1 KB cache reported at 100 % yield.
  expect_rejected(R"({"kind": "population_grid",)"
                  R"( "sizes_kb": "18014398509481985"})",
                  "population grid sizes_kb item 18014398509481985 KB "
                  "overflows a 64-bit byte count");
  expect_rejected(R"({"kind": "population", "size_kb": 18014398509481985})",
                  "job key 'size_kb': 18014398509481985 KB overflows a "
                  "64-bit byte count");
}

TEST(ParseJobLine, OrganisationsThatCannotIndexAreRejectedNamingTheKeys) {
  // A 63 KB population job was accepted and then failed at run time with
  // "set count must be a power of two", naming neither key nor line.
  expect_rejected(R"({"kind": "population", "size_kb": 63, "out": "x"})",
                  "job keys 'size_kb' 63 and 'assoc' 4: set count must be "
                  "a power of two");
  expect_rejected(R"({"kind": "population", "size_kb": 64, "assoc": 3})",
                  "job keys 'size_kb' 64 and 'assoc' 3: size_bytes must be "
                  "a whole number of sets of whole blocks");
  // The grid named the failure but neither the keys nor the items.
  expect_rejected(R"({"kind": "population_grid", "sizes_kb": "32,63",)"
                  R"( "assocs": "2,4"})",
                  "population grid sizes_kb item 63 KB with assocs item 2: "
                  "set count must be a power of two");
}

TEST(ParseJobLine, NegativeListItemsAreMalformedNotWrapped) {
  // "-1" once wrapped through strtoull to 2^64 - 1 and failed with "set
  // count must be a power of two", naming no key.
  expect_rejected(R"({"kind": "population_grid", "sizes_kb": "-1"})",
                  "job key 'sizes_kb': malformed integer '-1'");
  expect_rejected(R"({"kind": "population_grid", "assocs": "4,-4"})",
                  "job key 'assocs': malformed integer '-4'");
}

// ---------------------------------------------------------------------------
// run_sim_job: thread-count invariance and CSV shape

TEST(RunSimJob, OutputInvariantToThreadCount) {
  SimJobSpec spec;
  spec.workload = "hmmer";
  spec.refs = 2'000;
  std::ostringstream serial, parallel;
  run_sim_job(spec, serial, 1);
  run_sim_job(spec, parallel, 4);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_NE(serial.str().find("config A, workload hmmer"), std::string::npos);
}

TEST(RunSimJob, CsvModeEmitsHeaderPlusOneRowPerPolicy) {
  SimJobSpec spec;
  spec.refs = 2'000;
  spec.csv = true;  // policy "all" = 3 rows
  std::ostringstream out;
  run_sim_job(spec, out, 1);
  std::istringstream lines(out.str());
  std::vector<std::string> rows;
  for (std::string l; std::getline(lines, l);) rows.push_back(l);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].rfind("config,workload,policy,refs,", 0), 0u);
}

TEST(RunSimJob, UnknownPolicyThrows) {
  SimJobSpec spec;
  spec.policy = "fastest";  // parse_job_line rejects this; run_ must too
  std::ostringstream out;
  EXPECT_THROW(run_sim_job(spec, out, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// serve(): byte-identity with the standalone paths and the deterministic log

TEST(JobService, ServedJobsAreByteIdenticalToStandaloneRuns) {
  const std::string sim_out = tmp_path("pcs_js_sim.txt");
  const std::string sim_trace = tmp_path("pcs_js_sim.jsonl");
  const std::string pop_out = tmp_path("pcs_js_pop.txt");
  std::ostringstream jobs;
  jobs << "# two independent jobs, run concurrently\n"
       << R"({"kind": "sim", "id": "s1", "refs": 2000, "out": ")" << sim_out
       << R"(", "trace": ")" << sim_trace << "\"}\n"
       << "\n"
       << R"({"kind": "population", "id": "p1", "chips": 40, "size_kb": 16,)"
       << R"( "shard_chips": 16, "out": ")" << pop_out << "\"}\n";
  const std::string job_text = jobs.str();

  std::string logs[2];
  const u32 threads[2] = {4, 1};
  for (int i = 0; i < 2; ++i) {
    std::istringstream in(job_text);
    std::ostringstream log;
    const std::vector<JobOutcome> outcomes =
        JobService(threads[i]).serve(in, log);
    logs[i] = log.str();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
    EXPECT_EQ(outcomes[0].id, "s1");
    EXPECT_EQ(outcomes[1].id, "p1");
  }
  // The service log never contains timings, so it is byte-stable too.
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_NE(logs[0].find("job s1: accepted (sim -> "), std::string::npos);
  EXPECT_NE(logs[0].find("job p1: ok"), std::string::npos);
  EXPECT_NE(logs[0].find("served 2 jobs: 2 ok, 0 failed"), std::string::npos);

  // Output files match the standalone render paths byte for byte.
  const Job sim_job = parse_job_line(
      R"({"kind": "sim", "refs": 2000, "out": "x"})");
  std::ostringstream sim_ref;
  run_sim_job(sim_job.sim, sim_ref, 1);
  EXPECT_EQ(slurp(sim_out), sim_ref.str());

  const Job pop_job = parse_job_line(
      R"({"kind": "population", "chips": 40, "size_kb": 16, "out": "x"})");
  std::ostringstream pop_ref;
  run_population_job(pop_job.population, pop_ref, 1);
  EXPECT_EQ(slurp(pop_out), pop_ref.str());

  // The per-job trace ends with the quarantined wall-clock record.
  const std::string trace = slurp(sim_trace);
  std::istringstream trace_lines(trace);
  std::string line, last;
  while (std::getline(trace_lines, line)) {
    if (!line.empty()) last = line;
  }
  EXPECT_EQ(last.rfind(R"({"type":"job_profile","job":"s1","kind":"sim")", 0),
            0u);
}

TEST(JobService, ServedGridJobIsByteIdenticalToStandaloneRun) {
  const std::string grid_out = tmp_path("pcs_js_grid.txt");
  std::ostringstream jobs;
  jobs << R"({"kind": "population_grid", "id": "g1", "chips": 40,)"
       << R"( "sizes_kb": "16,32", "assocs": "2,4", "shard_chips": 16,)"
       << R"( "out": ")" << grid_out << "\"}\n";
  std::istringstream in(jobs.str());
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_NE(log.str().find("job g1: accepted (population_grid -> "),
            std::string::npos);

  const Job grid_job = parse_job_line(
      R"({"kind": "population_grid", "chips": 40, "sizes_kb": "16,32",)"
      R"( "assocs": "2,4", "shard_chips": 16, "out": "x"})");
  std::ostringstream ref;
  run_population_grid_job(grid_job.population_grid, ref, 1);
  EXPECT_EQ(slurp(grid_out), ref.str());
}

TEST(JobService, RejectsDuplicateIdsAndArtifactPaths) {
  const std::string out1 = tmp_path("pcs_js_dup1.txt");
  const std::string out2 = tmp_path("pcs_js_dup2.txt");
  const std::string out3 = tmp_path("pcs_js_dup3.txt");
  const std::string ck = tmp_path("pcs_js_dup.ck");
  std::ostringstream jobs;
  jobs << R"({"kind": "population", "id": "p1", "chips": 10, "out": ")"
       << out1 << R"(", "checkpoint": ")" << ck << "\"}\n"
       << R"({"kind": "population", "id": "p1", "chips": 10, "out": ")"
       << out2 << "\"}\n"
       << R"({"kind": "sim", "id": "s1", "refs": 100, "out": ")" << out1
       << "\"}\n"
       << R"({"kind": "population", "id": "p2", "chips": 10, "out": ")"
       << out3 << R"(", "checkpoint": ")" << ck << "\"}\n";
  std::istringstream in(jobs.str());
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find(
                "duplicate job id 'p1' (first submitted at line 1)"),
            std::string::npos);
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_NE(outcomes[2].error.find("already claimed by the job at line 1"),
            std::string::npos);
  EXPECT_FALSE(outcomes[3].ok);
  EXPECT_NE(outcomes[3].error.find("checkpoint path"), std::string::npos);
  // Every rejection line names the offending job-file line.
  EXPECT_NE(log.str().find("job p1: rejected (line 2): duplicate job id"),
            std::string::npos);
  EXPECT_NE(log.str().find("job s1: rejected (line 3): output path"),
            std::string::npos);
  EXPECT_NE(log.str().find("job p2: rejected (line 4): checkpoint path"),
            std::string::npos);
}

TEST(JobService, RejectionsAndFailuresAreReportedInSubmissionOrder) {
  const std::string out1 = tmp_path("pcs_js_fail1.txt");
  std::ostringstream jobs;
  jobs << R"({"kind": "sim", "id": "no-out", "refs": 100})" << "\n"
       << "this is not a job\n"
       << R"({"kind": "sim", "workload": "no-such-workload", "refs": 100,)"
       << R"( "out": ")" << out1 << "\"}\n";
  std::istringstream in(jobs.str());
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].id, "no-out");
  EXPECT_NE(outcomes[0].error.find("'out' is required"), std::string::npos);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].id, "line2");
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].id, "job3");  // default id = submission index
  EXPECT_NE(outcomes[2].error.find("no-such-workload"), std::string::npos);
  EXPECT_NE(log.str().find("served 3 jobs: 0 ok, 3 failed"),
            std::string::npos);
}

TEST(JobService, JobWhoseTraceCannotBeWrittenFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string out = tmp_path("pcs_js_full_trace.txt");
  std::ostringstream jobs;
  jobs << R"({"kind": "sim", "id": "s1", "refs": 2000, "out": ")" << out
       << R"(", "trace": "/dev/full"})" << "\n";
  std::istringstream in(jobs.str());
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].error, "write failed for trace file: /dev/full");
  EXPECT_NE(log.str().find("served 1 jobs: 0 ok, 1 failed"),
            std::string::npos);
}

TEST(JobService, UnboundedLaddersFailNamingTheField) {
  // The first two once appended ladder levels until std::bad_alloc. Now
  // each job fails at once with a message naming the field, and the
  // service carries on.
  std::ostringstream jobs;
  jobs << R"({"kind": "population", "id": "huge-hi", "chips": 10,)"
       << R"( "grid_hi": 1e308, "out": ")" << tmp_path("pcs_js_l1.txt")
       << "\"}\n"
       << R"({"kind": "population", "id": "tiny-step", "chips": 10,)"
       << R"( "grid_step": 1e-300, "out": ")" << tmp_path("pcs_js_l2.txt")
       << "\"}\n"
       << R"({"kind": "population_grid", "id": "inf-lo", "chips": 10,)"
       << R"( "grid_lo": 1e999, "out": ")" << tmp_path("pcs_js_l3.txt")
       << "\"}\n";
  std::istringstream in(jobs.str());
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);

  ASSERT_EQ(outcomes.size(), 3u);
  for (const JobOutcome& oc : outcomes) EXPECT_FALSE(oc.ok) << oc.id;
  EXPECT_NE(outcomes[0].error.find(
                "population grid_lo..grid_hi at grid_step has more than "
                "1024 levels"),
            std::string::npos)
      << outcomes[0].error;
  EXPECT_NE(outcomes[1].error.find("grid_step has more than 1024 levels"),
            std::string::npos)
      << outcomes[1].error;
  EXPECT_NE(outcomes[2].error.find("population grid_lo must be finite"),
            std::string::npos)
      << outcomes[2].error;
  EXPECT_NE(log.str().find("served 3 jobs: 0 ok, 3 failed"),
            std::string::npos);
}

TEST(JobService, NonFiniteSigmaIsRejectedNamingTheKey) {
  // 1e999 parses as infinity; the job once ran and reported ok.
  std::istringstream in(R"({"kind": "population", "id": "inf-sigma",)"
                        R"( "chips": 200, "sigma": 1e999, "out": ")" +
                        tmp_path("pcs_js_sigma.txt") + "\"}\n");
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("job key 'sigma': must be finite"),
            std::string::npos)
      << outcomes[0].error;
  EXPECT_NE(log.str().find("rejected (line 1): job key 'sigma'"),
            std::string::npos)
      << log.str();
}

TEST(JobService, NonFiniteSigmasAreRejectedNamingTheKey) {
  // The grid job once ran and printed sigma inf with every die unusable.
  std::istringstream in(R"({"kind": "population_grid", "id": "inf-sigmas",)"
                        R"( "chips": 200, "sigmas": "0.15,inf", "out": ")" +
                        tmp_path("pcs_js_sigmas.txt") + "\"}\n");
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("job key 'sigmas': non-finite number "
                                   "'inf'"),
            std::string::npos)
      << outcomes[0].error;
  EXPECT_NE(log.str().find("rejected (line 1): job key 'sigmas'"),
            std::string::npos)
      << log.str();
}

TEST(JobService, LevelsOutsideTheFaultMapRangeAreRejectedNamingTheKey) {
  // 4294967299 once wrapped to 3 levels, and 256 or more wrapped the fault
  // map's u8 codes; both jobs reported ok.
  std::istringstream in(
      R"({"kind": "sim", "id": "wrap", "levels": 4294967299, "out": ")" +
      tmp_path("pcs_js_levels_wrap.txt") + "\"}\n" +
      R"({"kind": "sim", "id": "many", "levels": 256, "out": ")" +
      tmp_path("pcs_js_levels_many.txt") + "\"}\n" +
      R"({"kind": "trace_replay", "id": "one", "file": "x.pcst", "levels": 1,)"
      R"( "out": ")" +
      tmp_path("pcs_js_levels_one.txt") + "\"}\n");
  std::ostringstream log;
  const std::vector<JobOutcome> outcomes = JobService(1).serve(in, log);
  ASSERT_EQ(outcomes.size(), 3u);
  const char* got[] = {"got 4294967299", "got 256", "got 1"};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].ok);
    EXPECT_NE(outcomes[i].error.find(std::string("job key 'levels': must be "
                                                 "an integer in [2, 255], ") +
                                     got[i]),
              std::string::npos)
        << outcomes[i].error;
  }
  EXPECT_EQ(parse_job_line(R"({"levels": 255})").sim.levels, 255u);
  EXPECT_EQ(parse_job_line(R"({"kind": "trace_replay", "file": "x.pcst",)"
                           R"( "levels": 2})")
                .trace_replay.levels,
            2u);
}

}  // namespace
}  // namespace pcs
