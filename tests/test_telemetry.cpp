// Telemetry subsystem: sink serialization goldens, the documented schema
// contract (TELEMETRY.md), trace determinism across thread counts, zero
// perturbation of simulation results, and controller dynamics recovered
// from the traced VDD decisions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "exp/sweep_engine.hpp"
#include "run_one_loop.hpp"
#include "telemetry/trace_sink.hpp"

namespace pcs {
namespace {

std::vector<std::string> field_keys(const TraceRecord& rec) {
  std::vector<std::string> keys;
  for (const auto& f : rec.fields()) keys.push_back(f.key);
  return keys;
}

u64 get_u64(const TraceRecord& rec, const std::string& key) {
  for (const auto& f : rec.fields()) {
    if (key == f.key) return std::get<u64>(f.value);
  }
  ADD_FAILURE() << "missing u64 field " << key << " in " << rec.type();
  return 0;
}

double get_f64(const TraceRecord& rec, const std::string& key) {
  for (const auto& f : rec.fields()) {
    if (key == f.key) return std::get<double>(f.value);
  }
  ADD_FAILURE() << "missing double field " << key << " in " << rec.type();
  return 0.0;
}

std::string get_str(const TraceRecord& rec, const std::string& key) {
  for (const auto& f : rec.fields()) {
    if (key == f.key) return std::get<std::string>(f.value);
  }
  ADD_FAILURE() << "missing string field " << key << " in " << rec.type();
  return {};
}

// ---------------------------------------------------------------------------
// Sink serialization goldens

TEST(JsonlTraceSink, SerializesOneObjectPerLine) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceRecord rec("example");
  rec.field("cache", "L2")
      .field("interval", u64{7})
      .field("vdd", 0.71)
      .field("deferred", false);
  sink.emit(rec);
  EXPECT_EQ(out.str(),
            "{\"type\":\"example\",\"cache\":\"L2\",\"interval\":7,"
            "\"vdd\":0.71,\"deferred\":false}\n");
}

TEST(JsonlTraceSink, EscapesStringsAndRoundTripsDoubles) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  TraceRecord rec("example");
  rec.field("name", "a\"b\\c").field("x", 1.0 / 3.0);
  sink.emit(rec);
  EXPECT_EQ(out.str(),
            "{\"type\":\"example\",\"name\":\"a\\\"b\\\\c\","
            "\"x\":0.3333333333333333}\n");
}

TEST(CsvTraceSink, OneFilePerRecordTypeWithHeader) {
  const std::string base = testing::TempDir() + "pcs_csv_golden.csv";
  {
    CsvTraceSink sink(base);
    TraceRecord a("alpha");
    a.field("k", u64{1}).field("s", "plain");
    sink.emit(a);
    TraceRecord a2("alpha");
    a2.field("k", u64{2}).field("s", "needs,quoting");
    sink.emit(a2);
    TraceRecord b("beta");
    b.field("v", 0.5);
    sink.emit(b);
  }
  std::ifstream alpha(testing::TempDir() + "pcs_csv_golden.alpha.csv");
  std::string l1, l2, l3;
  std::getline(alpha, l1);
  std::getline(alpha, l2);
  std::getline(alpha, l3);
  EXPECT_EQ(l1, "k,s");
  EXPECT_EQ(l2, "1,plain");
  EXPECT_EQ(l3, "2,\"needs,quoting\"");
  std::ifstream beta(testing::TempDir() + "pcs_csv_golden.beta.csv");
  std::getline(beta, l1);
  std::getline(beta, l2);
  EXPECT_EQ(l1, "v");
  EXPECT_EQ(l2, "0.5");
}

TEST(JsonlTraceSink, WriteToFullDeviceThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  {
    // A short trace fits in the stream's buffer: finish() reports it.
    JsonlTraceSink sink(std::string("/dev/full"));
    emit_trace_header(sink);
    try {
      sink.finish();
      ADD_FAILURE() << "finish() accepted a failed write";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "write failed for trace file: /dev/full");
    }
  }
  // A long one fails at the emit whose write overflows the buffer.
  JsonlTraceSink sink(std::string("/dev/full"));
  TraceRecord rec("example");
  rec.field("name", std::string(100, 'x'));
  EXPECT_THROW(
      for (int i = 0; i < 10'000; ++i) sink.emit(rec), std::runtime_error);
}

TEST(TraceHeader, CarriesSchemaVersion) {
  MemoryTraceSink sink;
  emit_trace_header(sink);
  ASSERT_EQ(sink.records().size(), 1u);
  const TraceRecord& rec = sink.records()[0];
  EXPECT_STREQ(rec.type(), "trace_header");
  EXPECT_EQ(field_keys(rec),
            (std::vector<std::string>{"schema_version", "producer"}));
  EXPECT_EQ(get_u64(rec, "schema_version"), kTelemetrySchemaVersion);
}

// ---------------------------------------------------------------------------
// Schema golden: every record type a traced run emits must match the field
// lists documented in TELEMETRY.md exactly (names AND order).

const std::map<std::string, std::vector<std::string>>& documented_schema() {
  static const std::map<std::string, std::vector<std::string>> schema = {
      {"trace_header", {"schema_version", "producer"}},
      {"measurement_start", {"cache", "cycle", "interval"}},
      {"interval",
       {"cache", "interval", "cycle", "level", "vdd", "accesses", "misses",
        "miss_rate", "caat", "naat", "predicted_aat", "deferred",
        "blocks_faulty", "gated_fraction", "stall_cycles"}},
      {"occupancy_way",
       {"cache", "interval", "cycle", "way", "valid_sets", "dirty_sets",
        "faulty_sets"}},
      {"occupancy_set",
       {"cache", "interval", "cycle", "valid_ways", "sets"}},
      {"transition",
       {"cache", "cycle", "from_level", "to_level", "from_vdd", "to_vdd",
        "blocks_newly_faulty", "blocks_restored", "writebacks",
        "invalidations", "penalty_cycles"}},
      {"energy",
       {"cache", "interval", "cycle", "static_j", "dynamic_j", "transition_j",
        "total_j", "avg_power_w", "avg_vdd"}},
      {"cache_stats",
       {"cache", "accesses", "hits", "misses", "reads", "writes", "fills",
        "evictions", "writebacks_out", "writebacks_in", "invalidations",
        "bypasses", "transition_writebacks"}},
      {"run_summary",
       {"config", "workload", "policy", "refs", "instructions", "cycles",
        "ipc", "mem_reads", "mem_writes"}},
      {"runner_task",
       {"task", "config", "workload", "policy", "chip_seed", "trace_seed"}},
      {"sweep_task_profile", {"task", "lanes", "wall_ms"}},
      {"sweep_profile",
       {"threads", "shards", "max_lanes", "steals", "max_queue_depth",
        "wall_ms_total"}},
      {"population_shard", {"shard", "first_chip", "chips", "unusable"}},
      {"population_grid_point",
       {"point", "size_kb", "assoc", "sigma", "chips", "unusable",
        "no_spcs"}},
      {"job_profile", {"job", "kind", "wall_ms"}},
  };
  return schema;
}

// One DPCS run long enough to exercise transitions (hmmer descends on both
// L1D and L2 with these seeds; the run is deterministic).
const MemoryTraceSink& dpcs_trace_fixture() {
  static const MemoryTraceSink* sink = [] {
    auto* s = new MemoryTraceSink;
    emit_trace_header(*s);
    RunParams rp;
    rp.max_refs = 400'000;
    rp.warmup_refs = 100'000;
    run_one(SystemConfig::config_a(), "hmmer", PolicyKind::kDynamic, 1, 42,
            rp, s);
    return s;
  }();
  return *sink;
}

TEST(TelemetrySchema, EveryEmittedRecordMatchesDocumentedFields) {
  const auto& schema = documented_schema();
  std::map<std::string, u64> seen;
  for (const TraceRecord& rec : dpcs_trace_fixture().records()) {
    const auto it = schema.find(rec.type());
    ASSERT_NE(it, schema.end()) << "undocumented record type " << rec.type();
    EXPECT_EQ(field_keys(rec), it->second)
        << "field mismatch in record type " << rec.type();
    ++seen[rec.type()];
  }
  // The simulation-level record types must all actually occur.
  for (const char* type : {"trace_header", "measurement_start", "interval",
                           "occupancy_way", "occupancy_set", "transition",
                           "energy", "cache_stats", "run_summary"}) {
    EXPECT_GT(seen[type], 0u) << "record type never emitted: " << type;
  }
}

TEST(TelemetrySchema, RunnerRecordsMatchDocumentedFields) {
  RunParams rp;
  rp.max_refs = 20'000;
  rp.warmup_refs = 5'000;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  MemoryTraceSink sink;
  RunnerStats stats;
  // One lane per shard: the two points run as two pool tasks.
  SweepRunner({.num_threads = 2, .max_lanes = 1}).run(grid, &sink, &stats);

  const auto& schema = documented_schema();
  std::map<std::string, u64> seen;
  for (const TraceRecord& rec : sink.records()) {
    const auto it = schema.find(rec.type());
    ASSERT_NE(it, schema.end()) << "undocumented record type " << rec.type();
    EXPECT_EQ(field_keys(rec), it->second)
        << "field mismatch in record type " << rec.type();
    ++seen[rec.type()];
  }
  EXPECT_EQ(seen["runner_task"], 2u);         // one per grid point
  EXPECT_EQ(seen["sweep_task_profile"], 2u);  // one per shard
  EXPECT_EQ(seen["sweep_profile"], 1u);
  EXPECT_EQ(stats.tasks, 2u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(stats.task_wall_ms.size(), 2u);
}

// ---------------------------------------------------------------------------
// Determinism: the deterministic trace sections must be byte-identical at
// 1 vs 8 threads for the same seeds (acceptance criterion), and equal to
// the run_one loop's records framed by runner_task.

ExperimentGrid determinism_grid() {
  RunParams rp;
  rp.max_refs = 30'000;
  rp.warmup_refs = 7'500;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_workload("mcf")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kDynamic)
      .seeds(1, 42)
      .params(rp);
  return grid;
}

std::string deterministic_jsonl(u32 threads, u32 max_lanes = 16) {
  std::ostringstream out;
  {
    JsonlTraceSink sink(out);
    emit_trace_header(sink);
    SweepRunner({.num_threads = threads, .max_lanes = max_lanes})
        .run(determinism_grid(), &sink);
  }
  // Strip the documented non-deterministic profiling section (wall-clock
  // fields vary run to run); everything else must be byte-stable.
  std::istringstream in(out.str());
  std::string line, kept;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"sweep_task_profile\"") != std::string::npos ||
        line.find("\"type\":\"sweep_profile\"") != std::string::npos) {
      continue;
    }
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST(TelemetryDeterminism, TraceBytesIdenticalAcrossThreadCounts) {
  const std::string serial = deterministic_jsonl(1);
  const std::string parallel = deterministic_jsonl(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(TelemetryDeterminism, SweepTraceEqualsRunOneLoopTrace) {
  std::ostringstream out;
  {
    JsonlTraceSink sink(out);
    emit_trace_header(sink);
    run_one_loop(determinism_grid().expand(), &sink);
  }
  const std::string want = out.str();
  EXPECT_NE(want.find("\"type\":\"transition\""), std::string::npos);
  for (const u32 lanes : {1u, 16u}) {
    for (const u32 threads : {1u, 4u}) {
      EXPECT_EQ(deterministic_jsonl(threads, lanes), want)
          << lanes << " lanes, " << threads << " threads";
    }
  }
}

TEST(TelemetryDeterminism, TracingDoesNotPerturbSimulationResults) {
  RunParams rp;
  rp.max_refs = 50'000;
  rp.warmup_refs = 12'500;
  const SimReport plain = run_one(SystemConfig::config_a(), "hmmer",
                                  PolicyKind::kDynamic, 1, 42, rp);
  MemoryTraceSink sink;
  const SimReport traced = run_one(SystemConfig::config_a(), "hmmer",
                                   PolicyKind::kDynamic, 1, 42, rp, &sink);
  EXPECT_EQ(plain, traced);  // exact field-wise equality
  EXPECT_FALSE(sink.records().empty());
}

// ---------------------------------------------------------------------------
// Controller dynamics: the traced decision sequence must obey the DPCS
// hysteresis thresholds (paper Listing 1) and the ladder bounds.

struct CacheParams {
  u64 interval_accesses;
  u32 super_interval;
  u32 spcs_level;
};

TEST(TelemetryDynamics, TracedVddStepsRespectHysteresis) {
  const SystemConfig cfg = SystemConfig::config_a();
  PcsSystem probe(cfg, PolicyKind::kDynamic, 1);
  std::map<std::string, CacheParams> params = {
      {"L1I", {cfg.l1i.dpcs_interval, cfg.l1i.super_interval,
               probe.ladder("L1I").spcs_level}},
      {"L1D", {cfg.l1d.dpcs_interval, cfg.l1d.super_interval,
               probe.ladder("L1D").spcs_level}},
      {"L2", {cfg.l2.dpcs_interval, cfg.l2.super_interval,
              probe.ladder("L2").spcs_level}},
  };

  // A committed transition is followed (same window close) by the interval
  // record carrying the estimates that caused it.
  std::map<std::string, const TraceRecord*> pending;
  u64 checked = 0;
  for (const TraceRecord& rec : dpcs_trace_fixture().records()) {
    const std::string type = rec.type();
    if (type == "transition") {
      const std::string cache = get_str(rec, "cache");
      const CacheParams& p = params.at(cache);
      const u64 from = get_u64(rec, "from_level");
      const u64 to = get_u64(rec, "to_level");
      EXPECT_GE(to, 1u);
      EXPECT_LE(to, p.spcs_level);
      // Steps are single-level except the periodic park back to SPCS.
      EXPECT_TRUE(to == from + 1 || to + 1 == from || to == p.spcs_level)
          << cache << " jumped " << from << " -> " << to;
      pending[cache] = &rec;
    } else if (type == "interval") {
      const std::string cache = get_str(rec, "cache");
      const auto it = pending.find(cache);
      if (it == pending.end()) continue;
      const TraceRecord& tr = *it->second;
      pending.erase(it);

      const CacheParams& p = params.at(cache);
      const u64 from = get_u64(tr, "from_level");
      const u64 to = get_u64(tr, "to_level");
      const double tp =
          static_cast<double>(get_u64(tr, "penalty_cycles")) /
          (static_cast<double>(p.interval_accesses) * p.super_interval);
      const double caat = get_f64(rec, "caat");
      const double naat = get_f64(rec, "naat");
      const double predicted = get_f64(rec, "predicted_aat");
      const double eps = 1e-9;
      if (to < from) {
        // Descend: the predicted one-level-down AAT stayed inside LT band.
        EXPECT_LT(predicted,
                  (1.0 + cfg.low_threshold) * (naat + tp) + eps)
            << cache << " descended " << from << " -> " << to
            << " without the LT condition holding";
        ++checked;
      } else if (to > from && to < p.spcs_level) {
        // Unambiguous ascend (a park always lands exactly on SPCS).
        EXPECT_GT(caat, (1.0 + cfg.high_threshold) * (naat + tp) - eps)
            << cache << " ascended " << from << " -> " << to
            << " without the HT condition holding";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "fixture produced no checkable transitions";
}

}  // namespace
}  // namespace pcs
