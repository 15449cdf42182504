// pcs-lint: allow-file(DET001) wall clock is quarantined to each job's
// trailing job_profile telemetry record; the service log and every job
// output file are rendered purely from simulation state (TELEMETRY.md,
// POPULATION.md).
#include "exp/job_service.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/system.hpp"
#include "core/system_energy.hpp"
#include "exp/thread_pool.hpp"
#include "fault/ber_model.hpp"
#include "fault/fault_map.hpp"
#include "tech/technology.hpp"
#include "trace/workload_source.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace pcs {

namespace {

// ---- Flat JSON job lines ---------------------------------------------------
// The job file is one JSON object per line with string/number/bool values
// only -- flat on purpose, so the schema stays a table in POPULATION.md and
// a hand-rolled parser stays obviously correct. std::map keeps every key
// iteration ordered (determinism contract).

struct JsonValue {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kString;
  std::string str;  ///< a string's value, or a number's token text
  double num = 0.0;
  bool b = false;
};

struct JsonObj {
  std::map<std::string, JsonValue> values;
  /// Keys a j*() accessor has read; whatever remains is unknown to the
  /// schema and rejects the job.
  mutable std::set<std::string> consumed;
};

[[noreturn]] void bad_job(const std::string& what) {
  throw std::invalid_argument(what);
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
}

std::string parse_json_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') bad_job("job line: expected '\"'");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) bad_job("job line: dangling escape");
      const char e = s[i++];
      switch (e) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        default:
          bad_job(std::string("job line: unsupported escape '\\") + e + "'");
      }
    }
    out.push_back(c);
  }
  if (i >= s.size()) bad_job("job line: unterminated string");
  ++i;  // closing quote
  return out;
}

JsonValue parse_json_value(std::string_view s, std::size_t& i) {
  skip_ws(s, i);
  if (i >= s.size()) bad_job("job line: missing value");
  JsonValue v;
  if (s[i] == '"') {
    v.kind = JsonValue::Kind::kString;
    v.str = parse_json_string(s, i);
    return v;
  }
  if (s.compare(i, 4, "true") == 0) {
    v.kind = JsonValue::Kind::kBool;
    v.b = true;
    i += 4;
    return v;
  }
  if (s.compare(i, 5, "false") == 0) {
    v.kind = JsonValue::Kind::kBool;
    v.b = false;
    i += 5;
    return v;
  }
  const std::size_t start = i;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
          s[i] == '-' || s[i] == '+' || s[i] == '.' || s[i] == 'e' ||
          s[i] == 'E')) {
    ++i;
  }
  if (i == start) bad_job("job line: expected string, number, or bool");
  v.kind = JsonValue::Kind::kNumber;
  v.str = s.substr(start, i - start);
  char* end = nullptr;
  v.num = std::strtod(v.str.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    bad_job("job line: malformed number '" + v.str + "'");
  }
  return v;
}

JsonObj parse_flat_json(const std::string& line) {
  const std::string_view s(line);
  std::size_t i = 0;
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') bad_job("job line: expected '{'");
  ++i;
  JsonObj o;
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(s, i);
      const std::string key = parse_json_string(s, i);
      skip_ws(s, i);
      if (i >= s.size() || s[i] != ':') bad_job("job line: expected ':'");
      ++i;
      if (!o.values.emplace(key, parse_json_value(s, i)).second) {
        bad_job("job line: duplicate key '" + key + "'");
      }
      skip_ws(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        break;
      }
      bad_job("job line: expected ',' or '}'");
    }
  }
  skip_ws(s, i);
  if (i != s.size()) bad_job("job line: trailing characters after '}'");
  return o;
}

// ---- Schema accessors ------------------------------------------------------
// Every key the schema knows flows through exactly these four accessors;
// pcs-lint SCHEMA002 scans their call sites and diffs the key literals
// against POPULATION.md's ```job-schema block, both directions.

const JsonValue* jfind(const JsonObj& o, const char* key) {
  const auto it = o.values.find(key);
  if (it == o.values.end()) return nullptr;
  o.consumed.insert(key);
  return &it->second;
}

std::string jstr(const JsonObj& o, const char* key,
                 const std::string& fallback) {
  const JsonValue* v = jfind(o, key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::kString) {
    bad_job(std::string("job key '") + key + "': expected a string");
  }
  return v->str;
}

/// Integer keys read the number's own token, so every u64 is exact; a
/// sign, fraction, exponent or overflow is rejected.
u64 jnum(const JsonObj& o, const char* key, u64 fallback) {
  const JsonValue* v = jfind(o, key);
  if (v == nullptr) return fallback;
  const auto n = v->kind == JsonValue::Kind::kNumber ? parse_u64(v->str)
                                                      : std::nullopt;
  if (!n) {
    bad_job(std::string("job key '") + key +
            "': expected a non-negative integer");
  }
  return *n;
}

/// The `levels` key of sim and trace_replay jobs: nominal plus at least
/// one scaled level, and no more than a fault map's u8 codes hold.
u32 jlevels(const JsonObj& o, u32 fallback) {
  const u64 v = jnum(o, "levels", fallback);
  if (v < 2 || v > FaultMap::kMaxLevels) {
    bad_job("job key 'levels': must be an integer in [2, 255], got " +
            std::to_string(v));
  }
  return static_cast<u32>(v);
}

double jreal(const JsonObj& o, const char* key, double fallback) {
  const JsonValue* v = jfind(o, key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::kNumber) {
    bad_job(std::string("job key '") + key + "': expected a number");
  }
  return v->num;
}

bool jbool(const JsonObj& o, const char* key, bool fallback) {
  const JsonValue* v = jfind(o, key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::kBool) {
    bad_job(std::string("job key '") + key + "': expected true or false");
  }
  return v->b;
}

void reject_unknown_keys(const JsonObj& o, const std::string& kind) {
  for (const auto& [key, value] : o.values) {
    if (o.consumed.count(key) == 0) {
      bad_job("unknown job key '" + key + "' for kind '" + kind + "'");
    }
  }
}

}  // namespace

/// Job kinds, in Job::Kind enumerator order (SCHEMA002 diffs this table
/// against the documented schema).
constexpr const char* kJobKinds[] = {"sim", "population", "population_grid",
                                     "trace_replay"};
static_assert(sizeof(kJobKinds) / sizeof(kJobKinds[0]) == 4);

namespace {

const char* kind_name(Job::Kind kind) noexcept {
  return kJobKinds[static_cast<std::size_t>(kind)];
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// Axis keys hold comma-separated lists inside a JSON string (the job lines
// stay flat); empty items and trailing commas are rejected.
std::vector<std::string> split_list(const std::string& s, const char* key) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    const std::string item(trim(std::string_view(s).substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start)));
    if (item.empty()) {
      bad_job(std::string("job key '") + key +
              "': expected a comma-separated list with no empty items");
    }
    items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::vector<u64> parse_u64_list(const std::string& s, const char* key) {
  std::vector<u64> out;
  for (const std::string& item : split_list(s, key)) {
    const auto v = parse_u64(item);
    if (!v) {
      bad_job(std::string("job key '") + key + "': malformed integer '" +
              item + "'");
    }
    out.push_back(*v);
  }
  return out;
}

/// An associativity from key `key`: a CacheOrg holds it in a u32.
u32 to_assoc(u64 assoc, const char* key) {
  if (assoc == 0 || assoc > 0xffffffffULL) {
    bad_job(std::string("job key '") + key +
            "': associativity out of range");
  }
  return static_cast<u32>(assoc);
}

std::vector<double> parse_real_list(const std::string& s, const char* key) {
  std::vector<double> out;
  for (const std::string& item : split_list(s, key)) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      bad_job(std::string("job key '") + key + "': malformed number '" +
              item + "'");
    }
    if (!std::isfinite(v)) {
      bad_job(std::string("job key '") + key + "': non-finite number '" +
              item + "'");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace

Job parse_job_line(const std::string& line) {
  const JsonObj o = parse_flat_json(line);
  const std::string kind = jstr(o, "kind", "sim");
  Job job;
  if (kind == kind_name(Job::Kind::kSim)) {
    job.kind = Job::Kind::kSim;
    SimJobSpec& s = job.sim;
    s.id = jstr(o, "id", "");
    s.config = jstr(o, "config", s.config);
    if (s.config != "A" && s.config != "B") {
      bad_job("job key 'config': must be \"A\" or \"B\"");
    }
    s.policy = jstr(o, "policy", s.policy);
    if (s.policy != "baseline" && s.policy != "spcs" && s.policy != "dpcs" &&
        s.policy != "all") {
      bad_job("job key 'policy': must be baseline, spcs, dpcs, or all");
    }
    s.workload = jstr(o, "workload", s.workload);
    s.refs = jnum(o, "refs", s.refs);
    s.warmup = jnum(o, "warmup", s.warmup);
    s.chip_seed = jnum(o, "chip_seed", s.chip_seed);
    s.trace_seed = jnum(o, "trace_seed", s.trace_seed);
    s.levels = jlevels(o, s.levels);
    s.csv = jbool(o, "csv", s.csv);
    s.out = jstr(o, "out", "");
    s.trace_path = jstr(o, "trace", "");
  } else if (kind == kind_name(Job::Kind::kPopulation)) {
    job.kind = Job::Kind::kPopulation;
    PopulationJobSpec& p = job.population;
    p.id = jstr(o, "id", "");
    p.spec.num_chips = jnum(o, "chips", p.spec.num_chips);
    const u64 size_kb = jnum(o, "size_kb", 64);
    if (size_kb > PopulationGridSpec::kMaxSizeKb) {
      bad_job("job key 'size_kb': " + std::to_string(size_kb) +
              " KB overflows a 64-bit byte count");
    }
    p.spec.org.size_bytes = size_kb * 1024;
    p.spec.org.assoc = to_assoc(jnum(o, "assoc", p.spec.org.assoc), "assoc");
    p.spec.seed = jnum(o, "seed", p.spec.seed);
    p.spec.chips_per_shard =
        jnum(o, "shard_chips", p.spec.chips_per_shard);
    p.spec.grid_lo = jreal(o, "grid_lo", p.spec.grid_lo);
    p.spec.grid_hi = jreal(o, "grid_hi", p.spec.grid_hi);
    p.spec.grid_step = jreal(o, "grid_step", p.spec.grid_step);
    p.spec.spcs_min_capacity =
        jreal(o, "min_capacity", p.spec.spcs_min_capacity);
    p.sigma = jreal(o, "sigma", p.sigma);
    if (!std::isfinite(p.sigma) || p.sigma < 0.0) {
      bad_job("job key 'sigma': must be finite and positive (or 0 for the "
              "soi45 default)");
    }
    p.out = jstr(o, "out", "");
    p.trace_path = jstr(o, "trace", "");
    p.checkpoint = jstr(o, "checkpoint", "");
    p.checkpoint_shards = jnum(o, "checkpoint_shards", p.checkpoint_shards);
    p.resume = jbool(o, "resume", p.resume);
  } else if (kind == kind_name(Job::Kind::kPopulationGrid)) {
    job.kind = Job::Kind::kPopulationGrid;
    PopulationGridJobSpec& g = job.population_grid;
    g.id = jstr(o, "id", "");
    PopulationSpec& b = g.spec.base;
    b.num_chips = jnum(o, "chips", b.num_chips);
    b.seed = jnum(o, "seed", b.seed);
    b.chips_per_shard = jnum(o, "shard_chips", b.chips_per_shard);
    b.grid_lo = jreal(o, "grid_lo", b.grid_lo);
    b.grid_hi = jreal(o, "grid_hi", b.grid_hi);
    b.grid_step = jreal(o, "grid_step", b.grid_step);
    b.spcs_min_capacity = jreal(o, "min_capacity", b.spcs_min_capacity);
    g.spec.sizes_kb = parse_u64_list(jstr(o, "sizes_kb", "64"), "sizes_kb");
    g.spec.assocs.clear();
    for (const u64 a : parse_u64_list(jstr(o, "assocs", "4"), "assocs")) {
      g.spec.assocs.push_back(to_assoc(a, "assocs"));
    }
    {
      const std::string sigmas = jstr(o, "sigmas", "");
      if (!sigmas.empty()) {
        g.spec.sigmas = parse_real_list(sigmas, "sigmas");
      }
    }
    g.out = jstr(o, "out", "");
    g.trace_path = jstr(o, "trace", "");
    g.checkpoint = jstr(o, "checkpoint", "");
    g.checkpoint_shards = jnum(o, "checkpoint_shards", g.checkpoint_shards);
    g.resume = jbool(o, "resume", g.resume);
    g.spec.validate();
  } else if (kind == kind_name(Job::Kind::kTraceReplay)) {
    job.kind = Job::Kind::kTraceReplay;
    TraceReplayJobSpec& t = job.trace_replay;
    t.id = jstr(o, "id", "");
    t.file = jstr(o, "file", "");
    if (t.file.empty()) {
      bad_job("job key 'file' is required for kind 'trace_replay'");
    }
    t.config = jstr(o, "config", t.config);
    if (t.config != "A" && t.config != "B") {
      bad_job("job key 'config': must be \"A\" or \"B\"");
    }
    t.policy = jstr(o, "policy", t.policy);
    if (t.policy != "baseline" && t.policy != "spcs" && t.policy != "dpcs" &&
        t.policy != "all") {
      bad_job("job key 'policy': must be baseline, spcs, dpcs, or all");
    }
    t.refs = jnum(o, "refs", t.refs);
    t.warmup = jnum(o, "warmup", t.warmup);
    t.chip_seed = jnum(o, "chip_seed", t.chip_seed);
    t.levels = jlevels(o, t.levels);
    t.csv = jbool(o, "csv", t.csv);
    t.out = jstr(o, "out", "");
    t.trace_path = jstr(o, "trace", "");
  } else {
    bad_job("unknown job kind '" + kind +
            "' (known: sim, population, population_grid, trace_replay)");
  }
  reject_unknown_keys(o, kind);
  return job;
}

void run_sim_job(const SimJobSpec& o, std::ostream& out, u32 num_threads,
                 TraceSink* trace) {
  SystemConfig cfg =
      o.config == "B" ? SystemConfig::config_b() : SystemConfig::config_a();
  cfg.num_vdd_levels = o.levels;
  RunParams rp;
  rp.max_refs = o.refs;
  rp.warmup_refs = o.warmup ? o.warmup : o.refs / 4;

  std::vector<PolicyKind> kinds;
  if (o.policy == "baseline" || o.policy == "all") {
    kinds.push_back(PolicyKind::kBaseline);
  }
  if (o.policy == "spcs" || o.policy == "all") {
    kinds.push_back(PolicyKind::kStatic);
  }
  if (o.policy == "dpcs" || o.policy == "all") {
    kinds.push_back(PolicyKind::kDynamic);
  }
  if (kinds.empty()) {
    throw std::invalid_argument("unknown policy '" + o.policy + "'");
  }

  // The policy runs are independent simulations; fan them across the
  // workers (each builds its own trace and system -- a file workload just
  // gets one FileTrace handle per task) and report in policy order,
  // identical to the serial loop at any thread count. Telemetry is
  // buffered per task and replayed in policy order below, so the trace
  // stream is byte-identical at any thread count too.
  const bool tracing = trace != nullptr;
  std::vector<MemoryTraceSink> task_traces(kinds.size());
  const std::vector<SimReport> reports = parallel_index_map(
      num_threads == 0 ? pcs_thread_count() : num_threads, kinds.size(),
      [&](u64 i) {
        auto src = make_workload_source(o.workload, o.trace_seed);
        PcsSystem sys(cfg, kinds[i], o.chip_seed);
        if (tracing) sys.set_trace(&task_traces[i]);
        return sys.run(*src, rp);
      });
  if (tracing) {
    for (const MemoryTraceSink& tr : task_traces) tr.replay_into(*trace);
  }

  const SystemEnergyModel sys_energy({}, cfg.clock_ghz * 1e9);
  TextTable t({"policy", "cycles", "IPC", "L1D miss", "L2 miss",
               "cache energy", "system energy", "L2 avg VDD", "transitions"});
  if (o.csv) {
    out << "config,workload,policy,refs,cycles,ipc,l1d_missrate,"
           "l2_missrate,cache_energy_j,system_energy_j,l2_avg_vdd,"
           "transitions\n";
  }
  char line[1024];
  for (u64 i = 0; i < kinds.size(); ++i) {
    const SimReport& r = reports[i];
    const auto se = sys_energy.evaluate(r);
    const u32 trans = r.l1i.transitions + r.l1d.transitions + r.l2.transitions;
    if (o.csv) {
      std::snprintf(line, sizeof line,
                    "%s,%s,%s,%llu,%llu,%.4f,%.6f,%.6f,%.6e,%.6e,%.3f,%u\n",
                    r.config_name.c_str(), r.workload.c_str(),
                    r.policy.c_str(), static_cast<unsigned long long>(r.refs),
                    static_cast<unsigned long long>(r.cycles), r.ipc,
                    r.l1d.miss_rate, r.l2.miss_rate, r.total_cache_energy(),
                    se.total(), r.l2.avg_vdd, trans);
      out << line;
    } else {
      t.add_row({r.policy, fmt_count(r.cycles), fmt_fixed(r.ipc, 3),
                 fmt_pct(r.l1d.miss_rate, 2), fmt_pct(r.l2.miss_rate, 2),
                 fmt_joules(r.total_cache_energy()), fmt_joules(se.total()),
                 fmt_fixed(r.l2.avg_vdd, 3) + " V", std::to_string(trans)});
    }
  }
  if (!o.csv) {
    std::snprintf(line, sizeof line,
                  "config %s, workload %s, %llu measured refs\n\n",
                  cfg.name.c_str(), o.workload.c_str(),
                  static_cast<unsigned long long>(o.refs));
    out << line;
    t.print(out);
  }
}

namespace {

// sigma == 0 keeps the full soi45 calibration; otherwise only sigma is
// overridden (mu stays at the soi45 anchor), matching chip_binning's
// optional [sigma] argument.
BerModel job_ber_model(Volt sigma) {
  const Technology tech = Technology::soi45();
  if (sigma == 0.0) return BerModel(tech);
  return BerModel(tech.ber_mu, sigma);
}

CheckpointOptions job_checkpoint(const std::string& path, u64 every_shards,
                                 bool resume) {
  CheckpointOptions ckpt;
  ckpt.path = path;
  ckpt.every_shards = every_shards;
  ckpt.resume = resume;
  return ckpt;
}

}  // namespace

void run_population_job(const PopulationJobSpec& j, std::ostream& out,
                        u32 num_threads, TraceSink* trace) {
  const BerModel ber = job_ber_model(j.sigma);
  const PopulationEngine engine(ber, num_threads);
  const CheckpointOptions ckpt =
      job_checkpoint(j.checkpoint, j.checkpoint_shards, j.resume);
  const PopulationResult result =
      engine.run(j.spec, trace, ckpt.path.empty() ? nullptr : &ckpt);
  render_population_report(j.spec, result, out);
}

void run_population_grid_job(const PopulationGridJobSpec& j, std::ostream& out,
                             u32 num_threads, TraceSink* trace) {
  const BerModel ber(Technology::soi45());
  const PopulationGridEngine engine(ber, num_threads);
  const CheckpointOptions ckpt =
      job_checkpoint(j.checkpoint, j.checkpoint_shards, j.resume);
  const PopulationGridResult result =
      engine.run(j.spec, trace, ckpt.path.empty() ? nullptr : &ckpt);
  render_population_grid_report(j.spec, result, out);
}

void run_trace_replay_job(const TraceReplayJobSpec& j, std::ostream& out,
                          u32 num_threads, TraceSink* trace) {
  // Exactly a sim job whose workload is the file; the trace_seed is
  // irrelevant because file workloads ignore it (the recorded stream IS the
  // workload), so any value keeps the output byte-identical to pcs_sim.
  SimJobSpec s;
  s.id = j.id;
  s.config = j.config;
  s.policy = j.policy;
  s.workload = j.file;
  s.refs = j.refs;
  s.warmup = j.warmup;
  s.chip_seed = j.chip_seed;
  s.trace_seed = 0;
  s.levels = j.levels;
  s.csv = j.csv;
  run_sim_job(s, out, num_threads, trace);
}

namespace {

/// Runs one job to completion: renders into a memory buffer first so a
/// failed job never leaves a partial output file, then appends the
/// wall-clock job_profile record to the job's own trace (the only place
/// timing is allowed to appear).
JobOutcome execute_job(const Job& job) {
  JobOutcome oc;
  oc.id = job.id();
  const auto t0 = std::chrono::steady_clock::now();
  try {
    std::unique_ptr<TraceSink> sink;
    if (!job.trace_path().empty()) {
      sink = make_trace_sink(job.trace_path());
      emit_trace_header(*sink);
    }
    std::ostringstream body;
    if (job.kind == Job::Kind::kSim) {
      run_sim_job(job.sim, body, 1, sink.get());
    } else if (job.kind == Job::Kind::kPopulation) {
      run_population_job(job.population, body, 1, sink.get());
    } else if (job.kind == Job::Kind::kPopulationGrid) {
      run_population_grid_job(job.population_grid, body, 1, sink.get());
    } else {
      run_trace_replay_job(job.trace_replay, body, 1, sink.get());
    }
    std::ofstream f(job.out_path(), std::ios::binary | std::ios::trunc);
    if (!f) {
      throw std::runtime_error("cannot open output file '" + job.out_path() +
                               "'");
    }
    f << body.str();
    f.flush();
    if (!f) {
      throw std::runtime_error("write failed for '" + job.out_path() + "'");
    }
    oc.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (sink) {
      sink->emit(TraceRecord("job_profile")
                     .field("job", oc.id)
                     .field("kind", kind_name(job.kind))
                     .field("wall_ms", oc.wall_ms));
      sink->finish();
    }
    oc.ok = true;
  } catch (const std::exception& e) {
    oc.ok = false;
    oc.error = e.what();
  }
  return oc;
}

}  // namespace

JobService::JobService(u32 num_threads)
    : num_threads_(num_threads == 0 ? pcs_thread_count() : num_threads) {}

std::vector<JobOutcome> JobService::serve(std::istream& in,
                                          std::ostream& log) {
  struct Slot {
    bool resolved = false;
    JobOutcome outcome;
    std::future<JobOutcome> fut;
  };
  std::vector<Slot> slots;
  // Jobs are submitted as their lines arrive (FIFO-friendly); with one
  // thread they run inline instead, producing the same artifacts and the
  // same log.
  std::optional<ThreadPool> pool;
  if (num_threads_ > 1) pool.emplace(num_threads_);

  // Duplicate ids would race on the same out/trace/checkpoint artifacts (and
  // duplicate out or checkpoint paths collide even under distinct ids), so
  // each claims its value at the line that first used it and later claimants
  // are rejected, pointing back at that line.
  std::map<std::string, u64> seen_ids, seen_outs, seen_ckpts;
  const auto claim = [](std::map<std::string, u64>& seen,
                        const std::string& value, u64 lineno) -> u64 {
    const auto [it, inserted] = seen.emplace(value, lineno);
    return inserted ? 0 : it->second;
  };

  std::string raw;
  u64 lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    Job job;
    bool accepted = true;
    std::string err;
    try {
      job = parse_job_line(std::string(line));
    } catch (const std::exception& e) {
      accepted = false;
      err = e.what();
    }
    std::string id;
    if (accepted) {
      id = job.id().empty() ? "job" + std::to_string(slots.size() + 1)
                            : job.id();
      if (job.kind == Job::Kind::kSim) {
        job.sim.id = id;
      } else if (job.kind == Job::Kind::kPopulation) {
        job.population.id = id;
      } else if (job.kind == Job::Kind::kPopulationGrid) {
        job.population_grid.id = id;
      } else {
        job.trace_replay.id = id;
      }
      if (job.out_path().empty()) {
        accepted = false;
        err = "job key 'out' is required in serve mode";
      }
    } else {
      id = "line" + std::to_string(lineno);
    }
    if (accepted) {
      if (const u64 first = claim(seen_ids, id, lineno)) {
        accepted = false;
        err = "duplicate job id '" + id + "' (first submitted at line " +
              std::to_string(first) + ")";
      } else if (const u64 out_first =
                     claim(seen_outs, job.out_path(), lineno)) {
        accepted = false;
        err = "output path '" + job.out_path() +
              "' already claimed by the job at line " +
              std::to_string(out_first);
      } else if (!job.checkpoint_path().empty()) {
        if (const u64 ck_first =
                claim(seen_ckpts, job.checkpoint_path(), lineno)) {
          accepted = false;
          err = "checkpoint path '" + job.checkpoint_path() +
                "' already claimed by the job at line " +
                std::to_string(ck_first);
        }
      }
    }

    Slot slot;
    if (!accepted) {
      log << "job " << id << ": rejected (line " << lineno << "): " << err
          << "\n";
      slot.resolved = true;
      slot.outcome.id = id;
      slot.outcome.error = err;
    } else {
      log << "job " << id << ": accepted (" << kind_name(job.kind) << " -> "
          << job.out_path() << ")\n";
      if (pool) {
        slot.fut = pool->submit([job] { return execute_job(job); });
      } else {
        slot.resolved = true;
        slot.outcome = execute_job(job);
      }
    }
    slots.push_back(std::move(slot));
  }

  // Completion report in submission order, after the queue drains; no
  // wall-clock values (those live in each job's trace).
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(slots.size());
  u64 ok = 0;
  for (Slot& s : slots) {
    JobOutcome oc = s.resolved ? std::move(s.outcome) : s.fut.get();
    if (oc.ok) {
      ++ok;
      log << "job " << oc.id << ": ok\n";
    } else {
      log << "job " << oc.id << ": failed: " << oc.error << "\n";
    }
    outcomes.push_back(std::move(oc));
  }
  log << "served " << outcomes.size() << " jobs: " << ok << " ok, "
      << outcomes.size() - ok << " failed\n";
  return outcomes;
}

}  // namespace pcs
