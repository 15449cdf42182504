// pcs_e2e: runs one benchmark workload in this process and prints what it
// measured and checked.
//
//   pcs_e2e --workload W --seed S --seconds N --workdir DIR
//           [--setup-only] [--traced --trace-out PATH]
//
// Workloads: fig4_sweep, population, population_grid, serve_mix. It runs
// min(4, nproc) worker threads. The last stdout line is one JSON object:
// setup_s, attempted, failed, digest, metrics {name: {value, unit}},
// errors, threads and fast_math_active. e2e/run.py
// builds this binary and turns that object into the benchmark's result.
// Exits 1 when an op threw or a cross-check failed, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "exp/population_engine.hpp"
#include "util/vecmath.hpp"

namespace pcs::e2e {

double median(std::vector<double> xs) {
  const std::size_t n = xs.size();
  std::sort(xs.begin(), xs.end());
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string hex_digest(std::string_view bytes) {
  // population_fingerprint is the library's FNV-1a 64.
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(population_fingerprint(bytes)));
  return buf;
}

void put_u64(std::string& out, u64 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_bits(std::string& out, double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// min(4, CPUs this process may run on), like `nproc`.
pcs::u32 worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set)
                                                             : 1;
  return static_cast<pcs::u32>(std::clamp(n, 1, 4));
}

void print_report(const Report& r, pcs::u32 threads) {
  std::string j = "{\"setup_s\":" + json_number(r.setup_s) +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"digest\":" + json_string(r.digest) +
                  ",\"threads\":" + std::to_string(threads) +
                  ",\"fast_math_active\":" +
                  (vecmath::fast_math_active() ? "true" : "false") +
                  ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Report::Metric& m = r.metrics[i];
    if (i > 0) j += ',';
    j += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
         ",\"unit\":" + json_string(m.unit) + "}";
  }
  j += "},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) j += ',';
    j += json_string(r.errors[i]);
  }
  j += "]}";
  std::printf("%s\n", j.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pcs_e2e: %s\nusage: pcs_e2e --workload W --seed S --seconds N "
               "--workdir DIR [--setup-only] [--traced --trace-out PATH]\n",
               why);
  std::exit(2);
}

u64 parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected an unsigned integer");
  return v;
}

}  // namespace

}  // namespace pcs::e2e

int main(int argc, char** argv) {
  using namespace pcs::e2e;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64(value());
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value()));
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workdir.empty()) usage("--workdir is required");
  o.threads = worker_threads();
  if (o.traced && o.trace_out.empty()) usage("--traced needs --trace-out");

  void (*run)(const Options&, Report&) = nullptr;
  if (o.workload == "fig4_sweep") run = run_fig4_sweep;
  if (o.workload == "population") run = run_population;
  if (o.workload == "population_grid") run = run_population_grid;
  if (o.workload == "serve_mix") run = run_serve_mix;
  if (run == nullptr) usage("unknown --workload");

  Report r;
  try {
    run(o, r);
  } catch (const std::exception& e) {
    r.check(false, e.what());
  }
  if (o.traced) {
    r.metric("util.fast_math_active",
             pcs::vecmath::fast_math_active() ? 1.0 : 0.0, "count");
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  print_report(r, o.threads);
  return r.failed == 0 ? 0 : 1;
}
