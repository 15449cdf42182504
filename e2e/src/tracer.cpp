#include "tracer.hpp"

#include <fstream>
#include <stdexcept>

namespace pcs::e2e {

namespace {

constexpr const char* kLayers[] = {"workload", "trace", "cache",
                                   "core",     "util",  "exp"};

std::string layer_of(const std::string& call) {
  return call.substr(0, call.find('.'));
}

}  // namespace

u64 Tracer::open(std::string name, u64 parent) {
  const u64 id = spans_.size() + 1;
  spans_.push_back({std::move(name), id, parent, now_ns(), 0});
  return id;
}

void Tracer::close(u64 id) { spans_.at(id - 1).end = now_ns(); }

CallAgg& Tracer::calls(u64 span, const char* name) {
  auto [it, inserted] = index_.try_emplace({span, name}, nullptr);
  if (inserted) {
    CallAgg& a = aggs_.emplace_back();
    a.name = name;
    a.span = span;
    it->second = &a;
  }
  return *it->second;
}

void Tracer::calibrate() noexcept {
  const i64 b0 = now_ns();
  for (int i = 0; i < 64; ++i) {
    const i64 t0 = now_ns();
    empty_.since(t0);
  }
  calibration_ns_ += now_ns() - b0;
}

double Tracer::inside_cost_ns() const noexcept {
  return empty_.calls == 0 ? 0.0
                           : static_cast<double>(empty_.raw_ns) /
                                 static_cast<double>(empty_.calls);
}

double Tracer::span_cost_ns() const noexcept {
  return empty_.calls == 0 ? 0.0
                           : static_cast<double>(calibration_ns_) /
                                 static_cast<double>(empty_.calls);
}

void Tracer::report_layers(u64 root, double untraced_s, Report& r) const {
  const Span& s = spans_.at(root - 1);
  const double inside = inside_cost_ns();
  struct Total {
    u64 units = 0;
    double self_ns = 0.0;
  };
  std::map<std::string, Total> by_call;
  std::map<std::string, double> by_layer;
  double calls = 0.0;
  for (const CallAgg& a : aggs_) {
    const double self = static_cast<double>(a.raw_ns) -
                        static_cast<double>(a.calls) * inside;
    calls += static_cast<double>(a.calls);
    by_call[a.name].units += a.units;
    by_call[a.name].self_ns += self;
    by_layer[layer_of(a.name)] += self;
  }
  const double raw_wall = static_cast<double>(s.end - s.start);
  const double wall =
      raw_wall - static_cast<double>(calibration_ns_) - calls * span_cost_ns();
  double covered = 0.0;
  for (const char* layer : kLayers) {
    covered += by_layer[layer];
    r.metric(std::string(layer) + ".share", 100.0 * by_layer[layer] / wall,
             "%");
  }
  for (const auto& [name, t] : by_call) {
    if (t.self_ns > 0.0) {
      r.metric(name + "_per_s",
               static_cast<double>(t.units) / (t.self_ns * 1e-9), "1/s");
    }
  }
  const double coverage = 100.0 * covered / wall;
  r.metric("layer_coverage_pct", coverage, "%");
  r.metric("trace_overhead_pct", 100.0 * (raw_wall * 1e-9 / untraced_s - 1.0),
           "%");
  r.metric("span_cost_ns", span_cost_ns(), "ns");
  r.metric("span_inside_cost_ns", inside, "ns");
  r.check(coverage >= 95.0 && coverage <= 105.0,
          "layer self times cover " + std::to_string(coverage) +
              "% of the traced wall (want 95..105%)");
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& workload) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write span file '" + path + "'");
  const double inside = inside_cost_ns();
  const i64 t0 = spans_.empty() ? 0 : spans_.front().start;
  f << "{\"type\":\"meta\",\"workload\":\"" << workload
    << "\",\"span_cost_ns\":" << span_cost_ns()
    << ",\"span_inside_cost_ns\":" << inside
    << ",\"span_cost_samples\":" << empty_.calls << "}\n";
  for (const Span& s : spans_) {
    f << "{\"type\":\"span\",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start - t0
      << ",\"end_ns\":" << s.end - t0 << "}\n";
  }
  for (const CallAgg& a : aggs_) {
    std::size_t top = a.hist.size();
    while (top > 0 && a.hist[top - 1] == 0) --top;
    f << "{\"type\":\"calls\",\"span\":" << a.span << ",\"name\":\"" << a.name
      << "\",\"calls\":" << a.calls << ",\"units\":" << a.units
      << ",\"self_ns\":"
      << static_cast<double>(a.raw_ns) - static_cast<double>(a.calls) * inside
      << ",\"raw_hist_log2_ns\":[";
    for (std::size_t b = 0; b < top; ++b) f << (b ? "," : "") << a.hist[b];
    f << "]}\n";
  }
  if (!f.flush()) throw std::runtime_error("write failed for '" + path + "'");
}

}  // namespace pcs::e2e
