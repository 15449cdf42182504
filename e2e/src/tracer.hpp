// In-memory span recorder for the traced run.
//
// Structural spans -- one per run, group, shard and job -- keep name, id,
// parent, start and end. Calls into library functions are far too many to
// keep one by one, so the calls of one name under one structural span are
// aggregated: call count, units of work, summed nanoseconds and a log2
// histogram. Call names are "<layer>.<unit>" (e.g. "cache.accesses"), the
// layer being the src/ module the called function lives in.
//
// Every call is timed on its own: a clock read right before it and one
// right after (`const i64 t0 = now_ns(); f(); agg.since(t0);`). Work between
// timed calls -- the re-driver's loops and glue -- is timed by no call, so
// it shows up as uncovered wall and lowers layer_coverage_pct.
//
// A timed call costs more than the call: part of that cost (a clock read)
// lies inside its interval, the rest (the other read and the aggregate
// update) outside. The re-drivers interleave short bursts of empty spans
// all through the pass (calibrate), so both parts are measured under the
// same host load as the calls; report_layers() subtracts the inside part
// from every interval and the whole cost, with the bursts, from the wall.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace pcs::e2e {

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// All calls of one name under one structural span.
struct CallAgg {
  std::string name;
  u64 span = 0;
  u64 calls = 0;
  u64 units = 0;   ///< events, dies, ... the calls processed
  i64 raw_ns = 0;  ///< summed intervals, in-interval span cost included
  std::array<u64, 65> hist{};  ///< bucket b: interval in [2^(b-1), 2^b) ns

  void add(i64 ns, u64 work = 1) noexcept {
    ++calls;
    units += work;
    raw_ns += ns;
    ++hist[ns <= 0 ? 0 : std::bit_width(static_cast<u64>(ns))];
  }
  /// Ends a call that started at `t0` (a now_ns() reading).
  void since(i64 t0, u64 work = 1) noexcept { add(now_ns() - t0, work); }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a structural span; `parent` 0 makes it a root.
  u64 open(std::string name, u64 parent = 0);
  void close(u64 id);

  /// The aggregate of `name` calls under `span`, created on first use; the
  /// reference stays valid for the Tracer's lifetime.
  CallAgg& calls(u64 span, const char* name);

  /// Times a burst of empty spans; the burst counts against no call and
  /// comes off the traced wall.
  void calibrate() noexcept;

  /// Per-layer metrics of the pass rooted at `root`: each layer's share of
  /// the traced wall, units per busy second of every call name
  /// ("<name>_per_s"), layer_coverage_pct (which must lie in 95..105, else
  /// a failed check), and trace_overhead_pct against `untraced_s`, the
  /// untraced wall of the same inputs.
  void report_layers(u64 root, double untraced_s, Report& r) const;

  /// Writes every span and call aggregate as one JSON object per line.
  void write_jsonl(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    std::string name;
    u64 id;
    u64 parent;
    i64 start;
    i64 end;
  };

  /// Mean in-interval cost of an empty span (0 before the first burst).
  double inside_cost_ns() const noexcept;
  /// Mean whole cost of an empty span, burst wall over spans.
  double span_cost_ns() const noexcept;

  CallAgg empty_;
  i64 calibration_ns_ = 0;  ///< wall spent in bursts, off the traced wall
  std::vector<Span> spans_;
  std::deque<CallAgg> aggs_;  // deque: references survive growth
  std::map<std::pair<u64, std::string>, CallAgg*> index_;
};

}  // namespace pcs::e2e
