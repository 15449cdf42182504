// Structured event tracing for the simulator (schema in TELEMETRY.md).
//
// A TraceRecord is one flat, typed key/value event ("interval",
// "transition", "energy", ...). Sinks serialize records as they arrive:
// JSONL (one object per line), CSV (one file per record type), or an
// in-memory buffer the experiment engine uses to keep multi-threaded trace
// files deterministic (each task records into its own buffer; buffers are
// replayed into the final sink in grid order after the sweep).
//
// Cost discipline: instrumentation points guard on a plain `TraceSink*`
// being non-null, so a disabled trace is one predictable branch per
// interval and allocates nothing. Records are only constructed when a sink
// is attached. Record type names and field keys must be string literals
// (static storage duration): records store the pointers, not copies.
//
// Sinks are NOT thread-safe; give each concurrent producer its own
// MemoryTraceSink and replay serially (see exp/sweep_engine).
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/types.hpp"

namespace pcs {

/// Version of the trace schema documented in TELEMETRY.md. Bump on any
/// breaking change (field removed/renamed/retyped, record type removed or
/// semantics changed); adding a new record type or appending a new field
/// keeps the version (consumers must ignore unknown types/fields).
inline constexpr u32 kTelemetrySchemaVersion = 1;

/// One flat telemetry event: a record type plus ordered typed fields.
class TraceRecord {
 public:
  using Value = std::variant<u64, double, bool, std::string>;
  struct Field {
    const char* key;  ///< string literal (not owned)
    Value value;
  };

  /// `type` must be a string literal (stored by pointer).
  explicit TraceRecord(const char* type) : type_(type) {}

  /// Appends a field. Integral values (including enums' underlying values
  /// and Cycle) are stored as u64, floating point as double, bool as bool,
  /// anything string-like as std::string. `key` must be a string literal.
  template <class T>
  TraceRecord& field(const char* key, const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      fields_.push_back({key, Value(v)});
    } else if constexpr (std::is_integral_v<T>) {
      fields_.push_back({key, Value(static_cast<u64>(v))});
    } else if constexpr (std::is_floating_point_v<T>) {
      fields_.push_back({key, Value(static_cast<double>(v))});
    } else {
      fields_.push_back({key, Value(std::string(v))});
    }
    return *this;
  }

  const char* type() const noexcept { return type_; }
  const std::vector<Field>& fields() const noexcept { return fields_; }

 private:
  const char* type_;
  std::vector<Field> fields_;
};

/// Receives emitted records. Implementations serialize or buffer them.
/// A file sink throws std::runtime_error("write failed for trace file:
/// PATH") from the first emit whose write fails, and from finish().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceRecord& record) = 0;
  /// Flushes every record emitted so far and throws if any write failed.
  /// The owner of a file sink calls it after the last record; sinks that
  /// write no file do nothing.
  virtual void finish() {}
};

/// Discards everything. Instrumentation normally uses a null `TraceSink*`
/// instead (no record is even built); this exists for overhead measurement
/// and for APIs that want a non-null sink reference.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceRecord&) override {}
};

/// One JSON object per line: {"type":"interval","cache":"L2",...}.
/// Doubles are serialized with shortest-round-trip formatting
/// (std::to_chars), so equal values always produce equal bytes.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Writes to `out` (not owned; must outlive the sink).
  explicit JsonlTraceSink(std::ostream& out) : out_(&out), path_("<stream>") {}
  /// Opens `path` for writing (truncates). Throws std::runtime_error on
  /// failure.
  explicit JsonlTraceSink(const std::string& path);

  void emit(const TraceRecord& record) override;
  void finish() override;

 private:
  std::ofstream file_;
  std::ostream* out_;
  std::string path_;  ///< named by a failed write
};

/// CSV backend: records of each type go to their own file (the schema is
/// fixed per type, so each file has a stable header). Given "out.csv",
/// interval records land in "out.interval.csv", transitions in
/// "out.transition.csv", and so on.
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(const std::string& path);

  void emit(const TraceRecord& record) override;
  void finish() override;

 private:
  struct TypeFile {
    std::ofstream out;
    std::string path;
  };
  TypeFile& stream_for(const TraceRecord& record);

  std::string stem_;  ///< path minus extension
  std::string ext_;   ///< extension including the dot (".csv" by default)
  std::map<std::string, TypeFile> files_;
};

/// Buffers deep copies of records for later deterministic replay.
class MemoryTraceSink final : public TraceSink {
 public:
  void emit(const TraceRecord& record) override { records_.push_back(record); }

  const std::vector<TraceRecord>& records() const noexcept { return records_; }
  void clear() noexcept { records_.clear(); }

  /// Re-emits every buffered record into `sink`, in emission order.
  void replay_into(TraceSink& sink) const {
    for (const TraceRecord& r : records_) sink.emit(r);
  }

 private:
  std::vector<TraceRecord> records_;
};

/// Opens the sink a user asked for by path: CSV when the path ends in
/// ".csv", JSONL otherwise.
std::unique_ptr<TraceSink> make_trace_sink(const std::string& path);

/// Emits the schema_version header record every trace file starts with.
void emit_trace_header(TraceSink& sink);

}  // namespace pcs
