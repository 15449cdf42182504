#include "telemetry/trace_sink.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pcs {

namespace {

// Shortest round-trip double formatting: equal values -> equal bytes, and
// re-parsing recovers the exact value. Non-finite values (which no emitter
// should produce) become JSON null / empty CSV cells rather than invalid
// output.
void append_double(std::string& out, double v, const char* non_finite) {
  if (!std::isfinite(v)) {
    out += non_finite;
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, u64 v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_value(std::string& out, const TraceRecord::Value& v) {
  if (const u64* u = std::get_if<u64>(&v)) {
    append_u64(out, *u);
  } else if (const double* d = std::get_if<double>(&v)) {
    append_double(out, *d, "null");
  } else if (const bool* b = std::get_if<bool>(&v)) {
    out += *b ? "true" : "false";
  } else {
    append_json_string(out, std::get<std::string>(v));
  }
}

void append_csv_value(std::string& out, const TraceRecord::Value& v) {
  if (const u64* u = std::get_if<u64>(&v)) {
    append_u64(out, *u);
  } else if (const double* d = std::get_if<double>(&v)) {
    append_double(out, *d, "");
  } else if (const bool* b = std::get_if<bool>(&v)) {
    out += *b ? "true" : "false";
  } else {
    const std::string& s = std::get<std::string>(v);
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
      out += s;
    } else {
      out += '"';
      for (const char c : s) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    }
  }
}

// Every file write and flush is checked here, so a trace lost to a full
// disk fails its run instead of passing as written.
void check_stream(const std::ostream& out, const std::string& path) {
  if (!out) throw std::runtime_error("write failed for trace file: " + path);
}

void write_checked(std::ostream& out, const std::string& bytes,
                   const std::string& path) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  check_stream(out, path);
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(path, std::ios::out | std::ios::trunc), out_(&file_), path_(path) {
  if (!file_) throw std::runtime_error("cannot open trace file: " + path);
}

void JsonlTraceSink::emit(const TraceRecord& record) {
  std::string line;
  line.reserve(192);
  line += "{\"type\":\"";
  line += record.type();
  line += '"';
  for (const TraceRecord::Field& f : record.fields()) {
    line += ",\"";
    line += f.key;
    line += "\":";
    append_json_value(line, f.value);
  }
  line += "}\n";
  write_checked(*out_, line, path_);
}

void JsonlTraceSink::finish() {
  out_->flush();
  check_stream(*out_, path_);
}

CsvTraceSink::CsvTraceSink(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    stem_ = path.substr(0, dot);
    ext_ = path.substr(dot);
  } else {
    stem_ = path;
    ext_ = ".csv";
  }
}

CsvTraceSink::TypeFile& CsvTraceSink::stream_for(const TraceRecord& record) {
  const auto it = files_.find(record.type());
  if (it != files_.end()) return it->second;

  TypeFile& tf = files_[record.type()];
  tf.path = stem_ + "." + record.type() + ext_;
  tf.out.open(tf.path, std::ios::out | std::ios::trunc);
  if (!tf.out) throw std::runtime_error("cannot open trace file: " + tf.path);
  // Header row from the first record; the schema guarantees every record
  // of a type carries the same fields in the same order.
  std::string header;
  for (const TraceRecord::Field& f : record.fields()) {
    if (!header.empty()) header += ',';
    header += f.key;
  }
  header += '\n';
  write_checked(tf.out, header, tf.path);
  return tf;
}

void CsvTraceSink::emit(const TraceRecord& record) {
  TypeFile& tf = stream_for(record);
  std::string line;
  line.reserve(128);
  for (const TraceRecord::Field& f : record.fields()) {
    if (!line.empty()) line += ',';
    append_csv_value(line, f.value);
  }
  line += '\n';
  write_checked(tf.out, line, tf.path);
}

void CsvTraceSink::finish() {
  for (auto& [type, tf] : files_) {
    tf.out.flush();
    check_stream(tf.out, tf.path);
  }
}

std::unique_ptr<TraceSink> make_trace_sink(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    return std::make_unique<CsvTraceSink>(path);
  }
  return std::make_unique<JsonlTraceSink>(path);
}

void emit_trace_header(TraceSink& sink) {
  TraceRecord rec("trace_header");
  rec.field("schema_version", kTelemetrySchemaVersion)
      .field("producer", "pcs-cache");
  sink.emit(rec);
}

}  // namespace pcs
