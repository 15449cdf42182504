// The text-trace oracle: a std::getline + std::sscanf reader, the one
// FileTrace must stay compatible with. On a valid trace FileTrace must give
// its events, and on a line both reject, its message. The oracle also reads
// some invalid lines without an error (a negative number wraps, an
// oversized gap is truncated, text after the gap is ignored), which
// FileTrace rejects; the differential in test_trace_file.cpp renders valid
// traces only.
#pragma once

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cache/trace_source.hpp"
#include "util/types.hpp"

namespace pcs {

class GetlineTraceOracle final : public TraceSource {
 public:
  explicit GetlineTraceOracle(const std::string& path)
      : in_(path), path_(path) {
    if (!in_) throw std::runtime_error("cannot open trace file: " + path);
  }

  bool next(TraceEvent& out) override {
    while (std::getline(in_, line_buf_)) {
      ++line_;
      const u64 line_start = byte_offset_;
      byte_offset_ += line_buf_.size() + 1;  // getline consumed the '\n'
      // Tolerate CRLF line endings and trailing whitespace.
      std::size_t len = line_buf_.size();
      while (len > 0 && (line_buf_[len - 1] == '\r' ||
                         line_buf_[len - 1] == ' ' ||
                         line_buf_[len - 1] == '\t')) {
        --len;
      }
      std::size_t first = 0;
      while (first < len &&
             (line_buf_[first] == ' ' || line_buf_[first] == '\t')) {
        ++first;
      }
      if (first == len || line_buf_[first] == '#') continue;
      line_buf_.resize(len);
      char kind = 0;
      unsigned long long addr = 0;
      unsigned long gap = 0;
      if (std::sscanf(line_buf_.c_str() + first, " %c %llx %lu", &kind,
                      &addr, &gap) != 3 ||
          (kind != 'R' && kind != 'W' && kind != 'I')) {
        throw std::runtime_error(path_ + ":" + std::to_string(line_) +
                                 ": (byte " + std::to_string(line_start) +
                                 "): malformed trace line: " + line_buf_);
      }
      out.ref.addr = addr;
      out.ref.write = kind == 'W';
      out.ref.ifetch = kind == 'I';
      out.gap_instructions = static_cast<u32>(gap);
      ++events_;
      return true;
    }
    return false;
  }

  const char* name() const override { return path_.c_str(); }
  u64 events_read() const noexcept { return events_; }

 private:
  std::ifstream in_;
  std::string path_;
  std::string line_buf_;
  u64 line_ = 0;
  u64 byte_offset_ = 0;  ///< file offset of the line in line_buf_
  u64 events_ = 0;
};

}  // namespace pcs
