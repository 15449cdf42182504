// Trace file I/O: record any TraceSource to a portable text format and play
// it back later. Lets users drive the simulator with their own traces
// (e.g. converted from pin/DynamoRIO/gem5 dumps) instead of the synthetic
// generators.
//
// Format: one event per line,
//   <kind> <hex addr> <gap>
// where kind is R (data read), W (data write), or I (instruction fetch),
// and gap is the number of non-memory instructions preceding the event.
// Lines starting with '#' are comments. Example:
//   # my trace
//   I 400000 0
//   R 7fff0010 3
//   W 7fff0018 0
//
// The exact grammar (TRACES.md): trailing '\r', spaces and tabs are
// stripped; blank lines and lines whose first non-blank byte is '#' are
// skipped; every other line must be
//   [ws] KIND [ws] ADDR ws+ GAP [ws] [# comment]
// with ws = spaces or tabs, KIND one of R/W/I, ADDR hex digits of either
// case with an optional 0x/0X prefix and below 2^64, and GAP decimal digits
// of at most 2^32-1. Signs, junk after the gap and out-of-range numbers
// are malformed.
#pragma once

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>

#include "cache/trace_source.hpp"
#include "util/types.hpp"

namespace pcs {

/// Closes a C stream; the deleter of every std::FILE this module opens.
struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

/// Replays a text trace file. Tolerates CRLF line endings and trailing
/// whitespace (traces round-trip through Windows editors and shell
/// pipelines intact). Throws std::runtime_error on open failure and on the
/// first malformed line, naming both the line number and the byte offset
/// of the line start (`path:12: (byte 345): ...`) so the damage is
/// addressable with dd/hexdump in multi-GB captures.
///
/// Reads through one fixed buffer of kBufferBytes, so memory stays bounded
/// whatever the file holds. A line that fills the whole buffer is read
/// through in pieces: skipped when it is blank or a comment, rejected
/// otherwise (quoting its first bytes).
class FileTrace final : public TraceSource {
 public:
  /// Size of the one read buffer. An event line must be shorter.
  static constexpr std::size_t kBufferBytes = std::size_t{64} * 1024;

  explicit FileTrace(const std::string& path);

  bool next(TraceEvent& out) override;
  const char* name() const override { return name_.c_str(); }

  /// Events delivered so far.
  u64 events_read() const noexcept { return events_; }

 private:
  /// Moves the unread bytes to the front of the buffer and reads more
  /// after them; false at end of file.
  bool refill();
  /// Consumes a line that fills the whole buffer: skipped when blank or a
  /// comment, rejected otherwise.
  void consume_long_line();
  [[noreturn]] void reject(u64 line_start, const std::string& text) const;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::unique_ptr<char[]> buf_;
  std::size_t begin_ = 0;  ///< first unread byte in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
  u64 buf_offset_ = 0;     ///< file offset of buf_[0]
  std::string name_;
  std::string path_;
  u64 line_ = 0;
  u64 events_ = 0;
};

/// Records `count` events from `source` into `path` (text format above).
/// Returns the number of events written (< count if the source ended).
/// Throws std::runtime_error when `path` cannot be created or any write,
/// or the final close, fails.
u64 record_trace(TraceSource& source, const std::string& path, u64 count);

}  // namespace pcs
