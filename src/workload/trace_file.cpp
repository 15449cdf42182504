#include "workload/trace_file.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace pcs {

namespace {

/// Bytes of an over-long line quoted in its rejection.
constexpr std::size_t kQuoteBytes = 64;

bool is_blank(char c) { return c == ' ' || c == '\t'; }

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && is_blank(*p)) ++p;
  return p;
}

/// Parses `KIND [ws] ADDR ws+ GAP [ws] [# comment]` spanning [p, end);
/// false when the text is anything else.
bool parse_event(const char* p, const char* end, TraceEvent& out) {
  const char kind = *p++;
  if (kind != 'R' && kind != 'W' && kind != 'I') return false;
  p = skip_blanks(p, end);
  if (end - p > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) p += 2;
  u64 addr = 0;
  const auto a = std::from_chars(p, end, addr, 16);
  if (a.ec != std::errc() || a.ptr == end || !is_blank(*a.ptr)) return false;
  u32 gap = 0;
  const auto g = std::from_chars(skip_blanks(a.ptr, end), end, gap, 10);
  if (g.ec != std::errc()) return false;
  p = skip_blanks(g.ptr, end);
  if (p != end && *p != '#') return false;
  out.ref.addr = addr;
  out.ref.write = kind == 'W';
  out.ref.ifetch = kind == 'I';
  out.gap_instructions = gap;
  return true;
}

}  // namespace

FileTrace::FileTrace(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")),
      buf_(std::make_unique_for_overwrite<char[]>(kBufferBytes)),
      path_(path) {
  if (!file_) throw std::runtime_error("cannot open trace file: " + path);
  std::setvbuf(file_.get(), nullptr, _IONBF, 0);  // buf_ is the only buffer
  const auto slash = path.find_last_of('/');
  name_ = slash == std::string::npos ? path : path.substr(slash + 1);
}

bool FileTrace::next(TraceEvent& out) {
  for (;;) {
    const char* first = buf_.get() + begin_;
    const auto* nl =
        static_cast<const char*>(std::memchr(first, '\n', end_ - begin_));
    if (nl == nullptr) {
      if (end_ - begin_ == kBufferBytes) {
        consume_long_line();
        continue;
      }
      if (refill()) continue;
      if (begin_ == end_) return false;
      first = buf_.get() + begin_;  // the last line, without a '\n'
      nl = buf_.get() + end_;
    }
    const u64 line_start = buf_offset_ + begin_;
    ++line_;
    begin_ = std::min(static_cast<std::size_t>(nl - buf_.get()) + 1, end_);
    // Tolerate CRLF line endings and trailing whitespace.
    const char* end = nl;
    while (end != first && (is_blank(end[-1]) || end[-1] == '\r')) --end;
    const char* const text = skip_blanks(first, end);
    if (text == end || *text == '#') continue;
    if (!parse_event(text, end, out)) {
      reject(line_start, std::string(first, end));
    }
    ++events_;
    return true;
  }
}

bool FileTrace::refill() {
  const std::size_t kept = end_ - begin_;
  std::memmove(buf_.get(), buf_.get() + begin_, kept);
  buf_offset_ += begin_;
  begin_ = 0;
  end_ = kept;
  const std::size_t got =
      std::fread(buf_.get() + end_, 1, kBufferBytes - end_, file_.get());
  if (got == 0 && std::ferror(file_.get())) {
    throw std::runtime_error("cannot read trace file: " + path_);
  }
  end_ += got;
  return got > 0;
}

void FileTrace::consume_long_line() {
  // Only a blank or comment line may fill the buffer. Blank means spaces,
  // tabs and '\r' alone; a comment's '#' is its first byte after spaces and
  // tabs. Anything else is rejected as soon as it shows.
  ++line_;
  const u64 line_start = buf_offset_ + begin_;
  const std::string head = std::string(buf_.get() + begin_, kQuoteBytes) +
                           "...";
  bool cr = false;
  bool comment = false;
  for (;;) {
    const char* p = buf_.get() + begin_;
    const char* const end = buf_.get() + end_;
    const auto* nl = static_cast<const char*>(std::memchr(p, '\n', end - p));
    for (const char* stop = nl != nullptr ? nl : end; !comment && p != stop;
         ++p) {
      if (is_blank(*p)) continue;
      if (*p == '\r') {
        cr = true;
      } else if (*p == '#' && !cr) {
        comment = true;
      } else {
        reject(line_start, head);
      }
    }
    if (nl != nullptr) {
      begin_ = static_cast<std::size_t>(nl - buf_.get()) + 1;
      return;
    }
    begin_ = end_;
    if (!refill()) return;
  }
}

void FileTrace::reject(u64 line_start, const std::string& text) const {
  throw std::runtime_error(path_ + ":" + std::to_string(line_) + ": (byte " +
                           std::to_string(line_start) +
                           "): malformed trace line: " + text);
}

u64 record_trace(TraceSource& source, const std::string& path, u64 count) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "wb"));
  if (!file) throw std::runtime_error("cannot create trace file: " + path);
  std::setvbuf(file.get(), nullptr, _IONBF, 0);  // buf is the only buffer
  const auto write = [&](const char* data, std::size_t size) {
    if (std::fwrite(data, 1, size, file.get()) != size) {
      throw std::runtime_error("write failed for trace file: " + path);
    }
  };
  const std::string header = "# pcs-cache trace recorded from '" +
                             std::string(source.name()) + "'\n";
  write(header.data(), header.size());

  // Lines are rendered into one fixed buffer, which is written out whenever
  // the longest line might not fit: KIND, 16 hex digits, 10 decimal digits,
  // two spaces and the newline.
  constexpr std::size_t kMaxLineBytes = 1 + 1 + 16 + 1 + 10 + 1;
  const auto buf =
      std::make_unique_for_overwrite<char[]>(FileTrace::kBufferBytes);
  char* const end = buf.get() + FileTrace::kBufferBytes;
  char* p = buf.get();
  TraceEvent ev;
  u64 written = 0;
  while (written < count && source.next(ev)) {
    if (static_cast<std::size_t>(end - p) < kMaxLineBytes) {
      write(buf.get(), static_cast<std::size_t>(p - buf.get()));
      p = buf.get();
    }
    *p++ = ev.ref.ifetch ? 'I' : (ev.ref.write ? 'W' : 'R');
    *p++ = ' ';
    p = std::to_chars(p, end, ev.ref.addr, 16).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, ev.gap_instructions).ptr;
    *p++ = '\n';
    ++written;
  }
  write(buf.get(), static_cast<std::size_t>(p - buf.get()));
  if (std::fclose(file.release()) != 0) {
    throw std::runtime_error("write failed for trace file: " + path);
  }
  return written;
}

}  // namespace pcs
