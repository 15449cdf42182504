// Unit tests for trace recording and playback, with the getline + sscanf
// oracle (trace_file_oracle.hpp) as the reference on valid traces and at
// the read buffer's edges.
#include "workload/trace_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "trace/encode.hpp"
#include "trace_file_oracle.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceFile, RoundTripPreservesEvents) {
  const std::string path = temp_path("roundtrip.trace");
  auto source = make_spec_trace("gcc", 7);
  const u64 n = record_trace(*source, path, 5000);
  EXPECT_EQ(n, 5000u);

  auto reference = make_spec_trace("gcc", 7);
  FileTrace replay(path);
  TraceEvent a, b;
  for (u64 i = 0; i < n; ++i) {
    ASSERT_TRUE(reference->next(a));
    ASSERT_TRUE(replay.next(b)) << "event " << i;
    EXPECT_EQ(a.ref.addr, b.ref.addr) << "event " << i;
    EXPECT_EQ(a.ref.write, b.ref.write) << "event " << i;
    EXPECT_EQ(a.ref.ifetch, b.ref.ifetch) << "event " << i;
    EXPECT_EQ(a.gap_instructions, b.gap_instructions) << "event " << i;
  }
  EXPECT_FALSE(replay.next(b));  // exactly n events
  EXPECT_EQ(replay.events_read(), n);
  std::remove(path.c_str());
}

TEST(TraceFile, SkipsCommentsAndBlankLines) {
  const std::string path = temp_path("comments.trace");
  {
    std::ofstream out(path);
    out << "# header comment\n\nR 1000 2\n# mid comment\nW 2040 0\nI 400 5\n";
  }
  FileTrace t(path);
  TraceEvent e;
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x1000u);
  EXPECT_FALSE(e.ref.write);
  EXPECT_EQ(e.gap_instructions, 2u);
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x2040u);
  EXPECT_TRUE(e.ref.write);
  ASSERT_TRUE(t.next(e));
  EXPECT_TRUE(e.ref.ifetch);
  EXPECT_EQ(e.gap_instructions, 5u);
  EXPECT_FALSE(t.next(e));
  std::remove(path.c_str());
}

TEST(TraceFile, MissingFileThrows) {
  EXPECT_THROW(FileTrace("/nonexistent/dir/nope.trace"), std::runtime_error);
}

TEST(TraceFile, MalformedLineThrowsWithLineNumber) {
  const std::string path = temp_path("bad.trace");
  {
    std::ofstream out(path);
    out << "R 1000 0\nX 2000 0\n";
  }
  FileTrace t(path);
  TraceEvent e;
  EXPECT_TRUE(t.next(e));
  try {
    t.next(e);
    FAIL() << "expected malformed-line error";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(":2:"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceFile, ToleratesCrlfAndTrailingWhitespace) {
  const std::string path = temp_path("crlf.trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << "R 1000 2\r\n"      // CRLF line ending
        << "W 2040 0  \n"      // trailing spaces
        << "I 400 5\t\r\n"     // tab + CRLF
        << "# comment\r\n"
        << "\r\n";             // blank CRLF line
  }
  FileTrace t(path);
  TraceEvent e;
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x1000u);
  EXPECT_EQ(e.gap_instructions, 2u);
  ASSERT_TRUE(t.next(e));
  EXPECT_TRUE(e.ref.write);
  ASSERT_TRUE(t.next(e));
  EXPECT_TRUE(e.ref.ifetch);
  EXPECT_FALSE(t.next(e));
  std::remove(path.c_str());
}

TEST(TraceFile, MalformedLineErrorCarriesByteOffset) {
  const std::string path = temp_path("badbyte.trace");
  {
    std::ofstream out(path, std::ios::binary);
    out << "R 1000 0\nbogus line here\n";  // bad line starts at byte 9
  }
  FileTrace t(path);
  TraceEvent e;
  EXPECT_TRUE(t.next(e));
  try {
    t.next(e);
    FAIL() << "expected malformed-line error";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find(":2:"), std::string::npos) << what;
    EXPECT_NE(what.find("(byte 9)"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus line here"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TraceFile, NameIsBasename) {
  const std::string path = temp_path("pretty.trace");
  {
    std::ofstream out(path);
    out << "R 0 0\n";
  }
  FileTrace t(path);
  EXPECT_STREQ(t.name(), "pretty.trace");
  std::remove(path.c_str());
}

TEST(TraceFile, RecordStopsAtSourceEnd) {
  const std::string path = temp_path("short.trace");
  WorkloadSpec w;
  PhaseSpec p;
  p.duration_refs = 10;
  w.phases = {p};
  w.loop_phases = false;
  SyntheticTrace finite(w, 3);
  const u64 n = record_trace(finite, path, 1'000'000);
  EXPECT_GE(n, 10u);       // the 10 data refs, plus any ifetch events
  EXPECT_LT(n, 1'000u);    // but the source is finite
  std::remove(path.c_str());
}

TEST(TraceFile, RecordToFullDeviceThrows) {
  // Every write to /dev/full fails with ENOSPC; both containers must say
  // so rather than report a recording that never reached the disk.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  for (const TraceFormat format : {TraceFormat::kText, TraceFormat::kPcst}) {
    auto source = make_spec_trace("gcc", 7);
    try {
      record_trace(*source, "/dev/full", 100'000, format);
      ADD_FAILURE() << "format " << static_cast<int>(format)
                    << ": the failed writes went unreported";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "write failed for trace file: /dev/full");
    }
  }
}

// ---- The grammar, against the getline + sscanf oracle ---------------------

/// Writes `bytes` to a file under the test temp dir; returns its path.
std::string write_file(const std::string& name, const std::string& bytes) {
  const std::string path = temp_path(name.c_str());
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  return path;
}

/// The message of the error `t` throws before its end, "" if none.
std::string error_of(TraceSource& t) {
  TraceEvent e;
  try {
    while (t.next(e)) {
    }
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  return "";
}

void expect_same_events(FileTrace& t, GetlineTraceOracle& head) {
  TraceEvent a, b;
  for (u64 i = 0;; ++i) {
    const bool more = head.next(a);
    ASSERT_EQ(t.next(b), more) << "event " << i;
    if (!more) break;
    ASSERT_EQ(b.ref.addr, a.ref.addr) << "event " << i;
    ASSERT_EQ(b.ref.write, a.ref.write) << "event " << i;
    ASSERT_EQ(b.ref.ifetch, a.ref.ifetch) << "event " << i;
    ASSERT_EQ(b.gap_instructions, a.gap_instructions) << "event " << i;
  }
  EXPECT_EQ(t.events_read(), head.events_read());
}

/// A line the oracle reads without an error, and reads wrong.
struct MisreadLine {
  const char* label;
  std::string line;
  u64 head_addr;  ///< what the oracle returns
  u32 head_gap;
};

// Test names print the label, not the bytes (which hold pointers).
void PrintTo(const MisreadLine& row, std::ostream* os) { *os << row.label; }

class TraceFileMisread : public ::testing::TestWithParam<MisreadLine> {};

TEST_P(TraceFileMisread, IsALocatedRejection) {
  const MisreadLine& row = GetParam();
  const std::string path =
      write_file(std::string("misread_") + row.label + ".trace",
                 row.line + "\n");
  GetlineTraceOracle head(path);
  TraceEvent e;
  ASSERT_TRUE(head.next(e));
  EXPECT_EQ(e.ref.addr, row.head_addr);
  EXPECT_EQ(e.gap_instructions, row.head_gap);

  FileTrace t(path);
  // what() ends at the NUL of the NulAfterGap row, and so does this.
  const std::string want =
      path + ":1: (byte 0): malformed trace line: " + row.line;
  EXPECT_EQ(error_of(t), want.c_str());
  EXPECT_EQ(t.events_read(), 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SscanfMisreads, TraceFileMisread,
    ::testing::Values(
        MisreadLine{"NegativeAddr", "R -1 3", ~0ULL, 3},
        MisreadLine{"NegativeGap", "R 1000 -1", 0x1000, 4294967295u},
        MisreadLine{"GapGluedToAddr", "R 1000-2", 0x1000, 4294967294u},
        MisreadLine{"GapOver32Bits", "R 1000 4294967296", 0x1000, 0},
        MisreadLine{"GapOver64Bits", "R 1000 99999999999999999999", 0x1000,
                    4294967295u},
        MisreadLine{"AddrOver64Bits", "R 1ffffffffffffffffff 0", ~0ULL, 0},
        MisreadLine{"JunkAfterGap", "R 1000 3 junk", 0x1000, 3},
        MisreadLine{"LetterAfterGap", "R 1000 3x", 0x1000, 3},
        MisreadLine{"NulAfterGap", std::string("R 1000 2\0junk", 13), 0x1000,
                    2},
        MisreadLine{"PlusSigns", "R +10 +2", 0x10, 2}),
    [](const ::testing::TestParamInfo<MisreadLine>& param_info) {
      return std::string(param_info.param.label);
    });

TEST(TraceFile, AcceptsEveryFormOfTheGrammar) {
  const std::string path = write_file("grammar.trace",
                                      "R 0x1000 2\n"
                                      "W 0X1F 0\n"
                                      "R1000 2\n"
                                      "I\t400\t\t5\t\n"
                                      " \t W 2040 1\n"
                                      "R 1000 2 # note\n"
                                      "W 0xAbC 3\r\n");
  struct Want {
    u64 addr;
    bool write, ifetch;
    u32 gap;
  };
  const Want want[] = {{0x1000, false, false, 2}, {0x1f, true, false, 0},
                       {0x1000, false, false, 2}, {0x400, false, true, 5},
                       {0x2040, true, false, 1},  {0x1000, false, false, 2},
                       {0xabc, true, false, 3}};
  FileTrace t(path);
  TraceEvent e;
  for (const Want& w : want) {
    ASSERT_TRUE(t.next(e));
    EXPECT_EQ(e.ref.addr, w.addr);
    EXPECT_EQ(e.ref.write, w.write);
    EXPECT_EQ(e.ref.ifetch, w.ifetch);
    EXPECT_EQ(e.gap_instructions, w.gap);
  }
  EXPECT_FALSE(t.next(e));
  FileTrace again(path);
  GetlineTraceOracle head(path);
  expect_same_events(again, head);
  std::remove(path.c_str());
}

/// `events` random events as text, each line in a random rendering the
/// grammar allows, with blank and comment lines mixed in.
std::string render_random_trace(u64 seed, u64 events) {
  Rng rng(seed);
  const auto blanks = [&](u64 lo, u64 hi) {
    std::string s;
    for (u64 n = lo + rng.uniform_int(hi - lo + 1); n > 0; --n) {
      s += rng.bernoulli(0.5) ? ' ' : '\t';
    }
    return s;
  };
  const auto eol = [&] {
    return rng.bernoulli(0.3) ? blanks(0, 2) + "\r\n" : std::string("\n");
  };
  char num[32];
  std::string out;
  for (u64 i = 0; i < events; ++i) {
    if (rng.bernoulli(0.05)) {
      out += blanks(0, 3);
      if (rng.bernoulli(0.5)) out += "# comment " + std::to_string(i);
      out += eol();
    }
    const u64 addr = rng.bernoulli(0.2) ? rng.next_u64()
                                        : rng.next_u64() >> rng.uniform_int(64);
    const u32 gap =
        rng.bernoulli(0.05)
            ? 4294967295u
            : static_cast<u32>(rng.next_u64() >> (32 + rng.uniform_int(32)));
    out += blanks(0, 2);
    out += "RWI"[rng.uniform_int(3)];
    out += blanks(rng.bernoulli(0.2) ? 0 : 1, 3);
    if (rng.bernoulli(0.3)) out += rng.bernoulli(0.5) ? "0x" : "0X";
    out += std::string(rng.uniform_int(4), '0');
    std::snprintf(num, sizeof num, rng.bernoulli(0.5) ? "%llx" : "%llX",
                  static_cast<unsigned long long>(addr));
    out += num;
    out += blanks(1, 3);
    out += std::string(rng.uniform_int(3), '0') + std::to_string(gap);
    switch (rng.uniform_int(4)) {
      case 0: break;
      case 1: out += blanks(1, 2); break;
      case 2: out += blanks(0, 2) + "# note"; break;
      default: out += blanks(1, 2) + "#"; break;
    }
    out += eol();
  }
  if (rng.bernoulli(0.5)) {
    out.pop_back();  // the last line without its '\n'
  }
  return out;
}

TEST(TraceFile, MatchesTheOracleOnRandomRenderings) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    // 8k-20k events: 3-8 buffers of text, so every file crosses refills.
    const std::string bytes = render_random_trace(seed, 8000 + 2400 * seed);
    ASSERT_GT(bytes.size(), 2 * FileTrace::kBufferBytes) << "seed " << seed;
    const std::string path = write_file("random.trace", bytes);
    FileTrace t(path);
    GetlineTraceOracle head(path);
    expect_same_events(t, head);
    EXPECT_EQ(t.events_read(), 8000 + 2400 * seed) << "seed " << seed;
    std::remove(path.c_str());
  }
}

// ---- The read buffer's edges ----------------------------------------------

TEST(TraceFile, LineSplitAcrossARefillAtEveryOffset) {
  const std::string target = "W 0xABCdef01 4294967295\r\n";
  for (std::size_t k = 0; k <= target.size(); ++k) {
    // A comment puts `target` at kBufferBytes - k: k of its bytes come in
    // the first read, the rest after the refill (k = size - 1 splits the
    // "\r\n").
    std::string pad(FileTrace::kBufferBytes - k, 'p');
    pad.front() = '#';
    pad.back() = '\n';
    const std::string good = pad + target + "R 5 6\n";
    const std::string path = write_file("split.trace", good + "bogus\n");
    {
      FileTrace t(path);
      TraceEvent e;
      ASSERT_TRUE(t.next(e)) << "k " << k;
      EXPECT_EQ(e.ref.addr, 0xabcdef01u) << "k " << k;
      EXPECT_TRUE(e.ref.write) << "k " << k;
      EXPECT_EQ(e.gap_instructions, 4294967295u) << "k " << k;
      ASSERT_TRUE(t.next(e)) << "k " << k;
      EXPECT_EQ(e.ref.addr, 5u) << "k " << k;
      EXPECT_EQ(t.events_read(), 2u);
      const std::string where =
          ":4: (byte " + std::to_string(good.size()) + "): ";
      EXPECT_NE(error_of(t).find(where), std::string::npos) << "k " << k;
    }
    GetlineTraceOracle head(path);
    FileTrace t(path);
    EXPECT_EQ(error_of(t), error_of(head)) << "k " << k;
    std::remove(path.c_str());
  }
}

TEST(TraceFile, CommentAndBlankLinesLongerThanTheBufferAreSkipped) {
  const std::size_t big = 3 * FileTrace::kBufferBytes;
  const std::string good = "R 10 1\n# " + std::string(big, 'c') +
                           "\nW 20 2\n" + std::string(big, ' ') +
                           "\t\r\n  #" + std::string(big, '#') + "\nI 30 3";
  const std::string path = write_file("longcomment.trace", good + "\nX\n");
  FileTrace t(path);
  TraceEvent e;
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x10u);
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x20u);
  ASSERT_TRUE(t.next(e));
  EXPECT_EQ(e.ref.addr, 0x30u);
  EXPECT_EQ(t.events_read(), 3u);
  EXPECT_EQ(error_of(t), path + ":7: (byte " + std::to_string(good.size() + 1) +
                             "): malformed trace line: X");
  std::remove(path.c_str());
}

TEST(TraceFile, EventLineLongerThanTheBufferIsRejected) {
  const std::string line =
      "R 1000 2 # " + std::string(FileTrace::kBufferBytes, 'y');
  for (const char* ending : {"\n", ""}) {
    const std::string path =
        write_file("longline.trace", "R 10 1\n" + line + ending);
    FileTrace t(path);
    TraceEvent e;
    ASSERT_TRUE(t.next(e));
    EXPECT_EQ(error_of(t), path + ":2: (byte 7): malformed trace line: " +
                               line.substr(0, 64) + "...");
    std::remove(path.c_str());
  }
  // Rejected as soon as it shows: a non-comment byte past the first read.
  const std::string path = write_file(
      "longblank.trace",
      std::string(FileTrace::kBufferBytes + 9, ' ') + "R 10 1\n");
  FileTrace t(path);
  EXPECT_EQ(error_of(t), path + ":1: (byte 0): malformed trace line: " +
                             std::string(64, ' ') + "...");
  std::remove(path.c_str());
}

TEST(TraceFile, EmptyAndCommentOnlyFilesHaveNoEvents) {
  for (const char* bytes : {"", "# only\n\n   # comments\r\n\t", "#"}) {
    const std::string path = write_file("noevents.trace", bytes);
    FileTrace t(path);
    TraceEvent e;
    EXPECT_FALSE(t.next(e)) << '"' << bytes << '"';
    EXPECT_FALSE(t.next(e));  // and stays at its end
    EXPECT_EQ(t.events_read(), 0u);
    std::remove(path.c_str());
  }
}

TEST(TraceFile, MalformedLineAfterARefillNamesItsFileOffset) {
  std::string good;
  for (u64 i = 0; good.size() < 3 * FileTrace::kBufferBytes + 123; ++i) {
    good += "R " + std::to_string(i * 64) + " " + std::to_string(i % 7) +
            (i % 3 == 0 ? "\r\n" : "\n");
  }
  const std::string path = write_file("badafter.trace", good + "X 2000 0\n");
  FileTrace t(path);
  GetlineTraceOracle head(path);
  const std::string msg = error_of(t);
  EXPECT_NE(msg.find("(byte " + std::to_string(good.size()) + ")"),
            std::string::npos)
      << msg;
  EXPECT_EQ(msg, error_of(head));
  EXPECT_EQ(t.events_read(), head.events_read());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pcs
