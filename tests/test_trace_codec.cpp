// Property and adversarial tests for the .pcst binary trace codec:
// randomized round-trips through the block codec and the full container,
// corrupt-file rejection (naming the damaged block), and the replay
// differential -- a converted trace must produce SimReports identical to
// the text original at any thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/trace_source.hpp"
#include "exp/job_service.hpp"
#include "trace/decode.hpp"
#include "trace/encode.hpp"
#include "trace/format.hpp"
#include "trace/mmap_reader.hpp"
#include "trace/workload_source.hpp"
#include "util/rng.hpp"
#include "workload/spec_profiles.hpp"
#include "workload/trace_file.hpp"

namespace pcs {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool events_equal(const TraceEvent& a, const TraceEvent& b) {
  return a.ref.addr == b.ref.addr && a.ref.write == b.ref.write &&
         a.ref.ifetch == b.ref.ifetch &&
         a.gap_instructions == b.gap_instructions;
}

TraceEvent make_event(u64 addr, u8 kind, u32 gap) {
  TraceEvent ev;
  ev.ref.addr = addr;
  ev.ref.write = kind == pcst::kKindWrite;
  ev.ref.ifetch = kind == pcst::kKindIfetch;
  ev.gap_instructions = gap;
  return ev;
}

/// Adversarial random stream: address regimes from dense strides to full
/// 64-bit noise (including 0 and UINT64_MAX), gaps spanning every gap-
/// section encoding class (2-bit codes, nibbles, varint escapes, u32 max).
std::vector<TraceEvent> random_events(u64 seed, u64 n) {
  Rng rng(seed);
  std::vector<TraceEvent> evs;
  evs.reserve(n);
  u64 walk = rng.next_u64();
  for (u64 i = 0; i < n; ++i) {
    u64 addr = 0;
    switch (rng.uniform_int(6)) {
      case 0: addr = 0; break;
      case 1: addr = ~0ULL; break;
      case 2: addr = walk += 64; break;  // dense stride
      case 3: addr = walk += rng.uniform_int(4096) << 6; break;  // aligned
      case 4: addr = rng.next_u64() & 0xffff'ffffULL; break;  // 32-bit region
      default: addr = rng.next_u64(); break;                  // full 64-bit
    }
    u32 gap = 0;
    switch (rng.uniform_int(5)) {
      case 0: gap = static_cast<u32>(rng.uniform_int(3)); break;  // 2-bit
      case 1: gap = 3 + static_cast<u32>(rng.uniform_int(14)); break;  // nibbles
      case 2: gap = 18 + static_cast<u32>(rng.uniform_int(1000)); break;
      case 3: gap = 0xffff'ffffu; break;  // kMaxGap
      default: gap = static_cast<u32>(rng.uniform_int(64)); break;
    }
    evs.push_back(make_event(addr, static_cast<u8>(rng.uniform_int(3)), gap));
  }
  return evs;
}

void write_pcst(const std::string& path, const std::vector<TraceEvent>& evs,
                const std::string& name) {
  PcstWriter w(path, name);
  for (const TraceEvent& ev : evs) w.append(ev);
  w.finish();
}

std::vector<TraceEvent> read_all(TraceSource& src) {
  std::vector<TraceEvent> evs;
  TraceEvent ev;
  while (src.next(ev)) evs.push_back(ev);
  return evs;
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<u8>((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<u8>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// The block encoder as first written, kept as the oracle of the one that
// ships: every pack width is costed over every event. `pick` reports the
// width it chose and whether a wider one cost the same.

namespace oracle {

struct WidthPick {
  u32 width = 0;
  bool tied = false;
};

u8 kind_code(const TraceEvent& ev) {
  if (ev.ref.ifetch) return pcst::kKindIfetch;
  return ev.ref.write ? pcst::kKindWrite : pcst::kKindRead;
}

u64 zigzag_delta_shifted(u64 prev, u64 cur, u32 shift) {
  const u64 d = cur - prev;
  u64 x = d >> shift;
  if (shift != 0 && (d >> 63) != 0) x |= ~(~0ULL >> shift);
  return (x << 1) ^ (0ULL - (x >> 63));
}

void encode_block(const TraceEvent* events, u32 n, std::string& out,
                  WidthPick& pick) {
  pcst::put_varint(out, n);
  for (u32 i = 0; i < n; i += 4) {
    u8 packed = 0;
    for (u32 j = 0; j < 4 && i + j < n; ++j) {
      packed = static_cast<u8>(packed | (kind_code(events[i + j]) << (2 * j)));
    }
    out.push_back(static_cast<char>(packed));
  }

  u64 deltas[pcst::kEventsPerBlock];
  u64 last[pcst::kNumKinds] = {0, 0, 0};
  u64 any = 0;
  for (u32 i = 0; i < n; ++i) {
    const u8 k = kind_code(events[i]);
    deltas[i] = events[i].ref.addr - last[k];
    any |= deltas[i];
    last[k] = events[i].ref.addr;
  }
  const u32 shift =
      any == 0 ? 0 : static_cast<u32>(std::countr_zero(any));

  u64 zz[pcst::kEventsPerBlock];
  last[0] = last[1] = last[2] = 0;
  for (u32 i = 0; i < n; ++i) {
    const u8 k = kind_code(events[i]);
    zz[i] = zigzag_delta_shifted(last[k], events[i].ref.addr, shift);
    last[k] = events[i].ref.addr;
  }

  u32 width = 0;
  u64 best_cost = ~0ULL;
  pick.tied = false;
  for (u32 w = 0; w <= pcst::kMaxPackWidth; ++w) {
    u64 cost = (static_cast<u64>(n) * w + 7) / 8;
    for (u32 i = 0; i < n; ++i) {
      const u64 high = w >= 64 ? 0 : zz[i] >> w;
      if (high != 0) cost += 1 + pcst::varint_len(high);
    }
    if (cost < best_cost) {
      best_cost = cost;
      width = w;
      pick.tied = false;
    } else if (cost == best_cost) {
      pick.tied = true;
    }
  }
  pick.width = width;

  out.push_back(static_cast<char>(shift));
  out.push_back(static_cast<char>(width));
  const u64 mask = width == 0 ? 0 : ~0ULL >> (64 - width);
  u64 acc = 0;
  u32 bits = 0;
  for (u32 i = 0; i < n; ++i) {
    acc |= (zz[i] & mask) << bits;
    bits += width;
    while (bits >= 8) {
      out.push_back(static_cast<char>(acc & 0xff));
      acc >>= 8;
      bits -= 8;
    }
  }
  if (bits > 0) out.push_back(static_cast<char>(acc & 0xff));

  u64 num_exceptions = 0;
  for (u32 i = 0; i < n; ++i) {
    if ((zz[i] >> width) != 0) ++num_exceptions;
  }
  pcst::put_varint(out, num_exceptions);
  for (u32 i = 0; i < n; ++i) {
    const u64 high = zz[i] >> width;
    if (high != 0) {
      out.push_back(static_cast<char>(i));
      pcst::put_varint(out, high);
    }
  }

  u64 rle_cost = 0;
  for (u32 i = 0; i < n;) {
    u32 run = 1;
    while (i + run < n &&
           events[i + run].gap_instructions == events[i].gap_instructions) {
      ++run;
    }
    rle_cost += pcst::varint_len(events[i].gap_instructions) +
                pcst::varint_len(run);
    i += run;
  }
  u64 num_nibbles = 0;
  u64 packed_cost = (n + 3) / 4;
  for (u32 i = 0; i < n; ++i) {
    const u32 gap = events[i].gap_instructions;
    if (gap >= pcst::kGapEscape2Bit) ++num_nibbles;
    if (gap >= pcst::kGapNibbleBias + pcst::kGapNibbleEscape) {
      packed_cost += pcst::varint_len(gap);
    }
  }
  packed_cost += (num_nibbles + 1) / 2;

  if (rle_cost <= packed_cost) {
    out.push_back(static_cast<char>(pcst::kGapModeRle));
    for (u32 i = 0; i < n;) {
      const u32 gap = events[i].gap_instructions;
      u32 run = 1;
      while (i + run < n && events[i + run].gap_instructions == gap) ++run;
      pcst::put_varint(out, gap);
      pcst::put_varint(out, run);
      i += run;
    }
  } else {
    out.push_back(static_cast<char>(pcst::kGapModePacked));
    for (u32 i = 0; i < n; i += 4) {
      u8 packed = 0;
      for (u32 j = 0; j < 4 && i + j < n; ++j) {
        const u32 gap = events[i + j].gap_instructions;
        const u8 code = gap < pcst::kGapEscape2Bit ? static_cast<u8>(gap)
                                                   : pcst::kGapEscape2Bit;
        packed = static_cast<u8>(packed | (code << (2 * j)));
      }
      out.push_back(static_cast<char>(packed));
    }
    u8 nib_acc = 0;
    bool nib_half = false;
    for (u32 i = 0; i < n; ++i) {
      const u32 gap = events[i].gap_instructions;
      if (gap < pcst::kGapEscape2Bit) continue;
      const u32 rel = gap - pcst::kGapNibbleBias;
      const u8 nib = rel < pcst::kGapNibbleEscape ? static_cast<u8>(rel)
                                                  : pcst::kGapNibbleEscape;
      if (!nib_half) {
        nib_acc = nib;
        nib_half = true;
      } else {
        out.push_back(static_cast<char>(nib_acc | (nib << 4)));
        nib_half = false;
      }
    }
    if (nib_half) out.push_back(static_cast<char>(nib_acc));
    for (u32 i = 0; i < n; ++i) {
      const u32 gap = events[i].gap_instructions;
      if (gap >= pcst::kGapNibbleBias + pcst::kGapNibbleEscape) {
        pcst::put_varint(out, gap);
      }
    }
  }
}

}  // namespace oracle

/// The adversarial fixed blocks: all-identical addresses, alternating
/// extremes, single events at both address extremes, interleaved kinds.
std::vector<std::vector<TraceEvent>> adversarial_blocks() {
  std::vector<std::vector<TraceEvent>> blocks;
  // All-identical addresses: every delta (after the first per kind) is 0.
  blocks.emplace_back(256, make_event(0x4000, 0, 1));
  // Alternating extremes: every delta is a 64-bit exception.
  std::vector<TraceEvent> extremes;
  for (u32 i = 0; i < 256; ++i) {
    extremes.push_back(make_event(i % 2 ? ~0ULL : 0, 0, i % 2 ? 0 : ~0u));
  }
  blocks.push_back(extremes);
  // Single event of each kind, at both address extremes.
  for (u8 k = 0; k < 3; ++k) {
    blocks.push_back({make_event(0, k, 0)});
    blocks.push_back({make_event(~0ULL, k, 0xffff'ffffu)});
  }
  // Interleaved kinds with per-kind strides (exercises per-kind contexts).
  std::vector<TraceEvent> mixed;
  for (u32 i = 0; i < 255; ++i) {
    mixed.push_back(make_event(0x1000'0000ULL * (i % 3) + i * 64ULL,
                               static_cast<u8>(i % 3), i % 19));
  }
  blocks.push_back(mixed);
  return blocks;
}

/// A block whose zig-zag values have exactly bits[i % bits.size()] bits
/// each, with odd deltas so the block's shift is 0. Kinds are random;
/// addresses follow each kind's own previous address.
std::vector<TraceEvent> block_of_widths(Rng& rng, u32 n,
                                        const std::vector<u32>& bits) {
  std::vector<TraceEvent> evs;
  u64 last[pcst::kNumKinds] = {0, 0, 0};
  for (u32 i = 0; i < n; ++i) {
    const u32 b = bits[i % bits.size()];
    // zz = 1 mod 4 or 2 mod 4 decodes to an odd delta.
    u64 zz = b == 0 ? 0 : b == 1 ? 1 : b == 2 ? 2 : u64{1} << (b - 1);
    if (b >= 3) {
      const u64 middle = rng.next_u64() & ((u64{1} << (b - 1)) - 1);
      zz |= (middle & ~u64{3}) | 1;
    }
    const u64 delta = (zz >> 1) ^ (0ULL - (zz & 1));
    const u8 k = static_cast<u8>(rng.uniform_int(pcst::kNumKinds));
    last[k] += delta;
    const u32 gap = static_cast<u32>(rng.uniform_int(40));
    evs.push_back(make_event(last[k], k, gap));
  }
  return evs;
}

// ---------------------------------------------------------------------------
// Block-codec round trips (encode_pcst_block / decode_pcst_block directly).

void roundtrip_block(const std::vector<TraceEvent>& evs) {
  ASSERT_LE(evs.size(), pcst::kEventsPerBlock);
  std::string payload;
  encode_pcst_block(evs.data(), static_cast<u32>(evs.size()), payload);
  PcstBlockRef ref;
  ref.offset = 0;
  ref.bytes = static_cast<u32>(payload.size());
  ref.events = static_cast<u32>(evs.size());
  ref.checksum = pcst::fnv1a(reinterpret_cast<const u8*>(payload.data()),
                             payload.size());
  TraceEvent out[pcst::kEventsPerBlock];
  const u32 n = decode_pcst_block(
      reinterpret_cast<const u8*>(payload.data()), ref, 0, out, "mem");
  ASSERT_EQ(n, evs.size());
  for (u32 i = 0; i < n; ++i) {
    EXPECT_TRUE(events_equal(evs[i], out[i])) << "event " << i;
  }
}

TEST(PcstBlockCodec, RandomizedRoundTrips) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    Rng rng(seed * 1000003);
    const u64 n = 1 + rng.uniform_int(pcst::kEventsPerBlock);
    roundtrip_block(random_events(seed, n));
  }
}

TEST(PcstBlockCodec, AdversarialFixedBlocks) {
  for (const auto& block : adversarial_blocks()) roundtrip_block(block);
}

TEST(PcstBlockCodec, EncoderMatchesExhaustiveWidthSearch) {
  std::vector<u32> wins(pcst::kMaxPackWidth + 1, 0);
  u32 tied = 0;
  u32 blocks = 0;
  const auto check = [&](const std::vector<TraceEvent>& evs) {
    const u32 n = static_cast<u32>(evs.size());
    std::string got = "prefix";
    std::string want = "prefix";
    oracle::WidthPick pick;
    encode_pcst_block(evs.data(), n, got);
    oracle::encode_block(evs.data(), n, want, pick);
    ASSERT_EQ(got, want) << "block " << blocks << ", " << n << " events";
    ++wins[pick.width];
    if (pick.tied) ++tied;
    ++blocks;
  };

  for (u64 seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed * 7919);
    check(random_events(seed, 1 + rng.uniform_int(pcst::kEventsPerBlock)));
  }
  for (const auto& block : adversarial_blocks()) check(block);
  for (u32 n : {1u, 2u, 3u, 4u, 255u, 256u}) {
    check(random_events(n + 5000, n));
    check(std::vector<TraceEvent>(n, make_event(0x4000, 1, 7)));
  }
  // Every width wins: blocks of one bit width (a single event also ties
  // with every wider width that packs into the same bytes), then blocks
  // mixing two widths, whose exceptions trade against the packed lane.
  Rng rng(99);
  for (u32 b = 0; b <= pcst::kMaxPackWidth; ++b) {
    for (u32 n : {1u, 7u, 256u}) check(block_of_widths(rng, n, {b}));
  }
  for (int i = 0; i < 1000; ++i) {
    const u32 lo = static_cast<u32>(rng.uniform_int(65));
    const u32 hi = static_cast<u32>(rng.uniform_int(65));
    std::vector<u32> bits(1 + rng.uniform_int(16), lo);
    bits.back() = hi;
    check(block_of_widths(
        rng, 1 + static_cast<u32>(rng.uniform_int(pcst::kEventsPerBlock)),
        bits));
  }
  for (u32 w = 0; w <= pcst::kMaxPackWidth; ++w) {
    EXPECT_GT(wins[w], 0u) << "width " << w << " never won";
  }
  EXPECT_GT(tied, 0u);
}

TEST(PcstBlockCodec, RejectsOutOfRangeSizes) {
  std::string out;
  TraceEvent ev = make_event(0, 0, 0);
  EXPECT_THROW(encode_pcst_block(&ev, 0, out), std::invalid_argument);
  EXPECT_THROW(encode_pcst_block(&ev, pcst::kEventsPerBlock + 1, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Whole-container round trips.

TEST(PcstContainer, RandomizedRoundTrips) {
  const std::string path = temp_path("prop.pcst");
  // Sizes straddling the block boundary plus a multi-block tail case.
  for (u64 n : {1ULL, 255ULL, 256ULL, 257ULL, 1000ULL, 4113ULL}) {
    const auto evs = random_events(n * 7 + 1, n);
    write_pcst(path, evs, "prop");
    PcstTrace replay(path);
    EXPECT_EQ(replay.file().event_count(), n);
    const auto got = read_all(replay);
    ASSERT_EQ(got.size(), evs.size());
    for (u64 i = 0; i < n; ++i) {
      ASSERT_TRUE(events_equal(evs[i], got[i])) << "n=" << n << " event " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, EmptyTraceRoundTrips) {
  const std::string path = temp_path("empty.pcst");
  write_pcst(path, {}, "empty");
  PcstTrace replay(path);
  EXPECT_EQ(replay.file().event_count(), 0u);
  EXPECT_EQ(replay.file().block_count(), 0u);
  TraceEvent ev;
  EXPECT_FALSE(replay.next(ev));
  EXPECT_TRUE(is_pcst_file(path));
  std::remove(path.c_str());
}

TEST(PcstContainer, NextBlockMatchesNextLoop) {
  const std::string path = temp_path("blockread.pcst");
  const auto evs = random_events(99, 1000);
  write_pcst(path, evs, "blockread");
  // Drain via next_block with sizes that hit the zero-copy fast path (>=
  // a full block) and the buffered-tail path (< a block), against next().
  for (u64 chunk : {100ULL, 256ULL, 300ULL, 1024ULL}) {
    PcstTrace replay(path);
    std::vector<TraceEvent> got;
    std::vector<TraceEvent> buf(chunk);
    u64 n = 0;
    while ((n = replay.next_block(buf.data(), chunk)) > 0) {
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_EQ(got.size(), evs.size()) << "chunk " << chunk;
    for (u64 i = 0; i < evs.size(); ++i) {
      ASSERT_TRUE(events_equal(evs[i], got[i]))
          << "chunk " << chunk << " event " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, ConvertRoundTripPreservesEventsAndName) {
  const std::string text = temp_path("conv.trace");
  const std::string pcst = temp_path("conv.pcst");
  const std::string back = temp_path("conv_back.trace");
  auto source = make_spec_trace("gcc", 11);
  record_trace(*source, text, 20'000);

  EXPECT_EQ(convert_trace(text, pcst, TraceFormat::kPcst), 20'000u);
  EXPECT_EQ(convert_trace(pcst, back, TraceFormat::kText), 20'000u);

  // The .pcst embeds the text replay's name, so reports stay identical.
  PcstTrace replay(pcst);
  EXPECT_STREQ(replay.name(), FileTrace(text).name());

  auto a = read_all(*open_trace_file(text));
  auto b = read_all(*open_trace_file(pcst));
  auto c = read_all(*open_trace_file(back));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (u64 i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(events_equal(a[i], b[i])) << "event " << i;
    ASSERT_TRUE(events_equal(a[i], c[i])) << "event " << i;
  }
  std::remove(text.c_str());
  std::remove(pcst.c_str());
  std::remove(back.c_str());
}

TEST(PcstContainer, RecordedBytesArePinned) {
  // gcc at trace seed 42, 200k events, in both containers: the bytes the
  // first recorder wrote. Replays only check what decodes, so this is what
  // holds the encoder's choices (and the text renderer) fixed.
  const auto fnv1a64 = [](const std::vector<u8>& bytes) {
    u64 h = 0xcbf29ce484222325ULL;
    for (const u8 b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    return h;
  };
  const std::string text = temp_path("pinned.trace");
  const std::string pcst = temp_path("pinned.pcst");
  for (const auto& [path, format] : {std::pair{text, TraceFormat::kText},
                                     std::pair{pcst, TraceFormat::kPcst}}) {
    auto source = make_spec_trace("gcc", 42);
    EXPECT_EQ(record_trace(*source, path, 200'000, format), 200'000u);
  }
  const auto text_bytes = slurp(text);
  const auto pcst_bytes = slurp(pcst);
  EXPECT_EQ(text_bytes.size(), 2'562'802u);
  EXPECT_EQ(fnv1a64(text_bytes), 0x9cbb4e2a0f4b483aULL);
  EXPECT_EQ(pcst_bytes.size(), 584'247u);
  EXPECT_EQ(fnv1a64(pcst_bytes), 0xde2fefdb9ab00f6fULL);
  std::remove(text.c_str());
  std::remove(pcst.c_str());
}

// ---------------------------------------------------------------------------
// Corruption rejection: damage must be detected and localized.

TEST(PcstContainer, TruncatedFileRejectedAtOpen) {
  const std::string path = temp_path("trunc.pcst");
  write_pcst(path, random_events(5, 600), "trunc");
  auto bytes = slurp(path);
  for (u64 keep : {bytes.size() - 1, bytes.size() / 2, u64{10}}) {
    spit(path, std::vector<u8>(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
    EXPECT_THROW(PcstFile f(path), std::runtime_error) << "keep " << keep;
  }
  std::remove(path.c_str());
}

TEST(PcstContainer, BitFlipRejectedNamingTheBlock) {
  const std::string path = temp_path("flip.pcst");
  write_pcst(path, random_events(6, 600), "flip");  // 3 blocks
  auto bytes = slurp(path);
  const PcstHeader h = parse_pcst_header(bytes.data(), bytes.size(), path);
  const auto index = parse_pcst_index(bytes.data(), bytes.size(), h, path);
  ASSERT_EQ(index.size(), 3u);

  // Flip one bit in the middle of block 1's payload: the file still opens
  // (header and index are intact) but replay must throw naming block 1.
  auto damaged = bytes;
  damaged[index[1].offset + index[1].bytes / 2] ^= 0x10;
  spit(path, damaged);
  PcstTrace replay(path);
  TraceEvent ev;
  try {
    while (replay.next(ev)) {
    }
    FAIL() << "expected corruption to be detected";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("block 1"), std::string::npos)
        << err.what();
  }
  EXPECT_EQ(replay.events_read(), 256u);  // block 0 replayed fine

  // A flipped header byte is caught at open.
  damaged = bytes;
  damaged[6] ^= 0x01;
  spit(path, damaged);
  EXPECT_THROW(PcstFile f(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Replay differential: a converted trace is the same workload. Reports for
// text and .pcst replays must be byte-identical, at 1 and at 8 threads.

std::string replay_csv(const std::string& file, u32 threads) {
  TraceReplayJobSpec spec;
  spec.id = "difftest";
  spec.file = file;
  spec.policy = "all";
  spec.refs = 60'000;
  spec.warmup = 15'000;
  spec.csv = true;
  std::ostringstream out;
  run_trace_replay_job(spec, out, threads);
  return out.str();
}

TEST(PcstReplayDifferential, CsvReportsIdenticalToTextAtAnyThreadCount) {
  const std::string text = temp_path("diff.trace");
  const std::string pcst = temp_path("diff.pcst");
  auto source = make_spec_trace("hmmer", 42);
  record_trace(*source, text, 80'000);
  convert_trace(text, pcst, TraceFormat::kPcst);

  const std::string base = replay_csv(text, 1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, replay_csv(pcst, 1));
  EXPECT_EQ(base, replay_csv(text, 8));
  EXPECT_EQ(base, replay_csv(pcst, 8));
  std::remove(text.c_str());
  std::remove(pcst.c_str());
}

}  // namespace
}  // namespace pcs
