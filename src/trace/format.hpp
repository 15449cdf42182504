// The .pcst binary trace container: on-disk layout constants and the
// primitive codecs (little-endian scalars, LEB128 varints, zig-zag deltas,
// FNV-1a checksums) shared by the encoder (encode.hpp) and the decoder
// (decode.hpp). TRACES.md is the operator-facing spec; this header is the
// single normative definition the docs mirror.
//
// Layout (all scalars little-endian, independent of host byte order):
//
//   header   magic "PCST" | u32 version | u32 events_per_block |
//            u32 name_len | u64 event_count | u64 block_count |
//            u64 index_offset | name bytes | u32 header_checksum
//   blocks   block_count compressed payloads, back to back
//   index    block_count x { u64 offset | u32 bytes | u32 events |
//            u32 checksum } | u32 index_checksum   (at index_offset)
//
// Each block is self-contained -- per-kind delta contexts reset at the
// block boundary -- so corruption localizes to one named block and a
// reader can decode any block without touching the ones before it:
//
//   payload  varint events n |
//            packed 2-bit kinds (0=R 1=W 2=I), 4 per byte |
//            delta section:
//              u8 shift | u8 width |
//              ceil(n*width/8) bytes: LSB-first bitstream holding, per
//              event, the low `width` bits of the zig-zag of the address
//              delta vs the previous event of the SAME kind (per-kind
//              last = 0 at block start), arithmetically shifted right by
//              `shift` -- the largest power of two dividing every delta
//              in the block, so aligned traces shed their dead low bits |
//              varint num_exceptions, then per exception in ascending
//              event order: u8 event_index | varint overflow
//              (the zig-zag value >> width, always nonzero) |
//            gap section: u8 gap_mode, then
//              mode 0 (RLE): (varint gap, varint run_length) pairs until
//              the runs cover every event -- wins on strided traces
//              whose gap is constant for long stretches;
//              mode 1 (packed): 2-bit codes 4 per byte (0,1,2 = the gap;
//              3 = escape), then escape nibbles 2 per byte (0..14 =
//              gap - 3; 15 = escape again), then one varint per
//              remaining gap, all in event order -- wins on irregular
//              traces whose gaps are small but rarely repeat.
//
// The encoder picks `width` and `gap_mode` per block by exact byte cost,
// so every block is as small as this format can make it. For `width` it
// counts the block's zig-zag values by bit width b (0..64) once: a value
// costs no exception at any w >= b and 1 + ceil((b - w) / 7) bytes (index
// byte + varint overflow) at w < b, so
//   cost(w) = ceil(n * w / 8)
//             + sum over b > w of count[b] * (1 + ceil((b - w) / 7))
// is exact without touching the events again, and the smallest w of least
// cost wins.
//
// Versioning: readers reject any version they don't know. Additive changes
// (new header fields after index_offset, new block payload trailers) bump
// the version; nothing is ever reinterpreted in place.
#pragma once

#include <cstddef>
#include <string>

#include "util/types.hpp"

namespace pcs {

/// File format selector for the trace record/convert paths.
enum class TraceFormat {
  kText,  ///< portable line-per-event text (workload/trace_file.hpp)
  kPcst,  ///< compressed binary container defined in this header
};

namespace pcst {

inline constexpr char kMagic[4] = {'P', 'C', 'S', 'T'};
inline constexpr u32 kVersion = 1;
/// Matches the sweep engine's decode-block size (DESIGN.md section 12), so
/// one decoded block drops straight into its per-shard event buffer. Also
/// the format ceiling: exception indexes are a u8, so a v1 reader rejects
/// headers declaring more events per block.
inline constexpr u32 kEventsPerBlock = 256;
/// Widest bit-packed delta lane; zig-zag values needing more spill their
/// high bits into the exception list. Capped so the packer's 64-bit
/// accumulator never overflows (width + 7 carry bits <= 63).
inline constexpr u32 kMaxPackWidth = 56;
/// Fixed header bytes before the name (magic through index_offset).
inline constexpr u64 kHeaderFixedBytes = 4 + 4 + 4 + 4 + 8 + 8 + 8;
/// Sanity bound on the embedded workload name.
inline constexpr u32 kMaxNameLen = 4096;
/// One index entry: offset, bytes, events, checksum.
inline constexpr u64 kIndexEntryBytes = 8 + 4 + 4 + 4;

// ---- FNV-1a (32-bit) -------------------------------------------------------

inline constexpr u32 kFnvBasis = 2166136261u;
inline constexpr u32 kFnvPrime = 16777619u;

inline u32 fnv1a(const u8* data, u64 size, u32 h = kFnvBasis) noexcept {
  for (u64 i = 0; i < size; ++i) h = (h ^ data[i]) * kFnvPrime;
  return h;
}

// ---- Little-endian scalars -------------------------------------------------

inline void put_u32(std::string& out, u32 v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

inline void put_u64(std::string& out, u64 v) {
  put_u32(out, static_cast<u32>(v & 0xffffffffULL));
  put_u32(out, static_cast<u32>(v >> 32));
}

inline u32 get_u32(const u8* p) noexcept {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

inline u64 get_u64(const u8* p) noexcept {
  return static_cast<u64>(get_u32(p)) |
         (static_cast<u64>(get_u32(p + 4)) << 32);
}

// ---- LEB128 varints + zig-zag ----------------------------------------------

/// At most 10 bytes encode any u64.
inline constexpr u32 kMaxVarintBytes = 10;

/// Encoded size of `v` as a varint (the encoder's exact cost model).
inline u32 varint_len(u64 v) noexcept {
  u32 n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline void put_varint(std::string& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Decodes one varint from [p, end); advances p. Returns false on
/// truncation or a >10-byte (overlong) encoding.
inline bool get_varint(const u8*& p, const u8* end, u64& out) noexcept {
  u64 v = 0;
  u32 shift = 0;
  for (u32 i = 0; i < kMaxVarintBytes && p < end; ++i) {
    const u8 byte = *p++;
    v |= static_cast<u64>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Zig-zag of the u64 address delta `d` = cur - prev (mod 2^64)
/// arithmetically shifted right by `shift`: small forward and backward
/// strides both map to small values, and decode is exact for every
/// (prev, cur) pair because everything is mod 2^64. Lossless exactly when
/// 2^shift divides the delta, which the encoder guarantees by choosing the
/// block's common trailing-zero count.
inline u64 zigzag_delta_shifted(u64 d, u32 shift) noexcept {
  u64 x = d >> shift;
  if (shift != 0 && (d >> 63) != 0) x |= ~(~0ULL >> shift);  // sign-extend
  return (x << 1) ^ (0ULL - (x >> 63));
}

inline u64 unzigzag_delta_shifted(u64 prev, u64 zz, u32 shift) noexcept {
  const u64 x = (zz >> 1) ^ (0ULL - (zz & 1));
  return prev + (x << shift);  // mod 2^64
}

// ---- Gap-section codes (mode 1, packed) ------------------------------------

inline constexpr u8 kGapModeRle = 0;
inline constexpr u8 kGapModePacked = 1;
/// 2-bit code 3 = "see the escape nibbles".
inline constexpr u8 kGapEscape2Bit = 3;
/// Escape nibbles encode gap - kGapNibbleBias; nibble 15 = "see the
/// varints", so nibbles cover gaps 3..17 and varints take over at 18.
inline constexpr u32 kGapNibbleBias = 3;
inline constexpr u8 kGapNibbleEscape = 15;
/// Gaps are instruction counts squeezed into TraceEvent's u32.
inline constexpr u64 kMaxGap = 0xffffffffULL;

/// Event-kind codes packed 2 bits each (4 events per byte, little-endian
/// within the byte). 3 is reserved; decoders reject it.
inline constexpr u8 kKindRead = 0;
inline constexpr u8 kKindWrite = 1;
inline constexpr u8 kKindIfetch = 2;
inline constexpr u32 kNumKinds = 3;

}  // namespace pcst
}  // namespace pcs
