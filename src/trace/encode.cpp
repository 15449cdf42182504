#include "trace/encode.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "workload/trace_file.hpp"

namespace pcs {

namespace {

u8 kind_code(const TraceEvent& ev) noexcept {
  if (ev.ref.ifetch) return pcst::kKindIfetch;
  return ev.ref.write ? pcst::kKindWrite : pcst::kKindRead;
}

std::string header_bytes(const std::string& name, u64 event_count,
                         u64 block_count, u64 index_offset) {
  std::string h;
  h.append(pcst::kMagic, sizeof pcst::kMagic);
  pcst::put_u32(h, pcst::kVersion);
  pcst::put_u32(h, pcst::kEventsPerBlock);
  pcst::put_u32(h, static_cast<u32>(name.size()));
  pcst::put_u64(h, event_count);
  pcst::put_u64(h, block_count);
  pcst::put_u64(h, index_offset);
  h += name;
  pcst::put_u32(h, pcst::fnv1a(reinterpret_cast<const u8*>(h.data()),
                               h.size()));
  return h;
}

}  // namespace

void encode_pcst_block(const TraceEvent* events, u32 n, std::string& out) {
  if (n == 0 || n > pcst::kEventsPerBlock) {
    throw std::invalid_argument("encode_pcst_block: block size " +
                                std::to_string(n) + " out of range");
  }
  pcst::put_varint(out, n);

  // One pass over the events: each one's kind and its address delta
  // against the previous event of the same kind (contexts reset per block).
  u8 kinds[pcst::kEventsPerBlock];
  u64 deltas[pcst::kEventsPerBlock];
  u64 last[pcst::kNumKinds] = {0, 0, 0};
  u64 any = 0;
  for (u32 i = 0; i < n; ++i) {
    const u8 k = kind_code(events[i]);
    kinds[i] = k;
    deltas[i] = events[i].ref.addr - last[k];  // mod 2^64
    any |= deltas[i];
    last[k] = events[i].ref.addr;
  }

  // Packed 2-bit kinds, 4 per byte.
  for (u32 i = 0; i < n; i += 4) {
    u8 packed = 0;
    for (u32 j = 0; j < 4 && i + j < n; ++j) {
      packed = static_cast<u8>(packed | (kinds[i + j] << (2 * j)));
    }
    out.push_back(static_cast<char>(packed));
  }

  // ---- Delta section: per-kind contexts, reset each block ------------------
  // Deltas share the block's common power-of-two alignment (`shift`), then
  // their zig-zags go through a bit-packed lane of the cost-optimal `width`
  // with varint exceptions for the tail of the distribution (format.hpp).
  // The cost of every width comes from one histogram of the zig-zags' bit
  // widths; past the widest value a width only adds packed bytes, and the
  // strict `<` keeps the smallest of equally cheap widths.
  const u32 shift =
      any == 0 ? 0 : static_cast<u32>(std::countr_zero(any));
  u64 zz[pcst::kEventsPerBlock];
  u32 count_by_bits[65] = {};
  for (u32 i = 0; i < n; ++i) {
    zz[i] = pcst::zigzag_delta_shifted(deltas[i], shift);
    ++count_by_bits[std::bit_width(zz[i])];
  }
  u32 top = 64;
  while (top > 0 && count_by_bits[top] == 0) --top;

  u32 width = 0;
  u64 best_cost = ~0ULL;
  for (u32 w = 0; w <= std::min(top, pcst::kMaxPackWidth); ++w) {
    u64 cost = (static_cast<u64>(n) * w + 7) / 8;
    for (u32 b = w + 1; b <= top; ++b) {
      cost += static_cast<u64>(count_by_bits[b]) * (1 + (b - w + 6) / 7);
    }
    if (cost < best_cost) {
      best_cost = cost;
      width = w;
    }
  }
  u64 num_exceptions = 0;
  for (u32 b = width + 1; b <= top; ++b) num_exceptions += count_by_bits[b];

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

  pcst::put_varint(out, num_exceptions);
  for (u32 i = 0; i < n; ++i) {
    const u64 high = zz[i] >> width;
    if (high != 0) {
      out.push_back(static_cast<char>(i));
      pcst::put_varint(out, high);
    }
  }

  // ---- Gap section: exact cost pick between RLE and packed codes -----------
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

PcstWriter::PcstWriter(const std::string& path, const std::string& source_name)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      name_(source_name) {
  if (!out_) throw std::runtime_error("cannot create trace file: " + path);
  if (name_.size() > pcst::kMaxNameLen) name_.resize(pcst::kMaxNameLen);
  // Provisional header; finish() rewrites it with the final counts.
  const std::string h = header_bytes(name_, 0, 0, 0);
  out_.write(h.data(), static_cast<std::streamsize>(h.size()));
  offset_ = h.size();
  block_.reserve(pcst::kEventsPerBlock);
}

PcstWriter::~PcstWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor path: the file is left invalid; callers that care about
    // write failures call finish() themselves.
  }
}

void PcstWriter::append(const TraceEvent& ev) {
  block_.push_back(ev);
  ++events_;
  if (block_.size() == pcst::kEventsPerBlock) flush_block();
}

void PcstWriter::flush_block() {
  if (block_.empty()) return;
  payload_.clear();
  encode_pcst_block(block_.data(), static_cast<u32>(block_.size()), payload_);
  out_.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  index_.push_back({offset_, static_cast<u32>(payload_.size()),
                    static_cast<u32>(block_.size()),
                    pcst::fnv1a(reinterpret_cast<const u8*>(payload_.data()),
                                payload_.size())});
  offset_ += payload_.size();
  block_.clear();
}

u64 PcstWriter::finish() {
  if (finished_) return events_;
  finished_ = true;
  flush_block();

  const u64 index_offset = offset_;
  std::string idx;
  for (const IndexEntry& e : index_) {
    pcst::put_u64(idx, e.offset);
    pcst::put_u32(idx, e.bytes);
    pcst::put_u32(idx, e.events);
    pcst::put_u32(idx, e.checksum);
  }
  pcst::put_u32(idx, pcst::fnv1a(reinterpret_cast<const u8*>(idx.data()),
                                 idx.size()));
  out_.write(idx.data(), static_cast<std::streamsize>(idx.size()));

  const std::string h =
      header_bytes(name_, events_, index_.size(), index_offset);
  out_.seekp(0);
  out_.write(h.data(), static_cast<std::streamsize>(h.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("write failed for trace file: " + path_);
  }
  out_.close();
  return events_;
}

u64 record_trace(TraceSource& source, const std::string& path, u64 count,
                 TraceFormat format) {
  if (format == TraceFormat::kText) return record_trace(source, path, count);
  PcstWriter writer(path, source.name());
  TraceEvent ev;
  u64 written = 0;
  while (written < count && source.next(ev)) {
    writer.append(ev);
    ++written;
  }
  writer.finish();
  return written;
}

}  // namespace pcs
