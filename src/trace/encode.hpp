// Streaming .pcst encoder. Buffers events into 256-event blocks, compresses
// each block independently (per-kind zig-zag varint address deltas,
// run-length-encoded gaps, packed 2-bit kinds), and appends it to the file
// with its index entry held back in memory; finish() lands the trailing
// block index and rewrites the header with the final counts. See
// trace/format.hpp for the normative layout.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "cache/trace_source.hpp"
#include "trace/format.hpp"
#include "util/types.hpp"

namespace pcs {

/// Writes one .pcst container. Not copyable; the file is valid only after
/// finish() (the destructor calls it, swallowing errors -- call finish()
/// explicitly to observe write failures).
class PcstWriter {
 public:
  /// Creates/truncates `path`. `source_name` is embedded in the header and
  /// becomes the replayed trace's TraceSource::name() -- store the workload
  /// name the equivalent text replay would report so converted traces
  /// produce byte-identical SimReports (TRACES.md).
  PcstWriter(const std::string& path, const std::string& source_name);
  PcstWriter(const PcstWriter&) = delete;
  PcstWriter& operator=(const PcstWriter&) = delete;
  ~PcstWriter();

  void append(const TraceEvent& ev);

  /// Flushes the final partial block, writes the index, and rewrites the
  /// header. Idempotent. Throws std::runtime_error on write failure.
  /// Returns the total events written.
  u64 finish();

 private:
  void flush_block();

  std::ofstream out_;
  std::string path_;
  std::string name_;
  std::vector<TraceEvent> block_;
  struct IndexEntry {
    u64 offset;
    u32 bytes;
    u32 events;
    u32 checksum;
  };
  std::vector<IndexEntry> index_;
  u64 offset_ = 0;  ///< next block's file offset
  u64 events_ = 0;
  bool finished_ = false;
};

/// Encodes one block payload (events[0..n)) into `out` (appended). Exposed
/// for the codec property tests; PcstWriter uses it internally.
void encode_pcst_block(const TraceEvent* events, u32 n, std::string& out);

/// Records up to `count` events from `source` into `path` in the given
/// format. kText delegates to the line-per-event writer in
/// workload/trace_file.hpp; kPcst streams through PcstWriter with
/// source.name() as the embedded workload name. Returns events written.
u64 record_trace(TraceSource& source, const std::string& path, u64 count,
                 TraceFormat format);

}  // namespace pcs
