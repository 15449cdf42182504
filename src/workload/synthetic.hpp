// Parameterized synthetic workload generator.
//
// Substitutes for the paper's sixteen SPEC CPU2006 traces (DESIGN.md
// section 4). Each workload is a sequence of *phases*; a phase fixes the
// data working-set size, the streaming/random mix, the write fraction, and
// the temporal-locality knobs. Phase changes are what the DPCS policy
// exploits ("variations in the working set ... across different
// applications, or during the execution of a single application", paper
// section 3.3), so the generator makes them first-class.
//
// Instruction fetch is modelled too: the program counter walks a loop of
// `code_footprint_bytes` with occasional far jumps, emitting one L1I block
// reference whenever it crosses a block boundary.
#pragma once

#include <string>
#include <vector>

#include "cache/trace_source.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace pcs {

/// One execution phase of a synthetic workload.
struct PhaseSpec {
  u64 working_set_bytes = 1 * 1024 * 1024;
  double write_frac = 0.25;     ///< stores / data references
  double stream_frac = 0.30;    ///< sequential-sweep share of data refs
  u64 stream_stride = 64;       ///< bytes between consecutive sweep refs
  double hot_frac = 0.10;       ///< hot-subset size as a fraction of the WS
  double hot_prob = 0.70;       ///< P[random ref lands in the hot subset]
  /// Short-term temporal locality: probability a reference re-touches one of
  /// the ~64 most recently used blocks (register spills, stack, loop-carried
  /// values). This is what gives realistic L1 hit rates.
  double reuse_prob = 0.60;
  u64 duration_refs = 500'000;  ///< data references before the next phase
};

/// Whole-workload parameters.
struct WorkloadSpec {
  std::string name = "synthetic";
  std::vector<PhaseSpec> phases{PhaseSpec{}};
  bool loop_phases = true;          ///< cycle phases forever vs stop at end
  double refs_per_instruction = 0.33;  ///< data refs per retired instruction
  u64 code_footprint_bytes = 64 * 1024;
  double far_jump_prob = 0.002;     ///< per-instruction far-jump probability
  /// Inner-loop instruction locality: probability an instruction-block fetch
  /// re-targets one of the ~32 most recently executed blocks instead of
  /// fresh code. Keeps L1I miss rates in the realistic few-percent range.
  double code_reuse_prob = 0.90;
  u64 data_base_addr = 0x4000'0000; ///< heap base (keeps code/data disjoint)
  u64 code_base_addr = 0x0040'0000;
  /// Multi-threaded-style sharing: fraction of data references directed at
  /// a shared region common to all cores (same shared_base_addr). Drives
  /// the coherence protocol in multi-core runs; 0 = fully private
  /// (multiprogrammed) workloads.
  double shared_frac = 0.0;
  u64 shared_base_addr = 0x2000'0000;
  u64 shared_bytes = 256 * 1024;
  double shared_write_frac = 0.30;
  u32 instr_bytes = 4;              ///< Alpha fixed-width instructions
  u32 block_bytes = 64;             ///< ifetch granularity
};

/// TraceSource implementation over a WorkloadSpec.
class SyntheticTrace final : public TraceSource {
 public:
  SyntheticTrace(WorkloadSpec spec, u64 seed);

  bool next(TraceEvent& out) override;
  const char* name() const override { return spec_.name.c_str(); }

  const WorkloadSpec& spec() const noexcept { return spec_; }
  /// Index of the phase that produced the most recent event.
  std::size_t current_phase() const noexcept { return phase_idx_; }

 private:
  const PhaseSpec& phase() const noexcept { return spec_.phases[phase_idx_]; }
  void advance_phase_if_needed();
  void enter_phase() noexcept;
  u64 gen_data_addr();
  u32 draw_gap();

  WorkloadSpec spec_;
  Rng rng_;
  std::size_t phase_idx_ = 0;
  u64 refs_in_phase_ = 0;
  bool exhausted_ = false;

  // Derived constants hoisted off the per-reference path. The RNG draw
  // sequence is part of the determinism contract (golden figure regressions
  // replay it bit-for-bit), so these cache *computations*, never draws:
  // per-phase clamps/products (refreshed by enter_phase) and the geometric
  // gap's log term, which depends only on refs_per_instruction.
  u64 ws_span_ = 64;        ///< max(working_set_bytes, 64) of current phase
  u64 hot_span_ = 64;       ///< max(hot_frac * ws_span_, 64) of current phase
  u64 code_span_ = 64;      ///< max(code_footprint_bytes, 64)
  u64 step_ = 0;            ///< instr_bytes % code_span_, the PC's wrapped step
  u64 shared_span_ = 64;    ///< max(shared_bytes, 64)
  bool gap_enabled_ = false;
  double gap_log_denom_ = 0.0;  ///< log1p(-p) of the geometric gap

  u64 stream_pos_ = 0;  ///< byte offset of the sequential sweep within the WS
  u64 pc_ = 0;          ///< byte offset of the program counter in the code loop
  u64 pc_block_ = 0;    ///< pc_ / block_bytes, carried between steps

  static constexpr std::size_t kReuseWindow = 64;
  std::vector<u64> recent_blocks_;  ///< circular MRU data-block buffer
  std::size_t recent_head_ = 0;

  static constexpr std::size_t kCodeReuseWindow = 32;
  std::vector<u64> recent_code_blocks_;  ///< circular MRU code-block buffer
  std::size_t code_head_ = 0;

  // Pending data event split across ifetch emissions.
  bool have_pending_ = false;
  MemRef pending_data_{};
  u32 remaining_gap_ = 0;
  u32 gap_accum_ = 0;
};

}  // namespace pcs
