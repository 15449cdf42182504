#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcs {

SyntheticTrace::SyntheticTrace(WorkloadSpec spec, u64 seed)
    : spec_(std::move(spec)), rng_(seed) {
  if (spec_.phases.empty()) {
    throw std::invalid_argument("workload needs >= 1 phase");
  }
  if (spec_.refs_per_instruction <= 0.0 || spec_.refs_per_instruction > 1.0) {
    throw std::invalid_argument("refs_per_instruction must be in (0, 1]");
  }
  code_span_ = std::max<u64>(spec_.code_footprint_bytes, 64);
  step_ = spec_.instr_bytes % code_span_;
  shared_span_ = std::max<u64>(spec_.shared_bytes, 64);
  // Geometric gap with mean (1/refs_per_instruction - 1) non-memory
  // instructions between data references; the exact expression below must
  // match what draw_gap historically computed per call, so that the gap
  // sequence (and thus every golden trace) is unchanged.
  const double mean = 1.0 / spec_.refs_per_instruction - 1.0;
  gap_enabled_ = mean > 0.0;
  if (gap_enabled_) {
    const double p = 1.0 / (mean + 1.0);
    gap_log_denom_ = std::log1p(-p);
  }
  enter_phase();
}

void SyntheticTrace::enter_phase() noexcept {
  const PhaseSpec& p = phase();
  ws_span_ = std::max<u64>(p.working_set_bytes, 64);
  hot_span_ = std::max<u64>(
      static_cast<u64>(p.hot_frac * static_cast<double>(ws_span_)), 64);
}

void SyntheticTrace::advance_phase_if_needed() {
  if (refs_in_phase_ < phase().duration_refs) return;
  refs_in_phase_ = 0;
  stream_pos_ = 0;
  if (phase_idx_ + 1 < spec_.phases.size()) {
    ++phase_idx_;
  } else if (spec_.loop_phases) {
    phase_idx_ = 0;
  } else {
    exhausted_ = true;
    return;
  }
  enter_phase();
}

u64 SyntheticTrace::gen_data_addr() {
  const PhaseSpec& p = phase();
  const u64 ws = ws_span_;

  // Short-term reuse first: revisit a recently touched block at a random
  // word within it.
  if (!recent_blocks_.empty() && rng_.bernoulli(p.reuse_prob)) {
    const u64 block = recent_blocks_[rng_.uniform_int(recent_blocks_.size())];
    return block + (rng_.uniform_int(8) << 3);
  }

  u64 offset;
  if (rng_.bernoulli(p.stream_frac)) {
    offset = stream_pos_;
    stream_pos_ = (stream_pos_ + p.stream_stride) % ws;
  } else if (rng_.bernoulli(p.hot_prob)) {
    offset = rng_.uniform_int(hot_span_);
  } else {
    offset = rng_.uniform_int(ws);
  }
  const u64 addr = spec_.data_base_addr + (offset & ~7ULL);
  const u64 block = addr & ~63ULL;
  if (recent_blocks_.size() < kReuseWindow) {
    recent_blocks_.push_back(block);
  } else {
    recent_blocks_[recent_head_] = block;
    recent_head_ = (recent_head_ + 1) % kReuseWindow;
  }
  return addr;
}

u32 SyntheticTrace::draw_gap() {
  if (!gap_enabled_) return 0;
  double u = rng_.uniform();
  if (u <= 0.0) u = 1e-12;
  const double g = std::floor(std::log(u) / gap_log_denom_);
  return static_cast<u32>(std::min(g, 4096.0));
}

bool SyntheticTrace::next(TraceEvent& out) {
  if (exhausted_) return false;

  if (!have_pending_) {
    advance_phase_if_needed();
    if (exhausted_) return false;
    if (spec_.shared_frac > 0.0 && rng_.bernoulli(spec_.shared_frac)) {
      // Reference into the region all cores share (coherence traffic).
      pending_data_.addr =
          spec_.shared_base_addr + (rng_.uniform_int(shared_span_) & ~7ULL);
      pending_data_.write = rng_.bernoulli(spec_.shared_write_frac);
    } else {
      pending_data_.addr = gen_data_addr();
      pending_data_.write = rng_.bernoulli(phase().write_frac);
    }
    pending_data_.ifetch = false;
    remaining_gap_ = draw_gap();
    gap_accum_ = 0;
    have_pending_ = true;
    ++refs_in_phase_;
  }

  // Advance the PC through the gap instructions; emit an ifetch whenever a
  // new instruction block is entered. The PC and step_ both stay below the
  // code span, so one subtraction wraps the PC exactly as `% code` would.
  const u64 code = code_span_;
  while (remaining_gap_ > 0) {
    if (rng_.bernoulli(spec_.far_jump_prob)) {
      pc_ = rng_.uniform_int(code) & ~static_cast<u64>(spec_.instr_bytes - 1);
    } else {
      pc_ += step_;
      if (pc_ >= code) pc_ -= code;
    }
    --remaining_gap_;
    ++gap_accum_;
    const u64 new_block = pc_ / spec_.block_bytes;
    if (new_block != pc_block_) {
      pc_block_ = new_block;
      u64 fetch_block = spec_.code_base_addr + new_block * spec_.block_bytes;
      // Inner loops: most block-level fetches re-execute recent code.
      if (!recent_code_blocks_.empty() &&
          rng_.bernoulli(spec_.code_reuse_prob)) {
        fetch_block =
            recent_code_blocks_[rng_.uniform_int(recent_code_blocks_.size())];
      } else if (recent_code_blocks_.size() < kCodeReuseWindow) {
        recent_code_blocks_.push_back(fetch_block);
      } else {
        recent_code_blocks_[code_head_] = fetch_block;
        code_head_ = (code_head_ + 1) % kCodeReuseWindow;
      }
      out.ref.addr = fetch_block;
      out.ref.write = false;
      out.ref.ifetch = true;
      out.gap_instructions = gap_accum_;
      gap_accum_ = 0;
      return true;
    }
  }

  out.ref = pending_data_;
  out.gap_instructions = gap_accum_;
  have_pending_ = false;
  return true;
}

}  // namespace pcs
