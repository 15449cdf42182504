#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pcs {

namespace {

/// The 4096 clamp of the gap: a gap never spans more instructions.
constexpr double kMaxGap = 4096.0;

/// Each gap's cut, for the gaps top - 1 down to 0: the first draw past 0
/// whose gap is at most that gap, DrawCuts::kDraws if none. Bisects
/// `exact` with the invariant "lo is above the gap, hi at or below it" and
/// the virtual ends 0 (above: draw 0 is left out, as its clamped u breaks
/// the order) and kDraws (at or below). The gap is at most t exactly when
/// u > exp((t + 1) * log_denom), so each search starts from a bracket of
/// +-2^3 draws around 2^53 times that (which lands within 2 draws of every
/// cut of the 16 profiles), checked at both ends; a gap whose check fails
/// searches the full range instead. Forced non-decreasing.
template <class Exact>
std::vector<i64> bisect_gap_cuts(u32 top, double log_denom,
                                 const Exact& exact) {
  const i64 draws = static_cast<i64>(DrawCuts::kDraws);
  constexpr i64 kBracket = i64{1} << 3;
  std::vector<i64> cuts(top);
  for (u32 i = 0; i < top; ++i) {
    const u32 t = top - 1 - i;
    const auto at_or_below = [&](i64 k) {
      return exact(static_cast<u64>(k)) <= t;
    };
    const double seed =
        static_cast<double>(DrawCuts::kDraws) *
        std::exp(static_cast<double>(t + 1) * log_denom);
    const i64 k0 = static_cast<i64>(seed);
    i64 lo = std::max<i64>(k0 - kBracket, 0);
    i64 hi = std::min<i64>(k0 + kBracket, draws);
    if ((lo > 0 && at_or_below(lo)) || (hi < draws && !at_or_below(hi))) {
      lo = 0;
      hi = draws;
    }
    while (hi - lo > 1) {
      const i64 mid = lo + (hi - lo) / 2;
      (at_or_below(mid) ? hi : lo) = mid;
    }
    cuts[i] = i == 0 ? hi : std::max(hi, cuts[i - 1]);
  }
  return cuts;
}

double mean_gap(double refs_per_instruction) {
  return 1.0 / refs_per_instruction - 1.0;
}

/// Throws unless `spec` can drive a trace.
WorkloadSpec validated(WorkloadSpec spec) {
  if (spec.phases.empty()) {
    throw std::invalid_argument("workload needs >= 1 phase");
  }
  if (spec.refs_per_instruction <= 0.0 || spec.refs_per_instruction > 1.0) {
    throw std::invalid_argument("refs_per_instruction must be in (0, 1]");
  }
  return spec;
}

}  // namespace

GapTable::GapTable(double refs_per_instruction)
    // Geometric gap with mean (1/refs_per_instruction - 1) non-memory
    // instructions between data references; exact() is the expression the
    // generator has always drawn gaps with, so the gap sequence (and thus
    // every golden trace) is unchanged.
    : log_denom_(std::log1p(-1.0 / (mean_gap(refs_per_instruction) + 1.0))),
      drawn_(mean_gap(refs_per_instruction) > 0.0),
      top_(exact(1)),
      cuts_(bisect_gap_cuts(top_, log_denom_,
                            [this](u64 k) { return exact(k); })) {}

u32 GapTable::exact(u64 draw) const noexcept {
  double u = static_cast<double>(draw) * 0x1.0p-53;
  if (u <= 0.0) u = 1e-12;
  const double g = std::floor(std::log(u) / log_denom_);
  return static_cast<u32>(std::min(g, kMaxGap));
}

SyntheticTrace::SyntheticTrace(WorkloadSpec spec, u64 seed)
    : spec_(validated(std::move(spec))),
      rng_(seed),
      gap_(spec_.refs_per_instruction) {
  code_span_ = std::max<u64>(spec_.code_footprint_bytes, 64);
  step_ = spec_.instr_bytes % code_span_;
  shared_span_ = std::max<u64>(spec_.shared_bytes, 64);
  enter_phase();
}

void SyntheticTrace::enter_phase() noexcept {
  const PhaseSpec& p = phase();
  ws_span_ = std::max<u64>(p.working_set_bytes, 64);
  hot_span_ = std::max<u64>(
      static_cast<u64>(p.hot_frac * static_cast<double>(ws_span_)), 64);
  stream_step_ = p.stream_stride % ws_span_;
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
    // stream_pos_ and stream_step_ both stay below the working set, so one
    // subtraction wraps the sweep as `(stream_pos_ + stride) % ws` would.
    offset = stream_pos_;
    stream_pos_ += stream_step_;
    if (stream_pos_ >= ws) stream_pos_ -= ws;
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

inline bool SyntheticTrace::next_event(TraceEvent& out) {
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
    // The gap's draw index is the K that Rng::uniform would scale.
    remaining_gap_ = gap_.drawn() ? gap_.gap(rng_.next_u64() >> 11) : 0;
    gap_accum_ = 0;
    have_pending_ = true;
    ++refs_in_phase_;
  }

  // Advance the PC through the gap instructions; emit an ifetch whenever a
  // new instruction block is entered. The PC and step_ both stay below the
  // code span, so one subtraction wraps the PC exactly as `% code` would,
  // and the PC leaves its fetch block exactly when pc_ - block_lo_ reaches
  // the block size (from below, the difference wraps past it), so only a
  // new block pays the division.
  const u64 code = code_span_;
  const u64 block_bytes = spec_.block_bytes;
  while (remaining_gap_ > 0) {
    if (rng_.bernoulli(spec_.far_jump_prob)) {
      pc_ = rng_.uniform_int(code) & ~static_cast<u64>(spec_.instr_bytes - 1);
    } else {
      pc_ += step_;
      if (pc_ >= code) pc_ -= code;
    }
    --remaining_gap_;
    ++gap_accum_;
    if (pc_ - block_lo_ >= block_bytes) {
      block_lo_ = pc_ / block_bytes * block_bytes;
      u64 fetch_block = spec_.code_base_addr + block_lo_;
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

bool SyntheticTrace::next(TraceEvent& out) { return next_event(out); }

u64 SyntheticTrace::next_block(TraceEvent* out, u64 max_events) {
  u64 n = 0;
  while (n < max_events && next_event(out[n])) ++n;
  return n;
}

}  // namespace pcs
