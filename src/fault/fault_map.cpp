#include "fault/fault_map.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fault/ber_model.hpp"
#include "fault/rung_cuts.hpp"
#include "fault/set_fold.hpp"
#include "util/rng.hpp"

namespace pcs {

FaultMap::FaultMap(std::vector<Volt> levels_ascending, u32 assoc_hint)
    : levels_(std::move(levels_ascending)), assoc_hint_(assoc_hint) {
  if (levels_.empty()) throw std::invalid_argument("need >= 1 VDD level");
  if (levels_.size() > kMaxLevels) {
    throw std::invalid_argument(
        "fault map holds at most 255 VDD levels (u8 codes), got " +
        std::to_string(levels_.size()));
  }
  if (!std::is_sorted(levels_.begin(), levels_.end()) ||
      std::adjacent_find(levels_.begin(), levels_.end()) != levels_.end()) {
    throw std::invalid_argument("levels must be strictly ascending");
  }
}

FaultMap::FaultMap(std::vector<Volt> levels_ascending,
                   std::span<const float> block_fail_voltages, u32 assoc_hint)
    : FaultMap(std::move(levels_ascending), assoc_hint) {
  // Compare in float so a measured failure voltage exactly at a level
  // voltage counts as faulty there (cells fail at V <= Vf).  The thresholds
  // ascend, so "count of levels <= vf" equals the length of the true prefix
  // the reference level loop walked -- computed branchlessly here.
  const std::vector<float> thr = thresholds();
  std::vector<u64> code_hist(thr.size() + 1, 0);
  code_.resize(block_fail_voltages.size());
  for (u64 b = 0; b < code_.size(); ++b) {
    const float v = block_fail_voltages[b];
    u32 c = 0;
    for (const float t : thr) c += t <= v ? 1u : 0u;
    code_[b] = static_cast<u8>(c);
    ++code_hist[c];
  }
  summarize(code_hist);
}

FaultMap FaultMap::sample(std::vector<Volt> levels_ascending,
                          const BerModel& ber, u64 num_blocks,
                          u32 bits_per_block, u32 assoc_hint, Rng& rng) {
  FaultMap m(std::move(levels_ascending), assoc_hint);
  // A code counts the thresholds at or below the block's fail voltage:
  // RungCuts' bucket over the thresholds, compared exactly in double.
  const std::vector<float> thr = m.thresholds();
  const std::vector<Volt> rungs(thr.begin(), thr.end());
  const RungCuts cuts(rungs, ber.mu(), ber.sigma(), bits_per_block);
  std::vector<u64> code_hist(rungs.size() + 1, 0);
  m.code_.resize(num_blocks);
  // Draws go through fixed chunks, so the buffers stay small on any die.
  constexpr u64 kChunk = 4096;
  std::vector<u64> draws(std::min(num_blocks, kChunk));
  std::vector<u16> buckets(draws.size());
  for (u64 base = 0; base < num_blocks; base += kChunk) {
    const std::size_t todo = std::min(kChunk, num_blocks - base);
    const std::span<u64> d(draws.data(), todo);
    const std::span<u16> b(buckets.data(), todo);
    rng.uniform_bits_block(d);
    cuts.bucket_draws(d, b);
    for (std::size_t i = 0; i < todo; ++i) {
      m.code_[base + i] = static_cast<u8>(b[i]);
      ++code_hist[b[i]];
    }
  }
  m.summarize(code_hist);
  return m;
}

std::vector<float> FaultMap::thresholds() const {
  std::vector<float> thr(levels_.size());
  for (std::size_t l = 0; l < thr.size(); ++l) {
    thr[l] = static_cast<float>(levels_[l]);
  }
  return thr;
}

void FaultMap::summarize(std::span<const u64> code_hist) {
  // faulty_count(L) = #blocks with code >= L: one suffix sum over the code
  // histogram instead of up-to-N increments per block.
  const u32 n = num_levels();
  faulty_at_level_.assign(n, 0);
  u64 running = 0;
  for (u32 l = n; l >= 1; --l) {
    running += code_hist[l];
    faulty_at_level_[l - 1] = running;
  }
  // Viability summary for the hinted associativity: a set is all-faulty at
  // level L iff L <= min(code in set), so max-of-set-minima decides
  // viability for every level at once.
  if (assoc_hint_ > 0) {
    max_min_code_ = fold_sets<u8>(code_, assoc_hint_, u8{255}, u8{0});
  }
}

u64 FaultMap::faulty_count(u32 level) const noexcept {
  return faulty_at_level_[level - 1];
}

double FaultMap::effective_capacity(u32 level) const noexcept {
  if (code_.empty()) return 1.0;
  return 1.0 - static_cast<double>(faulty_count(level)) /
                   static_cast<double>(code_.size());
}

bool FaultMap::viable(u32 assoc, u32 level) const noexcept {
  if (assoc != 0 && assoc == assoc_hint_) return level > max_min_code_;
  return viable_reference(assoc, level);
}

bool FaultMap::viable_reference(u32 assoc, u32 level) const noexcept {
  const u64 sets = code_.size() / assoc;
  for (u64 s = 0; s < sets; ++s) {
    bool any_good = false;
    for (u32 w = 0; w < assoc; ++w) {
      if (!faulty_at(s * assoc + w, level)) {
        any_good = true;
        break;
      }
    }
    if (!any_good) return false;
  }
  return true;
}

u32 FaultMap::lowest_level_with_capacity(u32 assoc,
                                         double min_capacity) const noexcept {
  for (u32 level = 1; level <= num_levels(); ++level) {
    if (effective_capacity(level) >= min_capacity && viable(assoc, level)) {
      return level;
    }
  }
  return 0;
}

u32 FaultMap::fm_bits_for_levels(u32 num_levels) noexcept {
  u32 bits = 0;
  u32 states = num_levels + 1;  // codes 0..N
  while ((1u << bits) < states) ++bits;
  return bits;
}

u64 FaultMap::storage_bits() const noexcept {
  return num_blocks() * (fm_bits_for_levels(num_levels()) + 1ULL);
}

}  // namespace pcs
