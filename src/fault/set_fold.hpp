// The viability fold: the max over sets of the min over ways of per-block
// values, shared by chip_fail_voltage (block fail voltages, sweep_engine),
// RungCuts::floor_bucket (their ladder buckets) and FaultMap's viability
// summary (fault-map codes).
//
// Header-only with internal linkage, so each translation unit compiles
// just its own element type as if the fold were local to it. That keeps
// sweep_engine.cpp's code, the fig4 sweep's shard loop included, as GCC
// built it before the bucket fold existed: an external (comdat)
// instantiation, or the u16 instantiation in that file, changes its
// inlining decisions.
#pragma once

#include <algorithm>
#include <span>

#include "util/types.hpp"

namespace pcs {

namespace {

/// Sets fold_sets folds side by side.
constexpr u64 kFoldLanes = 8;

/// fold_sets with the ways per set fixed at compile time (Ways = 0:
/// `assoc` ways, read at run time).
template <class T, u32 Ways>
T fold_sets(const T* v, u64 num_sets, u32 assoc, T set_seed, T max_seed) {
  const u32 ways = Ways != 0 ? Ways : assoc;
  const auto set_min = [ways, set_seed](const T* set) {
    T best_way = set_seed;
    for (u32 w = 0; w < ways; ++w) best_way = std::min(best_way, set[w]);
    return best_way;
  };
  // Lane j folds sets j, j + kFoldLanes, ..., so the lanes' min chains and
  // running maxima are independent and the fold is throughput-bound.
  T lane_worst[kFoldLanes];
  std::fill(lane_worst, lane_worst + kFoldLanes, max_seed);
  u64 s = 0;
  for (; s + kFoldLanes <= num_sets; s += kFoldLanes) {
    for (u64 j = 0; j < kFoldLanes; ++j) {
      lane_worst[j] = std::max(lane_worst[j], set_min(v + (s + j) * ways));
    }
  }
  for (; s < num_sets; ++s) {
    lane_worst[0] = std::max(lane_worst[0], set_min(v + s * ways));
  }
  T worst_set = max_seed;
  for (const T w : lane_worst) worst_set = std::max(worst_set, w);
  return worst_set;
}

/// max over the v.size() / assoc sets of (min over the set's ways, starting
/// at `set_seed`), starting at `max_seed`. Assoc 2/4/8/16 run with the ways
/// fixed at compile time.
template <class T>
T fold_sets(std::span<const T> v, u32 assoc, T set_seed, T max_seed) {
  const u64 num_sets = v.size() / assoc;
  switch (assoc) {
    case 2: return fold_sets<T, 2>(v.data(), num_sets, assoc, set_seed,
                                   max_seed);
    case 4: return fold_sets<T, 4>(v.data(), num_sets, assoc, set_seed,
                                   max_seed);
    case 8: return fold_sets<T, 8>(v.data(), num_sets, assoc, set_seed,
                                   max_seed);
    case 16: return fold_sets<T, 16>(v.data(), num_sets, assoc, set_seed,
                                     max_seed);
    default: return fold_sets<T, 0>(v.data(), num_sets, assoc, set_seed,
                                    max_seed);
  }
}

}  // namespace

}  // namespace pcs
