// Voltage explorer: sweep the data-array VDD for a cache organisation and
// print BER, block-failure probability, expected capacity, yield, leakage,
// and access-time inflation -- then show where the selection procedure
// places VDD1 (min-VDD) and VDD2 (the SPCS point).
//
//   ./build/examples/voltage_explorer [size_kb] [assoc]
//
// It ends with a behavioral ladder sweep: one manufactured die, one cache
// per ladder level (each cache's faulty blocks are the blocks whose fail
// voltage that level cannot clear), all caches driven by ONE decode of a
// synthetic workload -- so the miss-rate/capacity cost of each candidate
// VDD is measured on the same address stream in a single pass.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache_level.hpp"
#include "cache/trace_source.hpp"
#include "cachemodel/cache_power_model.hpp"
#include "core/vdd_levels.hpp"
#include "fault/rung_cuts.hpp"
#include "fault/yield_model.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

constexpr const char* kProg = "voltage_explorer";

/// Per-ladder-level cache sweep: measures each candidate VDD's demand miss
/// rate and surviving capacity against one die and one address stream.
void sweep_ladder_lanes(const CacheOrg& org, const BerModel& ber,
                        const VddLadder& ladder) {
  const u64 chip_seed = 1, trace_seed = 42;
  // A block survives level l iff vdd(l) > its fail voltage -- the same
  // pass predicate as the Fig. 3d yield kernel. Its bucket over the raw
  // ladder counts the levels at or below its fail voltage, so it fails
  // exactly the levels 1..bucket.
  const RungCuts cuts(ladder.levels, ber.mu(), ber.sigma(),
                      org.bits_per_block());
  Rng rng(chip_seed);
  std::vector<u64> draws(org.num_blocks());
  std::vector<u16> bucket(draws.size());
  rng.uniform_bits_block(draws);
  cuts.bucket_draws(draws, bucket);

  std::vector<CacheLevel> caches;
  caches.reserve(ladder.num_levels());
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    CacheLevel& c = caches.emplace_back("vdd" + std::to_string(l), org, 1);
    for (u64 s = 0; s < org.num_sets(); ++s) {
      for (u32 w = 0; w < org.assoc; ++w) {
        if (l <= bucket[s * org.assoc + w]) c.set_block_faulty(s, w, true);
      }
    }
  }

  // One decode, broadcast to every cache.
  const u64 kRefs = 500'000;
  auto trace = make_spec_trace("mcf", trace_seed);
  TraceEvent ev;
  for (u64 n = 0; n < kRefs && trace->next(ev); ++n) {
    for (CacheLevel& c : caches) c.access(ev.ref.addr, ev.ref.write);
  }

  std::printf("\nlane sweep: %u ladder levels x %s refs (mcf), one decode\n\n",
              ladder.num_levels(), fmt_count(kRefs).c_str());
  TextTable t({"lane", "VDD (V)", "faulty blocks", "capacity", "miss rate",
               "bypasses"});
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    const CacheLevel& c = caches[l - 1];
    t.add_row({c.name(), fmt_fixed(ladder.vdd(l), 2),
               std::to_string(c.faulty_block_count()),
               fmt_pct(c.effective_capacity(), 2),
               fmt_pct(c.stats().miss_rate(), 2),
               std::to_string(c.stats().bypasses)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3) {
    std::fprintf(stderr,
                 "voltage_explorer: unexpected argument '%s'\n"
                 "usage: %s [size_kb] [assoc]\n",
                 argv[3], argv[0]);
    return 2;
  }
  const u64 size_kb =
      argc > 1 ? cli_u64(kProg, "size_kb", argv[1], 1, u64{1} << 30) : 2048;
  // CacheLevel holds at most 32 ways.
  const u32 assoc =
      argc > 2 ? static_cast<u32>(cli_u64(kProg, "assoc", argv[2], 1, 32))
               : 8;

  const CacheOrg org{size_kb * 1024, assoc, 64, 31};
  try {
    org.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "voltage_explorer: %s\n", e.what());
    return 2;
  }
  const auto tech = Technology::soi45();
  BerModel ber(tech);
  YieldModel ym(ber, org);
  CachePowerModel pm(tech, org, MechanismSpec::pcs(3));

  std::printf("cache: %llu KB, %u-way, 64 B blocks (%llu sets)\n\n",
              static_cast<unsigned long long>(size_kb), assoc,
              static_cast<unsigned long long>(org.num_sets()));

  TextTable t({"VDD (V)", "BER", "P[block faulty]", "capacity", "yield",
               "leakage", "delay x"});
  for (Volt v = 1.0; v >= 0.49; v -= 0.05) {
    t.add_row({fmt_fixed(v, 2), fmt_sci(ber.ber(v), 2),
               fmt_sci(ym.block_fail_prob(v), 2),
               fmt_pct(ym.expected_capacity(v), 2), fmt_pct(ym.yield(v), 2),
               fmt_watts(pm.static_power(v, ym.block_fail_prob(v)).total()),
               fmt_fixed(pm.access_time_factor(v), 3)});
  }
  t.print(std::cout);

  VddSelector sel(tech, ber, org);
  const auto ladder = sel.select({});
  std::printf("\nselection (99%% yield, 99%% capacity):\n");
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    std::printf("  VDD%u = %.2f V%s\n", l, ladder.vdd(l),
                l == ladder.spcs_level ? "  <- SPCS operating point" : "");
  }
  std::printf("  fault map: %u FM bits + 1 Faulty bit per block\n",
              ladder.fm_bits());

  sweep_ladder_lanes(org, ber, ladder);
  return 0;
}
