// Voltage explorer: sweep the data-array VDD for a cache organisation and
// print BER, block-failure probability, expected capacity, yield, leakage,
// and access-time inflation -- then show where the selection procedure
// places VDD1 (min-VDD) and VDD2 (the SPCS point).
//
//   ./build/examples/voltage_explorer [size_kb] [assoc] [--sweep-lanes]
//
// --sweep-lanes appends a lane-parallel behavioral sweep: one manufactured
// die, one lane per ladder level (each lane's faulty blocks are the
// blocks whose fail voltage that level cannot clear), all lanes driven by
// ONE decode of a synthetic workload through exp/sweep_engine's
// CacheLaneSweep -- so the miss-rate/capacity cost of each candidate VDD is
// measured on the same address stream in a single pass.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/trace_source.hpp"
#include "cachemodel/cache_power_model.hpp"
#include "core/vdd_levels.hpp"
#include "exp/sweep_engine.hpp"
#include "fault/rung_cuts.hpp"
#include "fault/yield_model.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/spec_profiles.hpp"

using namespace pcs;

namespace {

/// Per-ladder-level lane sweep: measures each candidate VDD's demand miss
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

  std::vector<CacheLaneSweep::LaneSpec> specs;
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    specs.push_back({"vdd" + std::to_string(l), org, "lru"});
  }
  CacheLaneSweep lanes(specs);
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    CacheLevel& c = lanes.lane(l - 1);
    for (u64 s = 0; s < org.num_sets(); ++s) {
      for (u32 w = 0; w < org.assoc; ++w) {
        if (l <= bucket[s * org.assoc + w]) c.set_block_faulty(s, w, true);
      }
    }
  }

  // One decode, broadcast to every lane.
  const u64 kRefs = 500'000;
  auto trace = make_spec_trace("mcf", trace_seed);
  TraceEvent ev;
  CacheOp op;
  op.kind = CacheOp::Kind::kAccess;
  for (u64 n = 0; n < kRefs && trace->next(ev); ++n) {
    op.addr = ev.ref.addr;
    op.write = ev.ref.write;
    lanes.step(op);
  }

  std::printf("\nlane sweep: %u ladder levels x %s refs (mcf), one decode\n\n",
              ladder.num_levels(), fmt_count(kRefs).c_str());
  TextTable t({"lane", "VDD (V)", "faulty blocks", "capacity", "miss rate",
               "bypasses"});
  for (u32 l = 1; l <= ladder.num_levels(); ++l) {
    const CacheLevel& c = lanes.lane(l - 1);
    t.add_row({c.name(), fmt_fixed(ladder.vdd(l), 2),
               std::to_string(c.faulty_block_count()),
               fmt_pct(c.effective_capacity(), 2),
               fmt_pct(c.stats().miss_rate(), 2),
               std::to_string(c.stats().bypasses)});
  }
  t.print(std::cout);
}

/// Positional argument `arg` as an integer in [1, max]; anything else
/// exits 2 naming the argument.
u64 positional(const char* name, const char* arg, u64 max) {
  const auto v = parse_u64(arg);
  if (!v || *v == 0 || *v > max) {
    std::fprintf(stderr,
                 "voltage_explorer: %s must be an integer in [1, %llu], "
                 "got '%s'\n",
                 name, static_cast<unsigned long long>(max), arg);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep_lanes = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep-lanes") {
      sweep_lanes = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  const u64 size_kb =
      pos.size() > 0 ? positional("size_kb", pos[0], u64{1} << 30) : 2048;
  const u32 assoc = pos.size() > 1
                        ? static_cast<u32>(
                              positional("assoc", pos[1], 0xffffffffULL))
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

  if (sweep_lanes) sweep_ladder_lanes(org, ber, ladder);
  return 0;
}
