// Unit tests for the synthetic workload generator.
#include "workload/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/spec_profiles.hpp"

namespace pcs {
namespace {

WorkloadSpec simple_spec() {
  WorkloadSpec w;
  w.name = "t";
  PhaseSpec p;
  p.working_set_bytes = 64 * 1024;
  p.duration_refs = 10'000;
  w.phases = {p};
  return w;
}

TEST(Synthetic, DeterministicGivenSeed) {
  SyntheticTrace a(simple_spec(), 7), b(simple_spec(), 7);
  TraceEvent ea, eb;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(a.next(ea), b.next(eb));
    EXPECT_EQ(ea.ref.addr, eb.ref.addr);
    EXPECT_EQ(ea.ref.write, eb.ref.write);
    EXPECT_EQ(ea.ref.ifetch, eb.ref.ifetch);
    EXPECT_EQ(ea.gap_instructions, eb.gap_instructions);
  }
}

TEST(Synthetic, SeedsDiffer) {
  SyntheticTrace a(simple_spec(), 1), b(simple_spec(), 2);
  TraceEvent ea, eb;
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    a.next(ea);
    b.next(eb);
    if (ea.ref.addr == eb.ref.addr) ++same;
  }
  EXPECT_LT(same, 400);
}

TEST(Synthetic, DataRefsStayInWorkingSetWindow) {
  auto spec = simple_spec();
  spec.phases[0].reuse_prob = 0.0;
  SyntheticTrace t(spec, 3);
  TraceEvent e;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(t.next(e));
    if (e.ref.ifetch) continue;
    EXPECT_GE(e.ref.addr, spec.data_base_addr);
    EXPECT_LT(e.ref.addr, spec.data_base_addr + 64 * 1024);
  }
}

TEST(Synthetic, CodeRefsStayInFootprint) {
  auto spec = simple_spec();
  SyntheticTrace t(spec, 4);
  TraceEvent e;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(t.next(e));
    if (!e.ref.ifetch) continue;
    EXPECT_GE(e.ref.addr, spec.code_base_addr);
    EXPECT_LT(e.ref.addr, spec.code_base_addr + spec.code_footprint_bytes);
    EXPECT_FALSE(e.ref.write);
  }
}

TEST(Synthetic, WriteFractionApproximatelyRespected) {
  auto spec = simple_spec();
  spec.phases[0].write_frac = 0.4;
  SyntheticTrace t(spec, 5);
  TraceEvent e;
  int writes = 0, data = 0;
  // Phase loops forever, so we can pull many refs.
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(t.next(e));
    if (e.ref.ifetch) continue;
    ++data;
    if (e.ref.write) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / data, 0.4, 0.02);
}

TEST(Synthetic, RefsPerInstructionApproximatelyRespected) {
  auto spec = simple_spec();
  spec.refs_per_instruction = 0.25;
  SyntheticTrace t(spec, 6);
  TraceEvent e;
  u64 insts = 0, data = 0;
  for (int i = 0; i < 100000; ++i) {
    ASSERT_TRUE(t.next(e));
    insts += e.gap_instructions;
    if (!e.ref.ifetch) {
      ++data;
      ++insts;  // the reference itself is an instruction
    }
  }
  EXPECT_NEAR(static_cast<double>(data) / static_cast<double>(insts), 0.25,
              0.02);
}

TEST(Synthetic, PhasesAdvanceAndLoop) {
  WorkloadSpec w;
  PhaseSpec p1, p2;
  p1.working_set_bytes = 4096;
  p1.duration_refs = 100;
  p2.working_set_bytes = 8192;
  p2.duration_refs = 100;
  w.phases = {p1, p2};
  w.loop_phases = true;
  SyntheticTrace t(w, 7);
  TraceEvent e;
  std::size_t max_phase = 0;
  bool returned_to_0_after_1 = false;
  bool seen_1 = false;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.next(e));
    max_phase = std::max(max_phase, t.current_phase());
    if (t.current_phase() == 1) seen_1 = true;
    if (seen_1 && t.current_phase() == 0) returned_to_0_after_1 = true;
  }
  EXPECT_EQ(max_phase, 1u);
  EXPECT_TRUE(returned_to_0_after_1);
}

TEST(Synthetic, NonLoopingTraceEnds) {
  WorkloadSpec w;
  PhaseSpec p;
  p.duration_refs = 50;
  w.phases = {p};
  w.loop_phases = false;
  SyntheticTrace t(w, 8);
  TraceEvent e;
  u64 data_refs = 0;
  while (t.next(e)) {
    if (!e.ref.ifetch) ++data_refs;
    ASSERT_LT(data_refs, 1000u);  // no runaway
  }
  EXPECT_EQ(data_refs, 50u);
  EXPECT_FALSE(t.next(e));
}

TEST(Synthetic, RejectsBadSpecs) {
  WorkloadSpec w;
  w.phases = {};
  EXPECT_THROW(SyntheticTrace(w, 1), std::invalid_argument);
  w = simple_spec();
  w.refs_per_instruction = 0.0;
  EXPECT_THROW(SyntheticTrace(w, 1), std::invalid_argument);
  w.refs_per_instruction = 1.5;
  EXPECT_THROW(SyntheticTrace(w, 1), std::invalid_argument);
}

TEST(Synthetic, IfetchShareGrowsWithCodeTurnover) {
  // Lower code reuse -> more distinct ifetch blocks, same emission logic.
  auto hot = simple_spec();
  hot.code_reuse_prob = 0.95;
  auto cold = simple_spec();
  cold.code_reuse_prob = 0.0;
  SyntheticTrace th(hot, 9), tc(cold, 9);
  auto distinct_codes = [](SyntheticTrace& t) {
    TraceEvent e;
    std::set<u64> blocks;
    for (int i = 0; i < 30000; ++i) {
      t.next(e);
      if (e.ref.ifetch) blocks.insert(e.ref.addr);
    }
    return blocks.size();
  };
  EXPECT_GT(distinct_codes(tc), distinct_codes(th));
}

TEST(Synthetic, StreamPhaseSweepsForward) {
  WorkloadSpec w = simple_spec();
  w.phases[0].stream_frac = 1.0;
  w.phases[0].reuse_prob = 0.0;
  w.phases[0].stream_stride = 64;
  w.refs_per_instruction = 1.0;  // no gaps, no ifetches interleaved
  SyntheticTrace t(w, 10);
  TraceEvent e;
  u64 prev = 0;
  bool first = true;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.next(e));
    if (e.ref.ifetch) continue;
    if (!first) {
      EXPECT_EQ(e.ref.addr, prev + 64);
    }
    prev = e.ref.addr;
    first = false;
  }
}

/// Folds one event's address, kind and gap into the FNV-1a (64-bit) hash h.
void mix_event(u64& h, const TraceEvent& e) {
  const auto mix = [&h](u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
    }
  };
  mix(e.ref.addr, 8);
  mix((e.ref.write ? 1u : 0u) | (e.ref.ifetch ? 2u : 0u), 1);
  mix(e.gap_instructions, 4);
}

constexpr u64 kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a (64-bit) over the first `n` events' address, kind and gap.
u64 stream_digest(TraceSource& t, u64 n) {
  u64 h = kFnvBasis;
  TraceEvent e;
  for (u64 i = 0; i < n; ++i) {
    if (!t.next(e)) break;
    mix_event(h, e);
  }
  return h;
}

/// stream_digest through next_block calls of `block` events (the last
/// clipped to `n`); `delivered` gets the event count.
u64 block_digest(TraceSource& t, u64 n, u64 block, u64& delivered) {
  u64 h = kFnvBasis;
  std::vector<TraceEvent> buf(block);
  delivered = 0;
  while (delivered < n) {
    const u64 want = std::min(block, n - delivered);
    const u64 got = t.next_block(buf.data(), want);
    for (u64 i = 0; i < got; ++i) mix_event(h, buf[i]);
    delivered += got;
    if (got < want) break;
  }
  return h;
}

std::string hex(u64 v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(Synthetic, StreamDigestsArePinned) {
  // The first 200k events at trace seed 42 of every profile, and of two
  // specs off the common path, as the generator first made them: a step
  // longer than the code loop, which the PC walk must reduce before it
  // wraps, and 48-byte fetch blocks over a loop that no step divides. Every
  // recorded trace and golden figure replays these streams.
  const std::vector<std::pair<std::string, u64>> pinned = {
      {"perlbench", 0xe5018b690bb7aee3ULL},
      {"bzip2", 0x8e9b374e84a21296ULL},
      {"gcc", 0x2cabb508e0c70d3cULL},
      {"mcf", 0xc201121ce754c5daULL},
      {"gobmk", 0x3743014168b699feULL},
      {"hmmer", 0x5c4546669f550ee7ULL},
      {"sjeng", 0x021afa6733759cf1ULL},
      {"libquantum", 0xcd663c28e48a4714ULL},
      {"h264ref", 0xb95c5685b3a35e1fULL},
      {"omnetpp", 0xdae3a5310fb8c8c8ULL},
      {"astar", 0x009e39de4c037a64ULL},
      {"xalancbmk", 0x16c411d310cfe6d4ULL},
      {"bwaves", 0x8747205aa876da93ULL},
      {"milc", 0x3b9787389ab60da2ULL},
      {"lbm", 0xad37489affa505b9ULL},
      {"sphinx3", 0x7bba27b5b512d17bULL}};
  ASSERT_EQ(pinned.size(), spec_profile_names().size());
  for (const auto& [name, digest] : pinned) {
    auto t = make_spec_trace(name, 42);
    EXPECT_EQ(hex(stream_digest(*t, 200'000)), hex(digest)) << name;
  }

  WorkloadSpec long_step = spec_profile("gcc");
  long_step.code_footprint_bytes = 100;
  long_step.instr_bytes = 128;
  SyntheticTrace a(long_step, 42);
  EXPECT_EQ(hex(stream_digest(a, 200'000)), hex(0x776aa729f4f6b5c5ULL));

  WorkloadSpec odd_blocks = spec_profile("gcc");
  odd_blocks.block_bytes = 48;
  odd_blocks.code_footprint_bytes = 4099;
  SyntheticTrace b(odd_blocks, 42);
  EXPECT_EQ(hex(stream_digest(b, 200'000)), hex(0x68de27d102813acaULL));
}

TEST(Synthetic, NextBlockMatchesNext) {
  // A looping spec whose phases change every 2k data references and a
  // non-looping one that ends mid-block, at block sizes 1, 7 and 256.
  WorkloadSpec looping = spec_profile("gcc");
  for (PhaseSpec& p : looping.phases) p.duration_refs = 2'000;
  WorkloadSpec ending = spec_profile("sphinx3");
  ending.loop_phases = false;
  for (PhaseSpec& p : ending.phases) p.duration_refs = 3'001;
  constexpr u64 kEvents = 60'000;
  for (const WorkloadSpec& spec : {looping, ending}) {
    SyntheticTrace by_event(spec, 42);
    u64 events = 0;
    u64 want = kFnvBasis;
    TraceEvent e;
    while (events < kEvents && by_event.next(e)) {
      mix_event(want, e);
      ++events;
    }
    if (!spec.loop_phases) {
      ASSERT_LT(events, kEvents) << spec.name << " must end in the window";
    }
    for (const u64 block : {u64{1}, u64{7}, u64{256}}) {
      SyntheticTrace by_block(spec, 42);
      u64 delivered = 0;
      EXPECT_EQ(hex(block_digest(by_block, kEvents, block, delivered)),
                hex(want))
          << spec.name << ", blocks of " << block;
      EXPECT_EQ(delivered, events) << spec.name << ", blocks of " << block;
      if (!spec.loop_phases) {
        TraceEvent after;
        EXPECT_EQ(by_block.next_block(&after, 1), 0u) << spec.name;
        EXPECT_FALSE(by_block.next(after)) << spec.name;
      }
    }
  }
}

TEST(Synthetic, OffPathStreamDigestsArePinned) {
  // The first 200k events at trace seed 42 of specs that reach the paths
  // the common profiles do not, as the generator first made them: sweep
  // strides longer than the working set (reduced once per phase, over two
  // phases that change every 20k references), a data reference per
  // instruction (no gap is drawn, so no ifetch is emitted), and one per
  // thousand instructions (long gaps, some clamped at 4096).
  WorkloadSpec long_stride = spec_profile("bzip2");
  long_stride.phases[0].stream_stride = 2 * 1024 * 1024 + 24;
  long_stride.phases[1].stream_stride = 7 * 1024 * 1024 + 8;
  for (PhaseSpec& p : long_stride.phases) {
    p.stream_frac = 0.9;
    p.duration_refs = 20'000;
  }
  SyntheticTrace a(long_stride, 42);
  EXPECT_EQ(hex(stream_digest(a, 200'000)), hex(0x2f27ae03a1062facULL));

  WorkloadSpec every_instruction = spec_profile("gcc");
  every_instruction.refs_per_instruction = 1.0;
  SyntheticTrace b(every_instruction, 42);
  EXPECT_EQ(hex(stream_digest(b, 200'000)), hex(0x95e1588c659aafbbULL));

  WorkloadSpec sparse = spec_profile("gcc");
  sparse.refs_per_instruction = 1e-3;
  SyntheticTrace c(sparse, 42);
  EXPECT_EQ(hex(stream_digest(c, 200'000)), hex(0x887365e31cdd4b92ULL));
}

}  // namespace
}  // namespace pcs
