// Experiment engine: thread pool and fan-out loop semantics, seed
// derivation, and the core guarantee -- SweepRunner's parallel sweeps are
// bit-identical to the serial run_one loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "exp/experiment_runner.hpp"
#include "exp/sweep_engine.hpp"
#include "exp/thread_pool.hpp"
#include "run_one_loop.hpp"
#include "util/rng.hpp"

namespace pcs {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, SubmitReturnsResultsThroughFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, RunsManyMoreTasksThanWorkers) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 200; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 200 * 201 / 2);
}

TEST(ThreadPool, ExceptionSurfacesAtGetNotOnWorker) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
    }
  }  // destructor joins; queued futures must not be abandoned
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadCount, HonorsEnvVariable) {
  ASSERT_EQ(setenv("PCS_THREADS", "3", 1), 0);
  EXPECT_EQ(pcs_thread_count(), 3u);
  ASSERT_EQ(setenv("PCS_THREADS", "1", 1), 0);
  EXPECT_EQ(pcs_thread_count(), 1u);
  ASSERT_EQ(unsetenv("PCS_THREADS"), 0);
  EXPECT_GE(pcs_thread_count(), 1u);
}

// ---------------------------------------------------------------------------
// Seed derivation

TEST(DeriveSeed, DeterministicAndSensitiveToEveryWord) {
  const u64 base = derive_seed(1, 42, 0);
  EXPECT_EQ(derive_seed(1, 42, 0), base);
  EXPECT_NE(derive_seed(2, 42, 0), base);
  EXPECT_NE(derive_seed(1, 43, 0), base);
  EXPECT_NE(derive_seed(1, 42, 1), base);
}

TEST(DeriveSeed, IndexStreamHasNoShortCollisions) {
  std::set<u64> seen;
  for (u64 i = 0; i < 10'000; ++i) seen.insert(derive_seed(1, 42, i));
  EXPECT_EQ(seen.size(), 10'000u);
}

// ---------------------------------------------------------------------------
// parallel_index_map

TEST(ParallelIndexMap, PreservesIndexOrder) {
  const auto out =
      parallel_index_map(4, 100, [](u64 i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (u64 i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelIndexMap, SerialPathMatchesParallel) {
  auto fn = [](u64 i) { return 3 * i + 1; };
  EXPECT_EQ(parallel_index_map(1, 37, fn), parallel_index_map(5, 37, fn));
}

// ---------------------------------------------------------------------------
// for_each_in_order

TEST(ForEachInOrder, ConsumesInIndexOrderAndRethrowsLowestIndexError) {
  constexpr u64 kN = 8;
  const std::vector<u64> all = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const u32 threads : {1u, 4u}) {
    // On the pool, call 0 finishes last: it waits for every other call.
    std::latch others_done(kN - 1);
    std::vector<u64> consumed;
    const PoolCounters counters = for_each_in_order(
        threads, kN,
        [&](u64 i) {
          if (threads > 1 && i == 0) others_done.wait();
          if (threads > 1 && i != 0) others_done.count_down();
          return 10 * i;
        },
        [&](u64 i, u64 r) {
          EXPECT_EQ(r, 10 * i);
          consumed.push_back(i);
        });
    EXPECT_EQ(consumed, all) << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(counters.steals, 0u);
      EXPECT_EQ(counters.max_queue_depth, 0u);
    }

    // Calls 3 and 6 throw: 0-2 are consumed, call 3's error surfaces, and
    // on the pool only once every call has finished.
    consumed.clear();
    std::atomic<u64> finished{0};
    try {
      for_each_in_order(
          threads, kN,
          [&](u64 i) {
            finished.fetch_add(1);
            if (i == 3 || i == 6) {
              throw std::runtime_error("call " + std::to_string(i));
            }
            return i;
          },
          [&](u64 i, u64) { consumed.push_back(i); });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "call 3") << threads << " threads";
    }
    EXPECT_EQ(consumed, (std::vector<u64>{0, 1, 2})) << threads << " threads";
    EXPECT_EQ(finished.load(), threads > 1 ? kN : 4u) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Grid expansion

TEST(ExperimentGrid, ExpandsConfigMajorWithSharedSeeds) {
  RunParams rp;
  rp.max_refs = 1000;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_config(SystemConfig::config_b())
      .add_workload("hmmer")
      .add_workload("gcc")
      .add_policy(PolicyKind::kBaseline)
      .add_policy(PolicyKind::kDynamic)
      .seeds(9, 77)
      .params(rp);
  const auto pts = grid.expand();
  ASSERT_EQ(pts.size(), 8u);
  EXPECT_EQ(grid.size(), 8u);
  // config-major, then workload, then policy
  EXPECT_EQ(pts[0].config.name, "A");
  EXPECT_EQ(pts[0].workload, "hmmer");
  EXPECT_EQ(pts[0].policy, PolicyKind::kBaseline);
  EXPECT_EQ(pts[1].policy, PolicyKind::kDynamic);
  EXPECT_EQ(pts[2].workload, "gcc");
  EXPECT_EQ(pts[4].config.name, "B");
  for (const auto& p : pts) {
    EXPECT_EQ(p.chip_seed, 9u);
    EXPECT_EQ(p.trace_seed, 77u);
    EXPECT_EQ(p.params.max_refs, 1000u);
  }
  for (u64 i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);
}

// ---------------------------------------------------------------------------
// The core guarantee: bit-identical reports at every thread count.

class DeterminismTest : public ::testing::Test {
 protected:
  static ExperimentGrid small_grid() {
    RunParams rp;
    rp.max_refs = 20'000;
    rp.warmup_refs = 5'000;
    ExperimentGrid grid;
    grid.add_config(SystemConfig::config_a())
        .add_workload("hmmer")
        .add_workload("gcc")
        .add_policy(PolicyKind::kBaseline)
        .add_policy(PolicyKind::kStatic)
        .add_policy(PolicyKind::kDynamic)
        .seeds(1, 42)
        .params(rp);
    return grid;
  }
};

TEST_F(DeterminismTest, ParallelRunsBitIdenticalToSerialLoop) {
  const auto grid = small_grid();
  const auto serial = run_one_loop(grid.expand());

  // One lane per shard gives the pool six tasks; 16 gives it two groups.
  for (u32 lanes : {1u, 16u}) {
    for (u32 threads : {1u, 2u, 8u}) {
      const auto rows =
          SweepRunner({.num_threads = threads, .max_lanes = lanes}).run(grid);
      ASSERT_EQ(rows.size(), serial.size()) << threads << " threads";
      for (u64 i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i], serial[i])
            << rows[i].workload << "/" << rows[i].policy << " diverged at "
            << threads << " threads, " << lanes << " lanes";
      }
    }
  }
}

TEST_F(DeterminismTest, PerTaskSchemeIsAlsoThreadCountInvariant) {
  RunParams rp;
  rp.max_refs = 10'000;
  rp.warmup_refs = 2'000;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_policy(PolicyKind::kStatic)
      .seeds(1, 42)
      .params(rp);
  const auto points = replicate_point(grid.expand()[0], 4);
  const auto serial =
      SweepRunner({.num_threads = 1, .max_lanes = 16}).run(points);
  const auto parallel =
      SweepRunner({.num_threads = 8, .max_lanes = 16}).run(points);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, parallel);
  // Different dies: replicate runs must not all be identical.
  EXPECT_NE(serial[0].total_cache_energy(), serial[1].total_cache_energy());
}

TEST_F(DeterminismTest, WorkerExceptionSurfacesAtWait) {
  RunParams rp;
  rp.max_refs = 1'000;
  ExperimentGrid grid;
  grid.add_config(SystemConfig::config_a())
      .add_workload("hmmer")
      .add_workload("no-such-workload")  // spec_profile throws
      .add_policy(PolicyKind::kBaseline)
      .params(rp);
  // The bad point fails its shard on a pool worker (rethrown once the loop
  // reaches its shard) or inline on the serial path; either way the caller
  // sees it.
  EXPECT_THROW(SweepRunner({.num_threads = 4, .max_lanes = 16}).run(grid),
               std::invalid_argument);
  EXPECT_THROW(SweepRunner({.num_threads = 1, .max_lanes = 16}).run(grid),
               std::invalid_argument);
}

}  // namespace
}  // namespace pcs
