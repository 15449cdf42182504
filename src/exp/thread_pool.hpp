// Work-stealing thread pool for the experiment engine.
//
// Every figure sweep is a grid of fully independent simulations, so the
// pool is deliberately simple: one deque per worker, round-robin external
// submission, LIFO local pops and FIFO steals. Tasks are coarse (one task =
// one whole cache simulation, milliseconds to seconds), so lock-per-deque
// is nowhere near contention and a lock-free Chase-Lev deque would buy
// nothing. Exceptions thrown by a task are captured in its future and
// rethrown at get(), never on the worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace pcs {

/// Worker count for experiment sweeps: the PCS_THREADS environment variable
/// if set to a positive integer, else std::thread::hardware_concurrency().
/// PCS_THREADS=1 runs every fan-out inline (no pool, no threads).
u32 pcs_thread_count() noexcept;

class ThreadPool {
 public:
  /// Spawns `num_workers` workers (clamped to >= 1).
  explicit ThreadPool(u32 num_workers = pcs_thread_count());

  /// Requests stop and joins all workers; queued-but-unstarted tasks still
  /// run to completion first (futures must never be abandoned broken).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  u32 size() const noexcept { return static_cast<u32>(workers_.size()); }

  /// Tasks a worker took from another worker's deque (observability only;
  /// approximate ordering under concurrent updates, exact once idle).
  u64 steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any single worker deque's length at submission
  /// time (observability only).
  u64 max_queue_depth() const noexcept {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Schedules `fn` and returns a future for its result. An exception
  /// escaping `fn` is stored in the future and rethrown at get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> fut = task.get_future();
    enqueue(Task(std::move(task)));
    return fut;
  }

 private:
  /// Move-only type-erased callable (std::function requires copyability,
  /// which packaged_task does not have).
  class Task {
   public:
    Task() = default;
    template <class C>
    explicit Task(C&& c)
        : impl_(std::make_unique<Model<std::decay_t<C>>>(
              std::forward<C>(c))) {}
    void operator()() { impl_->call(); }
    explicit operator bool() const noexcept { return impl_ != nullptr; }

   private:
    struct Concept {
      virtual ~Concept() = default;
      virtual void call() = 0;
    };
    template <class C>
    struct Model final : Concept {
      explicit Model(C c) : fn(std::move(c)) {}
      void call() override { fn(); }
      C fn;
    };
    std::unique_ptr<Concept> impl_;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> dq;
  };

  void enqueue(Task t);
  bool try_pop_local(u32 self, Task& out);
  bool try_steal(u32 self, Task& out);
  void worker_loop(std::stop_token st, u32 self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;
  std::atomic<u64> next_queue_{0};
  std::atomic<u64> pending_{0};
  std::atomic<u64> steals_{0};
  std::atomic<u64> max_depth_{0};
  std::vector<std::jthread> workers_;  // last: joins before queues die
};

/// Steal and queue-depth counters of the pool a fan-out ran on
/// (observability only; both 0 when it ran inline).
struct PoolCounters {
  u64 steals = 0;
  u64 max_queue_depth = 0;
};

/// The engines' one fan-out loop. Evaluates `fn(0) .. fn(n-1)` -- inline
/// when `num_threads <= 1`, else across a ThreadPool -- and passes each
/// result to `consume(i, r)` in index order, as soon as every lower index
/// has been consumed. If call i throws, indices below i are consumed and
/// its exception is rethrown: inline at once (later calls never run), on
/// the pool once every call has finished (its destructor drains it), so no
/// call outlives the state `fn` captures. `fn` must depend only on its
/// index for the results to be thread-count invariant.
template <class F, class C>
PoolCounters for_each_in_order(u32 num_threads, u64 n, F&& fn, C&& consume) {
  if (num_threads <= 1) {
    for (u64 i = 0; i < n; ++i) consume(i, fn(i));
    return {};
  }
  ThreadPool pool(num_threads);
  std::vector<std::future<std::invoke_result_t<F&, u64>>> futures;
  futures.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  }
  for (u64 i = 0; i < n; ++i) consume(i, futures[i].get());
  return {pool.steal_count(), pool.max_queue_depth()};
}

/// `fn(0) .. fn(n-1)` in index order: for_each_in_order collecting into a
/// vector.
template <class F>
auto parallel_index_map(u32 num_threads, u64 n, F&& fn)
    -> std::vector<std::invoke_result_t<F&, u64>> {
  std::vector<std::invoke_result_t<F&, u64>> out;
  out.reserve(n);
  for_each_in_order(num_threads, n, fn,
                    [&out](u64, auto&& r) { out.push_back(std::move(r)); });
  return out;
}

}  // namespace pcs
