// Thread pool for the experiment engine: one mutex-guarded FIFO queue.
//
// Every fan-out here submits from outside the pool and takes results in
// submission order (for_each_in_order, JobService::serve), and no task
// submits work of its own. So tasks start in submission order, and the
// consumer -- with run_fleet's checkpoint cadence and the service's job
// queue -- advances with the run: a finished result waits unconsumed only
// behind calls that are still running. Tasks are coarse (one shard or one
// job, milliseconds to seconds), so one lock is nowhere near contention.
// Exceptions thrown by a task are captured in its future and rethrown at
// get(), never on the worker.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
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

/// Destruction requests stop and joins every worker. A worker exits only
/// once the queue is empty, so queued-but-unstarted tasks still run to
/// completion first (futures are never abandoned broken).
class ThreadPool {
 public:
  /// Spawns `num_workers` workers (clamped to >= 1).
  explicit ThreadPool(u32 num_workers = pcs_thread_count());

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queues `fn` behind every earlier submission and returns a future for
  /// its result. An exception escaping `fn` is stored in the future and
  /// rethrown at get().
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // std::function needs a copyable callable; packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop(std::stop_token st);

  std::mutex mu_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::vector<std::jthread> workers_;  // last: joins before the queue dies
};

/// The engines' one fan-out loop. Evaluates `fn(0) .. fn(n-1)` -- inline
/// when `num_threads <= 1`, else across a ThreadPool, started in index
/// order -- and passes each result to `consume(i, r)` in index order, as
/// soon as every lower index has been consumed. If call i throws, indices
/// below i are consumed and its exception is rethrown: inline at once
/// (later calls never run), on the pool once every call has finished (its
/// destructor drains it), so no call outlives the state `fn` captures. `fn`
/// must depend only on its index for the results to be thread-count
/// invariant.
template <class F, class C>
void for_each_in_order(u32 num_threads, u64 n, F&& fn, C&& consume) {
  if (num_threads <= 1) {
    for (u64 i = 0; i < n; ++i) consume(i, fn(i));
    return;
  }
  ThreadPool pool(num_threads);
  std::vector<std::future<std::invoke_result_t<F&, u64>>> futures;
  futures.reserve(n);
  for (u64 i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { return fn(i); }));
  }
  for (u64 i = 0; i < n; ++i) consume(i, futures[i].get());
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
