#include "exp/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace pcs {

u32 pcs_thread_count() noexcept {
  if (const char* env = std::getenv("PCS_THREADS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n >= 1) return static_cast<u32>(n);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

ThreadPool::ThreadPool(u32 num_workers) {
  num_workers = std::max(num_workers, 1u);
  workers_.reserve(num_workers);
  for (u32 i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
  }
}

void ThreadPool::worker_loop(std::stop_token st) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // False only once stop is requested and the queue is empty, so the
      // workers drain every queued task before they exit.
      if (!cv_.wait(lock, st, [this] { return !queue_.empty(); })) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace pcs
