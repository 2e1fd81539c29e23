#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>

#include "util/env.hpp"

namespace afl {

ThreadPool::ThreadPool(std::size_t threads) : threads_(std::max<std::size_t>(1, threads)) {
  if (threads_ == 1) return;
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  workers_done_ = 0;
  first_error_ = nullptr;
  ++epoch_;
  cv_work_.notify_all();
  cv_done_.wait(lock, [this] { return workers_done_ == threads_; });
  fn_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      fn = fn_;
      n = n_;
    }
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++workers_done_ == threads_) cv_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::threads_from_env() {
  const int n = env_or("AFL_THREADS", 1);
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace afl
