#pragma once
// Fixed-size thread pool for the engines' parallel phases.
//
// The pool runs the engine's client work items (build -> import ->
// local_train -> export) and the fixed-size chunks of a model evaluation
// (fl/evaluate.hpp) concurrently; determinism is the caller's problem and is
// solved upstream by giving every work item its own derived RNG or its own
// output slot, and committing results at sequential points (see
// round_engine.hpp). With one thread the pool spawns no workers at all and
// parallel_for degenerates to a plain loop on the calling thread.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace afl {

class ThreadPool {
 public:
  /// `threads` >= 1. One thread means "inline": no workers are spawned.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_; }

  /// Runs fn(0..n-1), distributing indices dynamically over the workers, and
  /// blocks until every index completed. If any invocation throws, the first
  /// exception is rethrown here after the batch drains. Not reentrant: must
  /// not be called from inside fn.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Thread count resolved from the AFL_THREADS environment variable
  /// (default 1, clamped to >= 1).
  static std::size_t threads_from_env();

 private:
  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // current batch
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t workers_done_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace afl
