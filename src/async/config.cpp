#include "async/config.hpp"

#include <algorithm>
#include <cmath>

#include "util/env.hpp"

namespace afl::async {

AsyncConfig AsyncConfig::from_env() {
  AsyncConfig cfg;
  cfg.enabled = env_or("AFL_ASYNC", 0) != 0;
  cfg.buffer_size =
      static_cast<std::size_t>(std::max(0, env_or("AFL_ASYNC_BUFFER", 0)));
  cfg.concurrency =
      static_cast<std::size_t>(std::max(0, env_or("AFL_ASYNC_CONCURRENCY", 0)));
  cfg.staleness_alpha = env_or("AFL_ASYNC_ALPHA", cfg.staleness_alpha);
  cfg.max_staleness = static_cast<std::size_t>(
      std::max(0, env_or("AFL_ASYNC_MAX_STALENESS", 0)));
  cfg.failure_timeout_s =
      env_or("AFL_ASYNC_TIMEOUT_MS", cfg.failure_timeout_s * 1000.0) / 1000.0;
  cfg.max_reuploads = static_cast<std::size_t>(std::max(
      0, env_or("AFL_ASYNC_REUPLOADS", static_cast<int>(cfg.max_reuploads))));
  cfg.reupload_backoff_s =
      env_or("AFL_ASYNC_REUPLOAD_BACKOFF_MS", cfg.reupload_backoff_s * 1000.0) /
      1000.0;
  return cfg;
}

double staleness_weight(std::size_t tau, double alpha) {
  if (tau == 0 || alpha == 0.0) return 1.0;
  return 1.0 / std::pow(1.0 + static_cast<double>(tau), alpha);
}

}  // namespace afl::async
