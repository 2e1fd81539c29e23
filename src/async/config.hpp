#pragma once
// Configuration of the event-driven async aggregation engine (src/async/,
// docs/ASYNC.md). Standalone header (no library dependencies) so
// FlRunConfig can embed it without the engine linking against afl_async.
//
// The async engine replaces the synchronous round barrier with a FedBuff-style
// buffered scheme: up to `concurrency` clients train concurrently in simulated
// time, the server buffers the first `buffer_size` arrivals, folds them into
// the global model with staleness-discounted weights, and commits a new global
// version per flush. `config.rounds` counts flushes, so a sync and an async
// run of the same FlRunConfig train a comparable number of client updates.

#include <cstddef>

namespace afl::async {

struct AsyncConfig {
  /// Master switch. Disabled (default) keeps the synchronous RoundEngine.
  bool enabled = false;
  /// Buffer size K: arrivals per aggregation flush. 0 resolves to the run's
  /// clients_per_round (matching the synchronous cohort size).
  std::size_t buffer_size = 0;
  /// Target number of clients training concurrently (in-flight dispatches).
  /// 0 resolves to 2 * buffer_size, capped at the fleet size.
  std::size_t concurrency = 0;
  /// Staleness discount exponent: an update trained on global version v and
  /// committed at version v' weighs w_c / (1 + (v' - v))^alpha.
  double staleness_alpha = 0.5;
  /// Updates staler than this many versions are discarded instead of
  /// aggregated. 0 = keep everything (pure discounting).
  std::size_t max_staleness = 0;
  /// Simulated seconds the server waits before writing off a client that
  /// never responded (or could not fit any submodel).
  double failure_timeout_s = 0.5;
  /// Extra upload attempts after the transport gives a frame up for lost.
  /// Unlike the synchronous engine, async clients keep their trained update
  /// and re-send it — re-charging transfer time only, never local compute.
  std::size_t max_reuploads = 1;
  /// Simulated backoff between those re-upload attempts.
  double reupload_backoff_s = 0.1;

  /// Resolves the AFL_ASYNC_* environment variables (docs/ASYNC.md):
  /// AFL_ASYNC (master, unset/"0" = disabled), AFL_ASYNC_BUFFER,
  /// AFL_ASYNC_CONCURRENCY, AFL_ASYNC_ALPHA, AFL_ASYNC_MAX_STALENESS,
  /// AFL_ASYNC_TIMEOUT_MS, AFL_ASYNC_REUPLOADS, AFL_ASYNC_REUPLOAD_BACKOFF_MS.
  static AsyncConfig from_env();
};

/// Versions elapsed since an update's dispatch at global version `version`,
/// with `flushes` flushes committed; a version past the head counts as fresh.
inline std::size_t staleness(std::size_t version, std::size_t flushes) {
  return version < flushes ? flushes - version : 0;
}

/// The staleness discount (docs/ASYNC.md): the factor 1 / (1 + tau)^alpha on
/// the data-size weight of an update `tau` versions stale. Fresh updates
/// (tau 0) and alpha 0 keep weight 1.
double staleness_weight(std::size_t tau, double alpha);

/// Whether an update `tau` versions stale is discarded under the
/// max_staleness cutoff; 0 means no cutoff.
inline bool too_stale(std::size_t tau, std::size_t max_staleness) {
  return max_staleness > 0 && tau > max_staleness;
}

}  // namespace afl::async
