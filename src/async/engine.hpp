#pragma once
// Event-driven asynchronous FL engine (docs/ASYNC.md).
//
// The synchronous RoundEngine trains a cohort, waits at a barrier, and
// aggregates; heterogeneous fleets pay for every straggler. AsyncEngine
// replaces the barrier with a discrete-event simulation on a virtual clock:
// up to `concurrency` clients are in flight at once, each dispatch's
// downlink / local-compute / uplink durations come from the simulated
// transport (src/net/), and the server buffers the first `buffer_size`
// arrivals FedBuff-style. Each buffer flush folds the updates into the
// global model — an update trained on global version v and committed at
// version v' is discounted by 1 / (1 + (v' - v))^alpha — and commits a new
// global version. `config.rounds` counts flushes.
//
// Determinism contract (same guarantee as RoundEngine): every policy hook
// except execute() runs on the engine thread in event order, and the event
// queue pops in the total order (time, dispatch, client, seq) — independent
// of insertion order. execute() runs on the worker pool with a private
// Rng::derive(seed, dispatch, client) stream; training is computed in
// "waves" (all untrained in-flight dispatches at the first upload that needs
// one), which changes scheduling but not results because execute() is pure.
// The RunResult is bit-identical for any AFL_THREADS.

#include <cstddef>
#include <vector>

#include "async/config.hpp"
#include "engine/round_engine.hpp"
#include "engine/run.hpp"
#include "sim/device.hpp"

namespace afl {

/// Runs `policy` on the engine config.async selects (config.async or the
/// AFL_ASYNC_* environment): the AsyncEngine when enabled, else the
/// RoundEngine, flat or sharded as config.hier selects. `devices` as in
/// engine::EngineBase. Throws std::invalid_argument naming the algorithm
/// when an async run's policy is not an AsyncRoundPolicy, or when async and
/// hierarchical execution are both enabled.
RunResult run_policy(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                     RoundPolicy& policy);

}  // namespace afl

namespace afl::async {

class AsyncEngine : public engine::EngineBase {
 public:
  /// `async.enabled` is assumed; zero-valued knobs resolve against the run
  /// config (buffer_size -> clients_per_round, concurrency -> 2 * buffer,
  /// capped at the fleet size). `devices` as in engine::EngineBase; churn
  /// presence is keyed by the flush window.
  AsyncEngine(const FlRunConfig& config, AsyncConfig async,
              const std::vector<DeviceSim>* devices);

  RunResult run(AsyncRoundPolicy& policy);

  const AsyncConfig& async_config() const { return async_; }

 private:
  AsyncConfig async_;
};

}  // namespace afl::async
