#pragma once
// Run-level trace / status helpers shared by the synchronous RoundEngine and
// the async engine (src/async/engine.*). Both execution models must emit
// identical run_start / run_end records so afl-insight can diff their
// traces, and they evaluate and close a run through the same steps.

#include <cstddef>

#include "engine/lifecycle.hpp"
#include "engine/round_engine.hpp"
#include "engine/run.hpp"
#include "net/transport.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl::engine {

/// Trace schema label stamped on every run_start header; afl-insight refuses
/// to diff traces whose schemas disagree. v2 adds the dispatch-lifecycle
/// records (engine/lifecycle.hpp); v3 adds per-round `churn` records, the
/// departed/went_dark dispatch outcomes, and population run_start columns
/// (src/pop/, docs/POPULATION.md) — each a pure superset of its predecessor,
/// so older readers keep working on every record kind they know.
inline constexpr const char* kTraceSchema = "afl.trace.v3";

/// Emits the run_start header. `mode` tags non-default execution models
/// (the async engine passes "async", a sharded RoundEngine run "hier"); null
/// omits the field so synchronous traces stay byte-identical. `shards` > 0
/// adds the hierarchical topology columns (shards, sync_every).
/// `population`, when non-null, adds the population columns (fleet size,
/// churn knobs, channel spread); null keeps static-fleet traces unchanged.
void trace_run_start(const RunResult& result, const FlRunConfig& config,
                     std::size_t threads, const net::Transport& transport,
                     const char* mode = nullptr, std::size_t shards = 0,
                     std::size_t sync_every = 0,
                     const pop::Population* population = nullptr);

/// Emits a per-round `churn` record (afl.trace.v3) with the population
/// membership deltas, and feeds the afl.pop.* counters. Call once per round
/// (or per async flush window) — only when a population is attached, so
/// static-fleet traces gain no records.
void trace_churn(std::size_t round, const pop::RoundChurn& churn);

/// Publishes a RunStatus snapshot to the live status board. `blame`, when
/// non-null and valid, fills the snapshot's critical_path block (the online
/// per-phase attribution from the run's LifecycleTracker).
void publish_run_status(const RunResult& result, std::size_t round,
                        std::size_t total_rounds, double elapsed_seconds,
                        std::size_t threads, bool active,
                        const LifecycleBlame* blame = nullptr);

/// Evaluates the global model after `round` and appends the curve point
/// (with the comm-waste columns). `telemetry`, when non-null, gets the wall
/// time. `sim_time` >= 0 (a run that models time) also notes time-to-accuracy
/// and emits an eval_point record (the afl-insight `timeline` input).
void evaluate_global(RoundPolicy& policy, std::size_t round, RunResult& result,
                     ThreadPool& workers, RoundTelemetry* telemetry = nullptr,
                     double sim_time = -1.0);

/// Closes a run after `round`: stamps wall_seconds and sim_seconds, publishes
/// the final (inactive) status and emits the run_end summary (with a
/// sim_seconds column when the run tracked simulated time).
void finish_run(RunResult& result, const Stopwatch& watch, double sim_seconds,
                std::size_t round, std::size_t total_rounds, std::size_t threads,
                const LifecycleTracker& lifecycle,
                const net::Transport& transport);

}  // namespace afl::engine
