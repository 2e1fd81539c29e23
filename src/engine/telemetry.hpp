#pragma once
// The run core shared by the synchronous RoundEngine and the async engine
// (src/async/engine.*), docs/ENGINE.md "One run core": run start, the
// snapshot frame, window open and close, the training wave, Algorithm 2's
// fold and finalize, and the run end. Each engine's run() keeps only its
// schedule. Both engines therefore emit identical run_start, aggregate and
// run_end records, so afl-insight can diff their traces.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "compress/compressor.hpp"
#include "engine/dispatch.hpp"
#include "engine/lifecycle.hpp"
#include "engine/round_engine.hpp"
#include "engine/run.hpp"
#include "engine/snapshot.hpp"
#include "fl/shard_aggregator.hpp"
#include "nn/checkpoint.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl::engine {

/// Which run a RunCore drives: it fixes the run_start `mode` column, the
/// snapshot format, the "+Async" name suffix and the evaluate span.
enum class RunMode { kFlat, kHier, kAsync };

/// One run's shared state and steps. Every call runs on the engine thread.
class RunCore {
 public:
  /// Run start: the HTTP server, the run_start record (`shards` and
  /// `sync_every` are kHier's topology columns), the first status, the pool,
  /// the sampled channel quality to policy.observe_channels(), the root RNG
  /// and policy.init_global(), one aggregator per policy global, the
  /// lifecycle tracker (active when the run models time), the compressor
  /// and the dispatcher.
  RunCore(const EngineBase& engine, RoundPolicy& policy, RunMode mode,
          std::size_t shards = 0, std::size_t sync_every = 0);

  /// The engine's own snapshot state, around the shared frame: header,
  /// result, RNG, head, compressor, policy globals, the policy's own
  /// snapshot(), tail. Each runs once for both directions (SnapshotStream);
  /// an unset tail is empty.
  std::function<void(SnapshotStream&)> head, tail;

  /// Restores the snapshot the plan resumes from, if any, over the structure
  /// init_global() built. Returns its round; 0 is a fresh start.
  std::size_t resume();

  /// Opens window `round` (a round, or an async flush window): its telemetry
  /// and, with a population, its `churn` record.
  void open_window(std::size_t round);

  /// Closes window `round` after its aggregation: end_round(); the simulated
  /// time when `now` >= 0 (`round_sim` the window's share); evaluation when
  /// due; the metrics record; status. Only a `sync` window (false for a
  /// sharded round between root syncs) evaluates, samples RSS and writes
  /// the snapshot. Returns true when the run stops here (stop-after).
  bool close_window(std::size_t round, bool sync, double round_sim, double now);

  /// The training wave under `span`: execute() for every dispatch in `wave`
  /// on the pool, each under `client_span` with its own Rng::derive(seed,
  /// round, client) stream, stamping queue_s and exec_s. Returns the wave's
  /// wall seconds.
  double train(const std::vector<Dispatch*>& wave, const char* span,
               const char* client_span);

  /// Algorithm 2's fold (docs/ENGINE.md, "Where aggregation runs"): adds the
  /// update of `d`, its data-size weight scaled by `weight` (the async
  /// staleness discount), to the aggregator of its slot's global, or to
  /// `into` (a divergent edge's round partial), and books the time into the
  /// window's aggregate seconds.
  void fold(Dispatch& d, double weight = 1.0, ShardAggregator* into = nullptr);

  /// Algorithm 2's finalize at a sync point: replaces every policy global by
  /// what its aggregator folded since the last one (finalize_aggregate:
  /// elements no update covered keep their value, and one `aggregate`
  /// record per global), clears the aggregators in place, and books the
  /// time into the window's aggregate seconds.
  void aggregate();

  /// The global `slot` splits from and folds into, globals()[global_of()]:
  /// its ClientSlot::source outside a divergent sharded run.
  const ParamSet* source_of(const ClientSlot& slot) const {
    return globals_[policy_.global_of(slot)];
  }

  /// The aggregator of a sharded run's one global: the root every edge
  /// folds into.
  ShardAggregator& root() { return aggregators_.front(); }

  /// Run end: evaluates the final global when the curve is empty, then
  /// finish(config.rounds).
  RunResult end();

  /// Closes the run after `round`: wall and simulated seconds, the final
  /// status and the run_end record. A stop-after run hands back its partial
  /// result here; a later run resumes from the snapshot and reproduces the
  /// full run exactly.
  RunResult finish(std::size_t round);

  RunResult result;
  ThreadPool pool;
  Rng rng;
  LifecycleTracker lifecycle;
  compress::Compressor compressor;
  /// The open window's collector. Held in an optional so a window close can
  /// flush (destroy) it before the status publish.
  std::optional<RoundTelemetry> telemetry;
  Dispatcher dispatcher;
  const SnapshotPlan snap;
  /// Simulated clock at the last window close (0 while nothing models time).
  double sim_time = 0.0;

 private:
  const EngineBase& engine_;
  RoundPolicy& policy_;
  RunMode mode_;
  Stopwatch watch_;
  /// policy.globals(), and one aggregator for each that keeps its storage
  /// for the whole run.
  std::vector<ParamSet*> globals_;
  std::vector<ShardAggregator> aggregators_;

  /// Saves or resumes the snapshot frame (head and tail above) at `round`;
  /// returns the file's round. A resumed global must have the names and
  /// shapes init_global() built.
  std::size_t frame(SnapshotStream& s, std::size_t round);

  /// Publishes a RunStatus to the live status board, with the lifecycle's
  /// critical-path blame once it is valid.
  void publish(std::size_t round, double elapsed_seconds, bool active) const;

  /// Evaluates the global after `round` and appends the curve point (with
  /// the comm-waste columns). `now` >= 0 (a run that models time) also notes
  /// time-to-accuracy and emits an eval_point record (the afl-insight
  /// `timeline` input).
  void evaluate(std::size_t round, double now);
};

}  // namespace afl::engine
