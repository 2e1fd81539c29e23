#pragma once
// The shared federated round engine (see docs/ENGINE.md).
//
// Every runner used to hand-roll the same loop: select clients, dispatch
// models, check availability, adapt to the device's capacity, train locally,
// upload, aggregate, evaluate. RoundEngine owns that skeleton once and
// delegates the algorithm-specific decisions to a RoundPolicy:
//
//   init_global -> [per round] begin_round
//                  -> [per slot, sequential]  select -> adapt
//                     (engine/dispatch.hpp: accounting, availability,
//                      downlink, failure booking, on_* feedback hooks)
//                  -> [parallel]              execute (thread pool)
//                  -> [sequential, slot order] fold each update into its
//                     global's aggregator (the run core, Algorithm 2)
//                  -> finalize every global -> end_round
//                  -> evaluate (when due; chunks on the thread pool)
//
// Determinism contract: all policy hooks except execute() run on the engine
// thread, strictly sequentially, in slot order. execute() runs on a worker
// thread with a private Rng derived from (seed, round, client) — never from
// the round RNG — so the RunResult is bit-identical for any AFL_THREADS.
// execute() must therefore be const and touch no mutable shared state
// (the globals change only at a sync point, after the wave, so reading them
// is safe).
//
// The per-dispatch steps (accounting, availability, transport, failure
// booking) are shared with the async engine in engine/dispatch.hpp; the
// run's start, windows, aggregation, snapshots and end in
// engine/telemetry.hpp. Every dispatch is recorded before the availability
// check, so a device that never responds, or cannot train even the smallest
// offered submodel, counts as pure waste. With a channel configured (src/net/, docs/NET.md) frames lost
// after all retries, and clients whose round exceeds the deadline
// (stragglers), are excluded like availability failures; transport streams
// derive per (seed, round, client), so results stay bit-identical at any
// AFL_THREADS, and with no channel runs are byte-identical to a build
// without one.

#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/federated.hpp"
#include "engine/run.hpp"
#include "fl/local_train.hpp"
#include "net/transport.hpp"
#include "nn/checkpoint.hpp"
#include "nn/param.hpp"
#include "pop/population.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace afl {

/// One client slot's plan, filled left-to-right by the engine and the policy
/// hooks (select fills client/sent_*, the engine fills capacity, adapt fills
/// the rest).
struct ClientSlot {
  std::size_t round = 0;
  std::size_t slot = 0;
  std::size_t client = 0;
  /// Device capacity drawn for this slot (SIZE_MAX when the engine has no
  /// device fleet, e.g. the idealized All-Large baseline).
  std::size_t capacity = 0;
  /// Policy-specific identifier of the dispatched model (pool entry index,
  /// level index, ...).
  std::size_t sent_index = 0;
  std::size_t params_sent = 0;
  /// Set by adapt(): whether the device can train what it received.
  bool trainable = false;
  /// Policy-specific identifier of the model coming back (== sent_index when
  /// the device did not prune).
  std::size_t back_index = 0;
  std::size_t params_back = 0;
  /// Decoded downlink payload, set by the engine's transport when a channel
  /// is configured: the dispatch_params() tensors the device actually
  /// received, codec-quantized when the codec is lossy. Null on the identity
  /// path, where local_view() splits the source.
  const ParamSet* rx = nullptr;
  /// The model dispatch_params() and local_view() split from, set by the
  /// engine after adapt(): the slot's global (globals()[global_of()]), or
  /// the owning shard's model in a divergent sharded run
  /// (docs/HIERARCHY.md).
  const ParamSet* source = nullptr;
};

/// What one client's local training produced (execute() return value).
struct TrainOutcome {
  ParamSet params;           // trained parameters, as exported by the model
  std::size_t samples = 0;   // client dataset size (aggregation weight)
  LocalTrainResult stats;
};

/// The one client step every policy's execute() runs: imports `view` into
/// `model` (releasing `view` before training), trains it on `client`'s data
/// and exports the result. A stored shard is read in place; a lazy dataset's
/// shard (scale-out populations) is materialized on the calling worker
/// thread and dropped when training ends.
TrainOutcome train_client(Model model, ParamSet view, const FederatedDataset& data,
                          std::size_t client, const LocalTrainConfig& cfg, Rng& rng);

/// Per-algorithm policy hooks. Every hook except execute() runs sequentially
/// on the engine thread; see the determinism contract above.
class RoundPolicy {
 public:
  virtual ~RoundPolicy() = default;

  virtual std::string algorithm_name() const = 0;

  /// Builds / seeds the global model; first consumer of the run's root RNG.
  virtual void init_global(Rng& rng) = 0;

  /// Called before init_global() when the run's population samples
  /// per-client channels (docs/POPULATION.md) with each client's channel
  /// quality in (0, 1]. AdaptiveFL's selector takes it as an observation.
  virtual void observe_channels(const std::vector<double>& quality) { (void)quality; }

  /// Round setup: cohort sampling, clearing per-round scratch state.
  virtual void begin_round(std::size_t round, Rng& rng) {
    (void)round;
    (void)rng;
  }

  /// Picks the slot's client (and, for pool-based policies, the model to
  /// ship: sent_index + params_sent). May draw from `rng` and read policy
  /// state. Returning false ends the round's selection early.
  virtual bool select(ClientSlot& slot, Rng& rng) = 0;

  /// Device-side resolution given slot.capacity: what the server actually
  /// shipped (params_sent, when it depends on the capacity match) and
  /// whether/what the device can train (trainable, back_index, params_back).
  virtual void adapt(ClientSlot& slot) = 0;

  /// Feedback hooks (RL table updates etc.), called in slot order.
  virtual void on_no_response(const ClientSlot& slot) { (void)slot; }
  virtual void on_adapt_failure(const ClientSlot& slot) { (void)slot; }
  /// Called when a slot is accepted for training, before execute().
  virtual void on_accepted(const ClientSlot& slot) { (void)slot; }
  /// Called when the simulated transport loses the slot's frame (all
  /// retransmissions exhausted) or its update misses the round deadline.
  /// The client is excluded from aggregation like an availability failure.
  virtual void on_transport_failure(const ClientSlot& slot) { (void)slot; }

  /// The parameter sets Algorithm 2 updates, in a fixed order: the run core
  /// folds every arrived update into the one global_of() names and replaces
  /// each at the window's sync point (docs/ENGINE.md, "Where aggregation
  /// runs"). The pointers must stay valid for the run, and their number
  /// must not depend on init_global(). Most policies have one; Decoupled
  /// has its three level families.
  virtual std::vector<ParamSet*> globals() = 0;

  /// Index into globals() of the set `slot` splits from and its update
  /// folds into.
  virtual std::size_t global_of(const ClientSlot& slot) const {
    (void)slot;
    return 0;
  }

  /// The parameter payload the server ships for this slot: the dispatched
  /// submodel (sent_index) split from *slot.source. With a transport
  /// the downlink frame carries exactly this, so its bytes are real and a
  /// lossy codec quantizes what the client trains on (via slot.rx). Runs on
  /// the engine thread after adapt(), and in local_view() on a worker.
  virtual ParamSet dispatch_params(const ClientSlot& slot) const = 0;

  /// What the client trains on: execute() imports exactly this, and a
  /// sparsifying uplink codec (src/compress/, docs/COMPRESSION.md) measures
  /// the trained update against it: the uplink ships top-k(trained -
  /// local_view() + residual). The default is what the device received.
  /// A policy whose device prunes the payload further overrides it.
  virtual ParamSet local_view(const ClientSlot& slot) const {
    return slot.rx ? *slot.rx : dispatch_params(slot);
  }

  /// One client's local work, normally one train_client() call on the
  /// slot's model and local_view(). Runs on a worker thread; must be
  /// effectively const (no shared-state mutation) and must draw randomness
  /// only from `rng`.
  virtual TrainOutcome execute(const ClientSlot& slot, Rng& rng) const = 0;

  /// Round-end telemetry (selector entropy etc.).
  virtual void end_round(std::size_t round, RoundTelemetry& telemetry) {
    (void)round;
    (void)telemetry;
  }

  /// Evaluates the global model: fills result.level_acc and
  /// result.final_full_acc / final_avg_acc. The engine appends the curve
  /// point (with the comm-waste columns) afterwards. `workers` is the
  /// engine's thread pool, idle at this point; each model's eval_batch chunks
  /// run on it (eval_params), so the result is the same at any pool size.
  virtual void evaluate(std::size_t round, RunResult& result, ThreadPool& workers) = 0;

  /// Engine snapshot/resume (docs/POPULATION.md): serializes the policy's
  /// own state (global model, RL tables, ...) beyond what the engine
  /// captures, and restores it on resume. The layout is policy-private but
  /// must be deterministic (sorted containers) so two snapshots of identical
  /// logical state are byte-identical. restore_state() is called after
  /// init_global(), so structure exists and only values need rewinding.
  /// The defaults throw: a policy that silently snapshots nothing would
  /// resume from a round-0 model and diverge without any error. Only called
  /// when a snapshot/resume plan is active.
  virtual void snapshot_state(SnapshotWriter& w) const {
    (void)w;
    throw std::runtime_error(algorithm_name() +
                             " does not implement snapshot_state()");
  }
  virtual void restore_state(SnapshotReader& r) {
    (void)r;
    throw std::runtime_error(algorithm_name() +
                             " does not implement restore_state()");
  }
};

/// Extension of RoundPolicy consumed by the async engine (src/async/,
/// docs/ASYNC.md). The synchronous hooks keep their exact semantics — the
/// algorithm's selector, RL feedback and pruning run unchanged, and the run
/// core folds each update weighted by its staleness discount — but the
/// async engine's continuous dispatch needs two extra seams: a run-scoped
/// (rather than round-scoped) busy set, because clients stay in flight
/// across aggregation flushes, and a begin hook replacing the per-round
/// cohort reset, so begin_round() is never called; select() runs once per
/// dispatch, whose id is the slot's "round".
class AsyncRoundPolicy : public RoundPolicy {
 public:
  /// Called once before the first dispatch, instead of per-round cohort
  /// resets driving the busy set.
  virtual void begin_async(std::size_t num_clients) = 0;

  /// Marks a client in flight (selected, awaiting its update or failure) or
  /// free again. select() must never pick a busy client.
  virtual void set_client_busy(std::size_t client, bool busy) = 0;

  /// The fewest parameters adapt() can make any dispatch trainable with: a
  /// device whose capacity never reaches it cannot answer, which the async
  /// stop rule needs to know (docs/ASYNC.md). 0, the default, lets any
  /// capacity answer.
  virtual std::size_t min_trainable_params() const { return 0; }
};

namespace engine {

class RunCore;

/// What both engines resolve at construction (docs/ENGINE.md, "One run
/// core"): the worker count (config.threads or AFL_THREADS), the simulated
/// transport (config.net or the AFL_NET_* environment; disabled by default —
/// the identity path) and, for a fleet, the population (config.pop or the
/// AFL_POP_* environment; docs/POPULATION.md), whose per-client channels the
/// transport takes. `devices` may be null for idealized baselines (always
/// responsive, unlimited capacity, no population); otherwise it must hold
/// one profile per client and outlive the engine.
class EngineBase {
 public:
  /// Worker threads the engine resolved.
  std::size_t threads() const { return threads_; }

  /// The resolved simulated transport.
  const net::Transport& transport() const { return transport_; }

 protected:
  friend class RunCore;
  EngineBase(const FlRunConfig& config, const std::vector<DeviceSim>* devices);

  FlRunConfig config_;
  const std::vector<DeviceSim>* devices_;
  std::size_t threads_;
  net::Transport transport_;
  std::unique_ptr<pop::Population> population_;  // null: a static fleet
};

}  // namespace engine

/// Drives a RoundPolicy through config.rounds rounds; `devices` as in
/// engine::EngineBase.
///
/// Sharded mode (docs/HIERARCHY.md): an enabled hier config (config.hier or
/// the AFL_HIER_* environment) partitions the clients across `shards` edges
/// by client_id % shards, each on its own simulated clock. Every edge folds
/// its partition's updates into the run core's root aggregator (through a
/// shard-local model first when `sync_every` > 1), and every `sync_every`
/// rounds the root finalizes the new global. A flat run (the default,
/// disabled config) is one lockstep edge: one clock and no shard tags. With
/// sync_every == 1 a sharded run is bit-identical to the flat run for any
/// shard count and any AFL_THREADS.
class RoundEngine : public engine::EngineBase {
 public:
  RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices);

  /// Throws std::invalid_argument, naming the algorithm, when the config is
  /// sharded and `policy` has more than one global.
  RunResult run(RoundPolicy& policy);

 private:
  bool sharded_;
  std::size_t shards_;      // 1 when flat
  std::size_t sync_every_;  // 1 when flat
};

}  // namespace afl
