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
//                     (engine: dispatch accounting, availability check,
//                      failure bookkeeping, on_* feedback hooks)
//                  -> [parallel]              execute (thread pool)
//                  -> [sequential, slot order] commit
//                  -> aggregate -> end_round
//                  -> evaluate (when due; chunks on the thread pool)
//
// Determinism contract: all policy hooks except execute() run on the engine
// thread, strictly sequentially, in slot order. execute() runs on a worker
// thread with a private Rng derived from (seed, round, client) — never from
// the round RNG — so the RunResult is bit-identical for any AFL_THREADS.
// execute() must therefore be const and touch no mutable shared state
// (global parameters are frozen between aggregate() calls, so reading them
// is safe).
//
// Communication accounting rule (uniform across algorithms): every slot that
// selects a client records its dispatch *before* the availability check; a
// device that never responds, or that cannot train even the smallest
// adapted/offered submodel, therefore counts as pure waste. Returns are
// recorded only for slots whose training committed.
//
// Simulated transport (src/net/, docs/NET.md): when a channel is configured
// the engine ships each dispatch and upload as a codec-encoded wire frame
// through a deterministic lossy channel with retry/backoff. Frames lost after
// all retries, and clients whose round exceeds the deadline (stragglers), are
// excluded from aggregation exactly like availability failures. All transport
// randomness comes from streams derived per (seed, round, client), so results
// stay bit-identical at any AFL_THREADS; with no channel configured the
// transport is an identity path and runs are byte-identical to a build
// without it.

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/run.hpp"
#include "fl/local_train.hpp"
#include "hier/config.hpp"
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
  /// is configured and the policy exposes dispatch_params(). The tensors the
  /// device actually received — codec-quantized when the codec is lossy.
  /// Null on the identity path; execute() falls back to reading the global
  /// parameters directly.
  const ParamSet* rx = nullptr;
};

/// What one client's local training produced (execute() return value).
struct TrainOutcome {
  ParamSet params;           // trained parameters, as exported by the model
  std::size_t samples = 0;   // client dataset size (aggregation weight)
  LocalTrainResult stats;
};

/// Per-algorithm policy hooks. Every hook except execute() runs sequentially
/// on the engine thread; see the determinism contract above.
class RoundPolicy {
 public:
  virtual ~RoundPolicy() = default;

  virtual std::string algorithm_name() const = 0;

  /// Builds / seeds the global model; first consumer of the run's root RNG.
  virtual void init_global(Rng& rng) = 0;

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

  /// The parameter payload the server ships for this slot (the dispatched
  /// submodel, sized sent_index). Only called when a transport channel is
  /// configured; runs on the engine thread after adapt(). Policies that
  /// return a non-empty set get real byte accounting and codec quantization
  /// of what the client trains on (via slot.rx); the default (empty) keeps
  /// the transport in size-only simulation driven by params_sent.
  virtual ParamSet dispatch_params(const ClientSlot& slot) const {
    (void)slot;
    return {};
  }

  /// The parameter set execute() imported for this slot — what the trained
  /// update is measured against when a sparsifying uplink codec is active
  /// (src/compress/, docs/COMPRESSION.md): the uplink ships
  /// top-k(trained - upload_reference() + residual). Must return exactly
  /// what execute() read (slot.rx when present, else the policy's current
  /// global split for the slot), with matching names and shapes. The default
  /// throws: silently compressing against the wrong reference would corrupt
  /// training, so policies must opt in explicitly.
  virtual ParamSet upload_reference(const ClientSlot& slot) const {
    (void)slot;
    throw std::runtime_error(
        algorithm_name() +
        " does not implement upload_reference(); sparse uplink codecs "
        "(AFL_NET_CODEC=topk*) need the policy to expose the imported "
        "parameter set");
  }

  /// One client's local work: build -> import -> train -> export. Runs on a
  /// worker thread; must be effectively const (no shared-state mutation) and
  /// must draw randomness only from `rng`.
  virtual TrainOutcome execute(const ClientSlot& slot, Rng& rng) const = 0;

  /// Stores the trained update for aggregation. Slot order.
  virtual void commit(const ClientSlot& slot, TrainOutcome outcome) = 0;

  /// Folds all committed updates into the global model.
  virtual void aggregate(std::size_t round) = 0;

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
/// algorithm's selector, RL feedback, pruning, and aggregation code runs
/// unchanged — but the async engine's continuous dispatch needs three extra
/// seams: a run-scoped (rather than round-scoped) busy set, because clients
/// stay in flight across aggregation flushes; weighted commits, because
/// staleness discounts the update's aggregation weight; and a begin hook
/// replacing the per-round cohort reset. begin_round()/select() are still
/// called per dispatch so per-round policy state (e.g. RL reward windows)
/// keeps working; the engine maps one "round" to one dispatch.
class AsyncRoundPolicy : public RoundPolicy {
 public:
  /// Called once before the first dispatch, instead of per-round cohort
  /// resets driving the busy set.
  virtual void begin_async(std::size_t num_clients) = 0;

  /// Marks a client in flight (selected, awaiting its update or failure) or
  /// free again. select() must never pick a busy client.
  virtual void set_client_busy(std::size_t client, bool busy) = 0;

  /// Stores a trained update whose aggregation weight is scaled by
  /// `weight_scale` = 1 / (1 + staleness)^alpha. commit() remains the
  /// synchronous path (weight_scale == 1).
  virtual void commit_weighted(const ClientSlot& slot, TrainOutcome outcome,
                               double weight_scale) = 0;
};

/// Extension consumed by RoundEngine's sharded mode (docs/HIERARCHY.md). A
/// sharded run plans rounds through the same sequential hooks as a flat one
/// but owns aggregation itself: per-shard ShardAggregators fold the updates and
/// the root merge commits the new global, so commit()/aggregate() are never
/// called. That requires direct access to the policy's global parameter set
/// plus a payload split against an explicit (possibly shard-local) model.
class HierRoundPolicy : public AsyncRoundPolicy {
 public:
  /// The policy's current global parameter set (frozen between syncs).
  virtual const ParamSet& hier_global() const = 0;

  /// Replaces the global parameter set (the root merge's commit).
  virtual void hier_set_global(ParamSet global) = 0;

  /// The downlink payload for `slot` split from an explicit model — the
  /// hierarchical analogue of dispatch_params(), used when shard models
  /// diverge from the root global between syncs (sync_every > 1).
  virtual ParamSet hier_dispatch_params(const ClientSlot& slot,
                                        const ParamSet& model) const = 0;
};

/// Drives a RoundPolicy through config.rounds rounds. `devices` may be null
/// for idealized baselines (always responsive, unlimited capacity); otherwise
/// it must hold one profile per client and outlive the engine.
///
/// Sharded mode (docs/HIERARCHY.md): an enabled `hier` config partitions the
/// clients across `shards` edge aggregators by client_id % shards. Each edge
/// folds its partition's updates into a mergeable coverage-mass partial
/// (fl/shard_aggregator.hpp) on its own simulated clock; every `sync_every`
/// rounds the partials merge exactly into the new global model. A flat run
/// (the default, disabled config) is the one-shard case: one clock, no shard
/// tags, and aggregation through the policy's own commit()/aggregate(). With
/// sync_every == 1 a sharded run is bit-identical to the flat run for any
/// shard count and any AFL_THREADS.
class RoundEngine {
 public:
  /// `population` (optional, not owned) supplies churn telemetry and
  /// per-client channel profiles (docs/POPULATION.md); the churn schedules
  /// themselves reach the engine through the devices' presence pointers.
  RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
              const pop::Population* population = nullptr,
              const hier::HierConfig& hier = {});

  /// Throws std::invalid_argument when the config is sharded and `policy` is
  /// not a HierRoundPolicy.
  RunResult run(RoundPolicy& policy);

  /// Worker threads the engine resolved (config.threads or AFL_THREADS).
  std::size_t threads() const { return threads_; }

  /// The resolved simulated transport (config.net or the AFL_NET_*
  /// environment; disabled by default — the identity path).
  const net::Transport& transport() const { return transport_; }

 private:
  FlRunConfig config_;
  const std::vector<DeviceSim>* devices_;
  const pop::Population* population_;
  bool sharded_;
  std::size_t shards_;      // 1 when flat
  std::size_t sync_every_;  // 1 when flat
  std::size_t threads_;
  net::Transport transport_;
};

}  // namespace afl
