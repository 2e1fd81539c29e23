#include "engine/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "async/virtual_clock.hpp"
#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "fl/shard_aggregator.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl {

using engine::publish_run_status;
using engine::record_transfer;
using engine::trace_dispatch_failure;

namespace {

/// One aggregation shard of a sharded run: folds its partition's updates
/// round by round into a sync window and, when shard models diverge between
/// syncs, maintains a shard-local model.
class EdgeAggregator {
 public:
  /// `global` provides the structure snapshot; `track_local_model` is the
  /// sync_every > 1 mode, where the edge re-finalizes a local model every
  /// round instead of tracking the root global.
  EdgeAggregator(const ParamSet& global, bool track_local_model)
      : agg_(global), track_local_model_(track_local_model) {
    if (track_local_model_) model_ = global;
  }

  /// Folds one update by rvalue, so no ParamSet is ever duplicated.
  void add(ClientUpdate&& update) { agg_.add(std::move(update)); }

  /// Shard-local model (only meaningful when tracking one).
  const ParamSet& model() const { return model_; }
  /// Resets the local model to a freshly synced global.
  void set_model(const ParamSet& global) {
    if (track_local_model_) model_ = global;
  }

  /// Closes the shard's round: locally finalizes the round partial into the
  /// shard model (divergent mode) and folds it into the pending sync window.
  /// Returns the number of updates the round contributed.
  std::size_t end_round() {
    ShardPartial part = agg_.take_partial();
    const std::size_t updates = part.updates;
    if (track_local_model_ && updates > 0) {
      // Divergent mode: the shard advances its own model every round;
      // elements its clients did not cover keep the shard's previous value.
      model_ = finalize_partial(part, model_);
    }
    merge_partials(window_, std::move(part));
    return updates;
  }

  /// Moves the accumulated window partial out (the root merge input).
  ShardPartial take_window() { return std::exchange(window_, ShardPartial{}); }

 private:
  ShardAggregator agg_;
  ShardPartial window_;
  bool track_local_model_;
  ParamSet model_;
};

/// Phase 1 output of one round: the accepted work slots plus the transport
/// state that must survive into the execute/commit phases.
struct RoundPlan {
  std::vector<ClientSlot> work;
  /// Parallel to `work` when the transport is enabled (the downlink session
  /// clock carries into the uplink); empty on the identity path.
  std::vector<net::Transport::Session> sessions;
  /// Decoded downlink payloads owned here so slot.rx pointers stay stable
  /// across the parallel execute phase.
  std::vector<std::unique_ptr<ParamSet>> rx_store;
  /// Parallel to `work` when the transport is enabled: on-wire bytes of each
  /// slot's delivered downlink frame (per-shard byte attribution).
  std::vector<std::size_t> down_bytes;
  /// (client, session elapsed seconds) of dispatches lost on the downlink:
  /// no work slot survives, but the failed session still advances the clock
  /// of the client's shard.
  std::vector<std::pair<std::size_t, double>> failed_downlink_seconds;
  /// Clients whose dispatch found them departed from the fleet (population
  /// churn, PresenceSchedule::State::kAbsent), so the compressor can drop
  /// their stale residuals (docs/COMPRESSION.md).
  std::vector<std::size_t> departed;
};

/// Downlink payload override: what the wire carries for a slot. Null uses
/// policy.dispatch_params(); divergent sharded runs split from the owning
/// shard's local model instead.
using DispatchPayloadFn = std::function<ParamSet(const ClientSlot&)>;

/// Phase 1 of a round, sequential cohort planning: select / capacity / adapt
/// / dispatch accounting / availability / downlink transport / policy
/// feedback hooks, in slot order. The round RNG is consumed in the same draw
/// order (select -> capacity -> adapt -> availability -> transport session)
/// whatever the shard count, so the cohort, the dispatched models and every
/// failure are the same however the round is sharded afterwards. Clients map
/// to shard client % clocks.size(); the shard's clock is each dispatch's
/// lifecycle timebase, and `sharded` tags traces with the shard. When the
/// lifecycle tracker is active, every planned slot gets a sequential dispatch
/// id (thread- and shard-count invariant) whose tags ride the transport
/// session into the commit phase; the dispatched global version is round - 1.
RoundPlan plan_round(RoundPolicy& policy, const FlRunConfig& config,
                     const std::vector<DeviceSim>* devices,
                     const net::Transport& transport, std::size_t round,
                     Rng& rng, RunResult& result, RoundTelemetry& telemetry,
                     const DispatchPayloadFn& payload,
                     const std::vector<async::VirtualClock>& clocks,
                     bool sharded, engine::LifecycleTracker& lifecycle) {
  RoundPlan plan;
  plan.work.reserve(config.clients_per_round);
  const long long version = static_cast<long long>(round) - 1;
  for (std::size_t slot = 0; slot < config.clients_per_round; ++slot) {
    ClientSlot s;
    s.round = round;
    s.slot = slot;
    {
      AFL_PROF_SPAN("engine.select");
      if (!policy.select(s, rng)) break;  // no client available this round
      if (devices) {
        if (s.client >= devices->size()) {
          throw std::logic_error("RoundEngine: policy selected client " +
                                 std::to_string(s.client) + " outside the fleet");
        }
        s.capacity = (*devices)[s.client].capacity(rng);
      } else {
        s.capacity = static_cast<std::size_t>(-1);
      }
    }
    {
      AFL_PROF_SPAN("engine.adapt");
      policy.adapt(s);
    }
    // Unified accounting: the dispatch is on the wire before the server
    // learns anything about the device, so it is recorded up front and
    // becomes pure waste on no-response / no-fit.
    result.comm.record_dispatch(s.params_sent);
    const std::size_t shard = s.client % clocks.size();
    const int tag = sharded ? static_cast<int>(shard) : -1;
    const double lc_base = clocks[shard].now();
    // Ids are drawn only while tracing lifecycles: the counter is snapshot
    // state, so time-less runs keep it at 0.
    const std::size_t lc_id = lifecycle.active() ? lifecycle.next_id() : 0;
    lifecycle.begin(lc_id, round, s.client, lc_base, tag, version);
    if (devices) {
      // Population churn (src/pop/, docs/POPULATION.md): a departed or dark
      // client is dispatched to (the server cannot know) but never replies.
      // No RNG draw happens for non-present clients, so enabling churn never
      // shifts the streams of the clients that are present.
      const PresenceSchedule::State presence =
          (*devices)[s.client].presence_state(round);
      if (presence != PresenceSchedule::State::kPresent) {
        const char* outcome = presence == PresenceSchedule::State::kAbsent
                                  ? "departed"
                                  : "went_dark";
        if (presence == PresenceSchedule::State::kAbsent) {
          plan.departed.push_back(s.client);
        }
        ++result.failed_trainings;
        telemetry.client_failed();
        trace_dispatch_failure(s, outcome, -1.0, tag);
        lifecycle.drop(lc_id, outcome, lc_base);
        policy.on_no_response(s);
        continue;
      }
    }
    if (devices && !(*devices)[s.client].responds(rng)) {
      ++result.failed_trainings;
      telemetry.client_failed();
      trace_dispatch_failure(s, "no_response", -1.0, tag);
      lifecycle.drop(lc_id, "no_response", lc_base);
      policy.on_no_response(s);
      continue;
    }
    if (!s.trainable) {
      ++result.failed_trainings;
      telemetry.client_failed();
      trace_dispatch_failure(s, "adapt_failed", -1.0, tag);
      lifecycle.drop(lc_id, "adapt_failed", lc_base);
      policy.on_adapt_failure(s);
      continue;
    }
    if (transport.enabled()) {
      // Downlink: the dispatched submodel crosses the simulated channel.
      // Lost frames (all retransmissions exhausted) exclude the client this
      // round exactly like an availability failure.
      net::Transport::Session sess = transport.session(round, s.client);
      sess.set_lifecycle_tags(
          lifecycle.active() ? static_cast<long long>(lc_id) : -1, tag, version);
      net::Delivery down = transport.send(
          sess, net::FrameKind::kDispatch,
          payload ? payload(s) : policy.dispatch_params(s), s.params_sent);
      record_transfer(result.comm, down.transfer, /*uplink=*/false);
      lifecycle.phase(lc_id, engine::kPhaseDownlink, lc_base,
                      lc_base + sess.elapsed_seconds(), down.transfer.attempts,
                      down.transfer.backoff_seconds, down.transfer.bytes);
      if (!down.transfer.delivered) {
        ++result.failed_trainings;
        result.comm.record_drop();
        obs::metrics().counter("afl.net.drops").inc();
        telemetry.client_failed();
        trace_dispatch_failure(s, "lost_downlink", -1.0, tag);
        lifecycle.drop(lc_id, "lost_downlink", lc_base + sess.elapsed_seconds());
        policy.on_transport_failure(s);
        plan.failed_downlink_seconds.emplace_back(s.client,
                                                  sess.elapsed_seconds());
        continue;
      }
      if (!down.params.empty()) {
        plan.rx_store.push_back(
            std::make_unique<ParamSet>(std::move(down.params)));
        s.rx = plan.rx_store.back().get();
      }
      plan.sessions.push_back(sess);
      plan.down_bytes.push_back(down.transfer.bytes);
    }
    policy.on_accepted(s);
    plan.work.push_back(s);
  }
  return plan;
}

}  // namespace

RoundEngine::RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                         const pop::Population* population,
                         const hier::HierConfig& hier)
    : config_(config),
      devices_(devices),
      population_(population),
      sharded_(hier.enabled),
      // A disabled config still carries the default shard count: flat is
      // one shard, merged every round.
      shards_(hier.enabled ? std::max<std::size_t>(hier.shards, 1) : 1),
      sync_every_(hier.enabled ? std::max<std::size_t>(hier.sync_every, 1) : 1),
      threads_(config.threads > 0 ? config.threads : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult RoundEngine::run(RoundPolicy& policy) {
  HierRoundPolicy* hier_policy = nullptr;
  if (sharded_) {
    hier_policy = dynamic_cast<HierRoundPolicy*>(&policy);
    if (hier_policy == nullptr) {
      throw std::invalid_argument(
          "RoundEngine: " + policy.algorithm_name() +
          " cannot run sharded (hierarchical) rounds: it does not implement "
          "HierRoundPolicy");
    }
  }
  const bool divergent = sync_every_ > 1;

  Stopwatch watch;
  RunResult result;
  result.algorithm = policy.algorithm_name();

  obs::ensure_default_http_server();
  engine::trace_run_start(result, config_, threads_, transport_,
                          sharded_ ? "hier" : nullptr, sharded_ ? shards_ : 0,
                          sharded_ ? sync_every_ : 0, population_);
  publish_run_status(result, 0, config_.rounds, 0.0, threads_, /*active=*/true);

  ThreadPool pool(threads_);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");
  // The afl.hier.* instruments exist only in sharded runs, so flat metrics
  // dumps carry none of them.
  obs::Histogram* merge_hist = nullptr;
  obs::Histogram* shard_updates_hist = nullptr;
  obs::Counter* syncs_counter = nullptr;
  if (sharded_) {
    obs::metrics().gauge("afl.hier.shards").set(static_cast<double>(shards_));
    obs::metrics().gauge("afl.hier.sync_every").set(static_cast<double>(sync_every_));
    merge_hist = &obs::metrics().histogram("afl.hier.merge.seconds");
    shard_updates_hist = &obs::metrics().histogram("afl.hier.shard.round.updates");
    syncs_counter = &obs::metrics().counter("afl.hier.syncs");
  }

  Rng rng(config_.seed);
  policy.init_global(rng);

  const auto shard_of = [this](std::size_t client) { return client % shards_; };

  // Edges fold the updates of a sharded run; a flat run commits to the
  // policy instead. Elements no shard covered during a divergent sync window
  // fall through to the global of the last root merge.
  std::vector<EdgeAggregator> edges;
  ParamSet synced_global;
  if (sharded_) {
    edges.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) {
      edges.emplace_back(hier_policy->hier_global(), divergent);
    }
    if (divergent) synced_global = hier_policy->hier_global();
  }
  // In divergent mode the wire carries the owning shard's local model; null
  // splits the payload from the root global (policy.dispatch_params()).
  DispatchPayloadFn payload;
  if (divergent && transport_.enabled()) {
    payload = [&](const ClientSlot& s) {
      return hier_policy->hier_dispatch_params(s, edges[shard_of(s.client)].model());
    };
  }

  // Simulated time: with a transport configured each shard's round takes as
  // long as its slowest client's session (capped by the round deadline — the
  // server stops waiting there) on the shard's own clock. A root sync is a
  // barrier aligning every clock at the maximum, which is the run clock.
  std::vector<async::VirtualClock> clocks(shards_);
  double sim_total = 0.0;

  // Dispatch-lifecycle tracing (afl.trace.v2): active only when the run
  // models time, so transportless traces stay byte-identical to v1 builds.
  // Each dispatch's timebase is its shard's clock, so phases from diverging
  // shards land on one run-global timeline.
  engine::LifecycleTracker lifecycle(transport_.enabled());

  // Sparsifying uplink + error feedback (src/compress/, docs/COMPRESSION.md).
  // Disabled unless the transport's uplink codec is top-k; disabled it is a
  // pure no-op and runs stay byte-identical. Residual rows are per-client and
  // clients map to exactly one shard, so the shard-major commit order below
  // cannot perturb the store's final state.
  compress::Compressor compressor(transport_, compress::CompressConfig::from_env());

  // Snapshot/resume (docs/POPULATION.md). Resume restores the partial
  // result, round RNG, simulated clocks, lifecycle id counter, and policy
  // state over the freshly built structure from init_global(), so round
  // k+1 starts bit-identically to the uninterrupted run. Snapshots are cut
  // only at root-sync boundaries (every round of a flat run): edge windows
  // are empty there and every divergent edge model equals the synced global.
  const engine::SnapshotPlan snap = engine::SnapshotPlan::resolve(config_);
  const char* snap_format =
      sharded_ ? engine::kHierSnapshotFormat : engine::kSyncSnapshotFormat;
  std::size_t start_round = 1;
  if (snap.resume_enabled()) {
    SnapshotReader reader(snap.resume_from);
    const std::size_t at =
        engine::read_header(reader, snap_format, config_, result.algorithm);
    engine::read_result(reader, result);
    engine::read_rng(reader, rng);
    sim_total = reader.f64();
    lifecycle.set_last_id(reader.u64());
    if (sharded_) {
      const std::uint64_t n_edges = reader.u64();
      if (n_edges != shards_) {
        throw std::runtime_error(
            "snapshot: shard count mismatch (file has " + std::to_string(n_edges) +
            " edges, run has " + std::to_string(shards_) + ")");
      }
      for (async::VirtualClock& clock : clocks) clock.restore(reader.f64());
    } else {
      clocks[0].restore(sim_total);
    }
    if (compressor.enabled()) compressor.restore(reader);
    policy.restore_state(reader);
    reader.expect_end();
    if (divergent) {
      synced_global = hier_policy->hier_global();
      for (EdgeAggregator& edge : edges) edge.set_model(synced_global);
    }
    start_round = at + 1;
  }

  for (std::size_t round = start_round; round <= config_.rounds; ++round) {
    // Held in an optional so it can be flushed (destroyed) before the status
    // publish — the telemetry destructor appends this round's metrics record.
    std::optional<RoundTelemetry> telemetry(std::in_place, result, round);
    telemetry->set_net_enabled(transport_.enabled());
    if (population_ != nullptr) {
      engine::trace_churn(round, population_->round_churn(round));
    }
    policy.begin_round(round, rng);

    // Phase 1 (sequential planning): every RNG draw and every piece of
    // shared-state feedback happens here, in slot order, whatever the shard
    // count. Transport draws use per-(round, client) Sessions, so they never
    // perturb the round RNG.
    RoundPlan plan = plan_round(policy, config_, devices_, transport_, round, rng,
                                result, *telemetry, payload, clocks, sharded_,
                                lifecycle);
    std::vector<ClientSlot>& work = plan.work;
    if (compressor.enabled()) {
      for (const std::size_t client : plan.departed) compressor.on_departed(client);
    }
    // Divergent identity path: train on the owning shard's model by pointing
    // slot.rx at it (execute() splits rx down to back_index).
    if (divergent && !transport_.enabled()) {
      for (ClientSlot& s : work) s.rx = &edges[shard_of(s.client)].model();
    }

    // Phase 2 (parallel execution): per-slot work runs on the pool with a
    // RNG derived WITHOUT the shard word, so neither the thread count nor the
    // shard count can perturb training randomness.
    std::vector<TrainOutcome> outcomes(work.size());
    std::vector<double> queue_seconds(work.size(), 0.0);
    std::vector<double> exec_seconds(work.size(), 0.0);
    Stopwatch exec_watch;
    {
      AFL_PROF_SPAN("engine.train");
      pool.parallel_for(work.size(), [&](std::size_t i) {
        // Worker-thread span: lands on the pool thread's own span stack, so
        // kernel spans nested under it attribute correctly per thread.
        AFL_PROF_SPAN("engine.client_train");
        queue_seconds[i] = exec_watch.seconds();
        Stopwatch item_watch;
        Rng crng = Rng::derive(config_.seed, work[i].round, work[i].client);
        outcomes[i] = policy.execute(work[i], crng);
        exec_seconds[i] = item_watch.seconds();
      });
    }
    const double exec_wall = exec_watch.seconds();

    // Phase 3 (sequential commit): shard-major, slot order within each shard
    // (plain slot order in a flat run): uploads, comm accounting, telemetry,
    // traces, then the update goes to its edge or to policy.commit().
    const double deadline = transport_.config().round_deadline_s;
    double round_elapsed_max = 0.0;  // slowest client across all shards
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      async::VirtualClock& clock = clocks[shard];
      const double shard_base = clock.now();  // round start of this shard
      const int tag = sharded_ ? static_cast<int>(shard) : -1;
      double shard_elapsed = 0.0;
      for (std::size_t i = 0; i < work.size(); ++i) {
        const ClientSlot& s = work[i];
        if (shard_of(s.client) != shard) continue;
        std::size_t bytes_up = 0;
        if (transport_.enabled()) {
          // Uplink: the trained update crosses the channel on the same
          // session clock as the downlink, plus a deterministic compute term.
          // Updates lost after all retries, or delivered past the round
          // deadline (stragglers), are never aggregated.
          net::Transport::Session& sess = plan.sessions[i];
          const std::size_t lc_id =
              sess.dispatch_id() >= 0 ? static_cast<std::size_t>(sess.dispatch_id())
                                      : 0;
          const double down_end = sess.elapsed_seconds();
          sess.clock().charge_compute(transport_.compute_seconds(s.params_back));
          const double compute_end = sess.elapsed_seconds();
          ParamSet upref;
          if (compressor.enabled()) {
            // Turn the trained parameters into a masked top-k delta against
            // what this slot imported; the transport's sparse codec ships it.
            upref = policy.upload_reference(s);
            compressor.encode_update(s.client, outcomes[i].params, upref);
          }
          net::Delivery up = transport_.send(sess, net::FrameKind::kReturn,
                                             outcomes[i].params, s.params_back);
          record_transfer(result.comm, up.transfer, /*uplink=*/true);
          const double uplink_end = sess.elapsed_seconds();
          lifecycle.phase(lc_id, engine::kPhaseCompute, shard_base + down_end,
                          shard_base + compute_end);
          lifecycle.phase(lc_id, engine::kPhaseUplink, shard_base + compute_end,
                          shard_base + uplink_end, up.transfer.attempts,
                          up.transfer.backoff_seconds, up.transfer.bytes);
          shard_elapsed = std::max(shard_elapsed, sess.elapsed_seconds());
          bytes_up = up.transfer.bytes;
          const bool lost = !up.transfer.delivered;
          if (lost || (deadline > 0.0 && sess.elapsed_seconds() > deadline)) {
            const char* outcome = lost ? "lost_uplink" : "deadline";
            ++result.failed_trainings;
            if (lost) {
              result.comm.record_drop();
              obs::metrics().counter("afl.net.drops").inc();
            } else {
              result.comm.record_straggler();
              obs::metrics().counter("afl.net.stragglers").inc();
            }
            telemetry->client_failed();
            trace_dispatch_failure(s, outcome, -1.0, tag);
            lifecycle.drop(lc_id, outcome, shard_base + uplink_end);
            // Error feedback: the discarded masked delta returns to the
            // client's residual so its mass ships with the next update.
            compressor.reclaim(s.client, outcomes[i].params);
            policy.on_transport_failure(s);
            continue;
          }
          lifecycle.arrived(lc_id, shard_base + uplink_end);
          if (!up.params.empty()) outcomes[i].params = std::move(up.params);
          compressor.decode_update(outcomes[i].params, upref);
        }
        result.comm.record_return(s.params_back);
        telemetry->add_train_seconds(outcomes[i].stats.seconds);
        telemetry->client_ok();
        queue_hist.record(queue_seconds[i]);
        train_hist.record(exec_seconds[i]);
        if (obs::trace_enabled()) {
          obs::TraceEvent ev("dispatch");
          ev.field("round", static_cast<std::uint64_t>(s.round))
              .field("client", static_cast<std::uint64_t>(s.client))
              .field("sent", static_cast<std::uint64_t>(s.sent_index))
              .field("params", static_cast<std::uint64_t>(s.params_sent))
              .field("outcome", "ok");
          if (sharded_) ev.field("shard", static_cast<std::uint64_t>(shard));
          ev.field("back", static_cast<std::uint64_t>(s.back_index))
              .field("params_back", static_cast<std::uint64_t>(s.params_back))
              .field("train_ms", outcomes[i].stats.seconds * 1e3)
              .field("dur_ms", exec_seconds[i] * 1e3);
          if (sharded_ && transport_.enabled()) {
            ev.field("bytes_down", static_cast<std::uint64_t>(plan.down_bytes[i]))
                .field("bytes_up", static_cast<std::uint64_t>(bytes_up));
          }
          ev.emit();
        }
        if (sharded_) {
          edges[shard].add(
              ClientUpdate{std::move(outcomes[i].params), outcomes[i].samples});
        } else {
          policy.commit(s, std::move(outcomes[i]));
        }
      }
      for (const auto& [client, elapsed] : plan.failed_downlink_seconds) {
        if (shard_of(client) == shard) shard_elapsed = std::max(shard_elapsed, elapsed);
      }
      round_elapsed_max = std::max(round_elapsed_max, shard_elapsed);
      if (transport_.enabled()) {
        // The shard's round ends at its own slowest client (deadline-capped):
        // shards progress independently between syncs. That round barrier is
        // the commit instant of every buffered update of the shard:
        // buffer_wait runs from each arrival to here.
        clock.advance_to(clock.now() + (deadline > 0.0
                                            ? std::min(deadline, shard_elapsed)
                                            : shard_elapsed));
        lifecycle.commit_window(clock.now(), tag, static_cast<long long>(round));
      }
    }
    if (!work.empty() && exec_wall > 0.0) {
      double busy = 0.0;
      for (double s : exec_seconds) busy += s;
      obs::metrics()
          .gauge("afl.engine.pool.utilization")
          .set(busy / (exec_wall * static_cast<double>(pool.size())));
    }

    // Phase 4 (sequential): aggregate — the edge folds plus the root merge
    // when a sync is due — then evaluation on sync rounds.
    const bool sync_round = round % sync_every_ == 0 || round == config_.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      if (!sharded_) {
        policy.aggregate(round);
      } else {
        for (EdgeAggregator& edge : edges) {
          shard_updates_hist->record(static_cast<double>(edge.end_round()));
        }
        if (sync_round) {
          // The root merge adds the shard windows element-wise — exact
          // integer addition, independent of shard count and order — and
          // finalizes against the window's base.
          Stopwatch merge_watch;
          ShardPartial merged;
          for (EdgeAggregator& edge : edges) merge_partials(merged, edge.take_window());
          const ParamSet& base = divergent ? synced_global : hier_policy->hier_global();
          hier_policy->hier_set_global(finalize_partial(merged, base));
          if (divergent) {
            synced_global = hier_policy->hier_global();
            for (EdgeAggregator& edge : edges) edge.set_model(synced_global);
          }
          syncs_counter->inc();
          merge_hist->record(merge_watch.seconds());
          if (transport_.enabled()) {
            // A root sync is a barrier: every shard clock aligns at the
            // maximum, and the fast shards' idle time is traced.
            double vmax = 0.0;
            for (const async::VirtualClock& clock : clocks) {
              vmax = std::max(vmax, clock.now());
            }
            for (std::size_t s = 0; s < shards_; ++s) {
              const double before = clocks[s].now();
              if (before < vmax) {
                lifecycle.root_wait(round, static_cast<int>(s), before, vmax);
              }
              clocks[s].advance_to(vmax);
            }
            lifecycle.root_merge(round, vmax);
          }
        }
      }
      telemetry->add_aggregate_seconds(agg_watch.seconds());
    }
    policy.end_round(round, *telemetry);

    if (transport_.enabled()) {
      const double round_sim = deadline > 0.0
                                   ? std::min(deadline, round_elapsed_max)
                                   : round_elapsed_max;
      for (const async::VirtualClock& clock : clocks) {
        sim_total = std::max(sim_total, clock.now());
      }
      telemetry->set_sim_time(round_sim, sim_total);
    }

    // Eval only on sync rounds (between syncs the root global is stale);
    // every round of a flat run is one.
    if (sync_round && config_.eval_every != 0 &&
        (round % config_.eval_every == 0 || round == config_.rounds)) {
      AFL_PROF_SPAN("engine.evaluate");
      engine::evaluate_global(policy, round, result, pool, &*telemetry,
                              transport_.enabled() ? sim_total : -1.0);
    }
    telemetry.reset();  // flush this round's metrics record
    if (sync_round) obs::sample_rss();  // same memory cadence as async flushes
    publish_run_status(result, round, config_.rounds, watch.seconds(), threads_,
                       /*active=*/round < config_.rounds, &lifecycle.blame());

    // Snapshots (and stop-after) fire only on sync rounds: between syncs the
    // edge windows hold un-merged coverage mass that the format deliberately
    // does not carry.
    if (sync_round && snap.due(round)) {
      SnapshotWriter w(snap.snapshot_path);
      engine::write_header(w, snap_format, config_, result.algorithm, round);
      engine::write_result(w, result);
      engine::write_rng(w, rng);
      w.f64(sim_total);
      w.u64(lifecycle.last_id());
      if (sharded_) {
        w.u64(clocks.size());
        for (const async::VirtualClock& clock : clocks) w.f64(clock.now());
      }
      if (compressor.enabled()) compressor.snapshot(w);
      policy.snapshot_state(w);
      w.finish();
    }
    if (sync_round && snap.stop_after(round)) {
      // Killed-at-round-k semantics: hand back the partial result; a later
      // run resumes from the snapshot and reproduces the full run exactly.
      engine::finish_run(result, watch, sim_total, round, config_.rounds,
                         threads_, lifecycle, transport_);
      return result;
    }
  }

  if (result.curve.empty()) {
    engine::evaluate_global(policy, config_.rounds, result, pool);
  }
  engine::finish_run(result, watch, sim_total, config_.rounds, config_.rounds,
                     threads_, lifecycle, transport_);
  return result;
}

}  // namespace afl
