#include "engine/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "async/virtual_clock.hpp"
#include "compress/compressor.hpp"
#include "engine/dispatch.hpp"
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

using engine::DispatchFailure;
using engine::publish_run_status;

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

}  // namespace

TrainOutcome train_client(Model model, ParamSet view, const FederatedDataset& data,
                          std::size_t client, const LocalTrainConfig& cfg, Rng& rng) {
  model.import_params(view);
  view.clear();  // the model holds its own copy while it trains
  const Dataset* stored = data.stored_client(client);
  const Dataset shard = stored ? Dataset{} : data.materialize_client(client);
  const Dataset& client_data = stored ? *stored : shard;
  TrainOutcome out;
  out.stats = local_train(model, client_data, cfg, rng);
  out.params = model.export_params();
  out.samples = client_data.size();
  return out;
}

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

  engine::Dispatcher dispatcher{"RoundEngine", policy, devices_, transport_,
                                compressor, lifecycle, result};
  if (divergent && transport_.enabled()) {
    // Divergent runs ship the owning shard's local model, not the root global.
    dispatcher.payload = [&](const ClientSlot& s) {
      return hier_policy->hier_dispatch_params(s, edges[shard_of(s.client)].model());
    };
  }

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

    // Phase 1 (sequential planning): draw / adapt / admit in slot order
    // (engine/dispatch.hpp), booking failures at once. The round RNG is drawn
    // in the same order whatever the shard count, so the cohort and every
    // failure do not depend on the sharding; transport draws use per-(round,
    // client) Sessions. Time base: the shard's clock. Lifecycle ids are
    // sequential (thread- and shard-count invariant); version is round - 1.
    std::vector<engine::Dispatch> work;
    work.reserve(config_.clients_per_round);
    // Per shard, the longest session lost on the downlink: it trains nothing
    // but still advances the shard's clock.
    std::vector<double> lost_downlink(shards_, 0.0);
    for (std::size_t slot = 0; slot < config_.clients_per_round; ++slot) {
      engine::Dispatch d;
      d.slot.round = round;
      d.slot.slot = slot;
      {
        AFL_PROF_SPAN("engine.select");
        if (!dispatcher.draw(d.slot, rng)) break;  // no client available this round
      }
      {
        AFL_PROF_SPAN("engine.adapt");
        policy.adapt(d.slot);
      }
      const std::size_t shard = shard_of(d.slot.client);
      d.shard = sharded_ ? static_cast<int>(shard) : -1;
      // Ids are drawn only while tracing lifecycles: the counter is snapshot
      // state, so time-less runs keep it at 0.
      d.id = lifecycle.active() ? lifecycle.next_id() : 0;
      d.version = round - 1;
      d.base = clocks[shard].now();
      const engine::Admission admission = dispatcher.admit(d, rng, round);
      if (!admission.failure) {
        work.push_back(std::move(d));
        continue;
      }
      if (*admission.failure == DispatchFailure::kLostDownlink) {
        lost_downlink[shard] = std::max(lost_downlink[shard], d.sess.elapsed_seconds());
      }
      dispatcher.fail(d, *admission.failure, *telemetry, admission.at,
                      /*virtual_time=*/-1.0);
    }
    // Divergent identity path: train on the owning shard's model by pointing
    // slot.rx at it (execute() splits rx down to back_index).
    if (divergent && !transport_.enabled()) {
      for (engine::Dispatch& d : work) d.slot.rx = &edges[shard_of(d.slot.client)].model();
    }

    // Phase 2 (parallel execution): per-slot work runs on the pool with a
    // RNG derived WITHOUT the shard word, so neither the thread count nor the
    // shard count can perturb training randomness.
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
        engine::Dispatch& d = work[i];
        Rng crng = Rng::derive(config_.seed, d.slot.round, d.slot.client);
        d.outcome = policy.execute(d.slot, crng);
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
      double shard_elapsed = lost_downlink[shard];
      for (std::size_t i = 0; i < work.size(); ++i) {
        engine::Dispatch& d = work[i];
        const ClientSlot& s = d.slot;
        if (shard_of(s.client) != shard) continue;
        std::size_t bytes_up = 0;
        if (transport_.enabled()) {
          // Uplink on the session clock that holds the downlink and compute.
          // Updates lost after all retries, or delivered past the round
          // deadline (stragglers), are never aggregated.
          const engine::Uplink up = dispatcher.send_update(d, /*reupload_backoff_s=*/0.0);
          const double uplink_end = shard_base + d.sess.elapsed_seconds();
          lifecycle.phase(d.id, engine::kPhaseUplink, shard_base + up.start_elapsed,
                          uplink_end, up.attempts, up.backoff_seconds, up.bytes);
          shard_elapsed = std::max(shard_elapsed, d.sess.elapsed_seconds());
          bytes_up = up.bytes;
          if (!up.delivered || (deadline > 0.0 && d.sess.elapsed_seconds() > deadline)) {
            dispatcher.fail(
                d, up.delivered ? DispatchFailure::kDeadline : DispatchFailure::kLostUplink,
                *telemetry, uplink_end, /*virtual_time=*/-1.0);
            continue;
          }
          lifecycle.arrived(d.id, uplink_end);
          dispatcher.decode_update(d);
        }
        result.comm.record_return(s.params_back);
        telemetry->add_train_seconds(d.outcome.stats.seconds);
        telemetry->client_ok();
        queue_hist.record(queue_seconds[i]);
        train_hist.record(exec_seconds[i]);
        if (obs::trace_enabled()) {
          obs::TraceEvent ev("dispatch");
          engine::dispatch_fields(ev, d, "ok");
          ev.field("back", static_cast<std::uint64_t>(s.back_index))
              .field("params_back", static_cast<std::uint64_t>(s.params_back))
              .field("train_ms", d.outcome.stats.seconds * 1e3)
              .field("dur_ms", exec_seconds[i] * 1e3);
          if (sharded_ && transport_.enabled()) {
            ev.field("bytes_down", static_cast<std::uint64_t>(d.down_bytes))
                .field("bytes_up", static_cast<std::uint64_t>(bytes_up));
          }
          ev.emit();
        }
        if (sharded_) {
          edges[shard].add(
              ClientUpdate{std::move(d.outcome.params), d.outcome.samples});
        } else {
          policy.commit(s, std::move(d.outcome));
        }
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
