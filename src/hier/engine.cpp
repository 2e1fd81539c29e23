#include "hier/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl::hier {

using engine::publish_run_status;
using engine::record_transfer;
using engine::trace_dispatch_failure;
using engine::trace_eval_point;
using engine::trace_run_end;
using engine::trace_run_start;

EdgeAggregator::EdgeAggregator(std::size_t shard, const ParamSet& global,
                               bool track_local_model)
    : shard_(shard), agg_(global), track_local_model_(track_local_model) {
  if (track_local_model_) model_ = global;
}

void EdgeAggregator::set_model(const ParamSet& global) {
  if (track_local_model_) model_ = global;
}

std::size_t EdgeAggregator::end_round() {
  ShardPartial part = agg_.take_partial();
  const std::size_t updates = part.updates;
  if (track_local_model_ && updates > 0) {
    // Divergent mode: the shard advances its own model every round; elements
    // its clients did not cover keep the shard's previous value.
    model_ = finalize_partial(part, model_);
  }
  merge_partials(window_, std::move(part));
  return updates;
}

ShardPartial EdgeAggregator::take_window() {
  ShardPartial out = std::move(window_);
  window_ = ShardPartial{};
  return out;
}

void RootMerger::absorb(ShardPartial&& partial) {
  merge_partials(window_, std::move(partial));
}

ParamSet RootMerger::commit(const ParamSet& base) {
  ParamSet next = finalize_partial(window_, base);
  window_ = ShardPartial{};
  return next;
}

HierEngine::HierEngine(const FlRunConfig& config, const HierConfig& hier,
                       const std::vector<DeviceSim>* devices,
                       const pop::Population* population)
    : config_(config),
      hier_(hier),
      devices_(devices),
      population_(population),
      threads_(config.threads > 0 ? config.threads
                                  : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (hier_.shards == 0) hier_.shards = 1;
  if (hier_.sync_every == 0) hier_.sync_every = 1;
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult HierEngine::run(HierRoundPolicy& policy) {
  const std::size_t num_shards = hier_.shards;
  const std::size_t sync_every = hier_.sync_every;
  const bool divergent = sync_every > 1;

  Stopwatch watch;
  RunResult result;
  result.algorithm = policy.algorithm_name();

  obs::ensure_default_http_server();
  trace_run_start(result, config_, threads_, transport_, "hier", num_shards,
                  sync_every, population_);
  publish_run_status(result, 0, config_.rounds, 0.0, threads_, /*active=*/true);

  ThreadPool pool(threads_);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  obs::metrics().gauge("afl.hier.shards").set(static_cast<double>(num_shards));
  obs::metrics().gauge("afl.hier.sync_every").set(static_cast<double>(sync_every));
  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");
  static obs::Histogram& merge_hist =
      obs::metrics().histogram("afl.hier.merge.seconds");
  static obs::Histogram& shard_updates_hist =
      obs::metrics().histogram("afl.hier.shard.round.updates");
  static obs::Counter& syncs_counter = obs::metrics().counter("afl.hier.syncs");

  Rng rng(config_.seed);
  policy.init_global(rng);

  const auto shard_of = [num_shards](std::size_t client) {
    return client % num_shards;
  };

  std::vector<EdgeAggregator> edges;
  edges.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    edges.emplace_back(s, policy.hier_global(), divergent);
  }
  RootMerger root;
  // Base of the current sync window: the global at the last root commit.
  // Elements no shard covered during the window fall through to it.
  ParamSet synced_global = divergent ? policy.hier_global() : ParamSet{};

  double sim_total = 0.0;

  // Dispatch-lifecycle tracing (afl.trace.v2): each dispatch's timebase is
  // its owning edge's virtual clock, so phases from diverging shards land on
  // one run-global timeline. Active only when the run models time.
  engine::LifecycleTracker lifecycle(transport_.enabled());
  const engine::TimeBaseFn time_base = [&](std::size_t client) {
    return edges[shard_of(client)].clock().now();
  };

  // Sparsifying uplink + error feedback (src/compress/, docs/COMPRESSION.md).
  // Residual rows are per-client and clients map to exactly one shard, so the
  // shard-major commit order below cannot perturb the store's final state —
  // sync_every=1 sharded runs stay bit-identical to the flat engine.
  compress::Compressor compressor(transport_, compress::CompressConfig::from_env());

  // Snapshot/resume (docs/POPULATION.md): only root-sync boundaries are
  // snapshottable — edge and root merge windows are empty there, and in
  // divergent mode every edge model was just reset to the synced global, so
  // the file needs only the edge clocks plus the policy's own state.
  const engine::SnapshotPlan snap = engine::SnapshotPlan::resolve(config_);
  std::size_t start_round = 1;
  if (snap.resume_enabled()) {
    SnapshotReader reader(snap.resume_from);
    const std::size_t at = engine::read_header(reader, engine::kHierSnapshotFormat,
                                               config_, result.algorithm);
    engine::read_result(reader, result);
    engine::read_rng(reader, rng);
    sim_total = reader.f64();
    lifecycle.set_last_id(reader.u64());
    const std::uint64_t n_edges = reader.u64();
    if (n_edges != num_shards) {
      throw std::runtime_error(
          "snapshot: shard count mismatch (file has " + std::to_string(n_edges) +
          " edges, run has " + std::to_string(num_shards) + ")");
    }
    for (EdgeAggregator& edge : edges) edge.clock().restore(reader.f64());
    if (compressor.enabled()) compressor.restore(reader);
    policy.restore_state(reader);
    reader.expect_end();
    if (divergent) {
      // At a sync boundary every edge tracks the freshly synced global.
      synced_global = policy.hier_global();
      for (EdgeAggregator& edge : edges) edge.set_model(synced_global);
    }
    start_round = at + 1;
  }

  for (std::size_t round = start_round; round <= config_.rounds; ++round) {
    std::optional<RoundTelemetry> telemetry(std::in_place, result, round);
    telemetry->set_net_enabled(transport_.enabled());
    if (population_ != nullptr) {
      engine::trace_churn(round, population_->round_churn(round));
    }
    policy.begin_round(round, rng);

    // Phase 1: the same sequential planning pass as the flat engine — one
    // global selector, identical RNG draw order (see engine/plan.hpp). In
    // divergent mode the wire carries the owning shard's local model.
    engine::DispatchPayloadFn payload;  // null: split from the root global
    if (divergent && transport_.enabled()) {
      payload = [&](const ClientSlot& s) {
        return policy.hier_dispatch_params(s, edges[shard_of(s.client)].model());
      };
    }
    engine::RoundPlan plan = engine::plan_round(
        policy, config_, devices_, transport_, round, rng, result, *telemetry,
        payload,
        [&](std::size_t client) { return static_cast<int>(shard_of(client)); },
        &lifecycle, time_base, /*version=*/static_cast<long long>(round) - 1);
    std::vector<ClientSlot>& work = plan.work;
    if (compressor.enabled()) {
      for (const std::size_t client : plan.departed) compressor.on_departed(client);
    }

    // Divergent identity path: train on the owning shard's model by pointing
    // slot.rx at it (execute() splits rx down to back_index).
    if (divergent && !transport_.enabled()) {
      for (ClientSlot& s : work) s.rx = &edges[shard_of(s.client)].model();
    }

    // Phase 2 (parallel execution): the shared pool spans all shards; the
    // per-client streams are derived WITHOUT the shard word, so the shard
    // count can never perturb training randomness.
    std::vector<TrainOutcome> outcomes(work.size());
    std::vector<double> queue_seconds(work.size(), 0.0);
    std::vector<double> exec_seconds(work.size(), 0.0);
    Stopwatch exec_watch;
    {
      AFL_PROF_SPAN("engine.train");
      pool.parallel_for(work.size(), [&](std::size_t i) {
        AFL_PROF_SPAN("engine.client_train");
        queue_seconds[i] = exec_watch.seconds();
        Stopwatch item_watch;
        Rng crng = Rng::derive(config_.seed, work[i].round, work[i].client);
        outcomes[i] = policy.execute(work[i], crng);
        exec_seconds[i] = item_watch.seconds();
      });
    }
    const double exec_wall = exec_watch.seconds();

    // Phase 3 (sequential commit): shard-major, slot order within each
    // shard. Each slot's update folds straight into its edge's coverage
    // mass — by rvalue, so no ParamSet is ever duplicated.
    const double deadline = transport_.config().round_deadline_s;
    double round_elapsed_max = 0.0;  // slowest client across all shards
    for (std::size_t shard = 0; shard < num_shards; ++shard) {
      EdgeAggregator& edge = edges[shard];
      const double shard_base = edge.clock().now();  // round start of this edge
      double shard_elapsed = 0.0;
      for (std::size_t i = 0; i < work.size(); ++i) {
        const ClientSlot& s = work[i];
        if (shard_of(s.client) != shard) continue;
        std::size_t bytes_up = 0;
        if (transport_.enabled()) {
          net::Transport::Session& sess = plan.sessions[i];
          const std::size_t lc_id =
              sess.dispatch_id() >= 0
                  ? static_cast<std::size_t>(sess.dispatch_id())
                  : 0;
          const double down_end = sess.elapsed_seconds();
          sess.clock().charge_compute(transport_.compute_seconds(s.params_back));
          const double compute_end = sess.elapsed_seconds();
          ParamSet upref;
          if (compressor.enabled()) {
            upref = policy.upload_reference(s);
            compressor.encode_update(s.client, outcomes[i].params, upref);
          }
          net::Delivery up = transport_.send(sess, net::FrameKind::kReturn,
                                             outcomes[i].params, s.params_back);
          record_transfer(result.comm, up.transfer, /*uplink=*/true);
          const double uplink_end = sess.elapsed_seconds();
          if (lifecycle.active()) {
            lifecycle.phase(lc_id, engine::kPhaseCompute,
                            shard_base + down_end, shard_base + compute_end);
            lifecycle.phase(lc_id, engine::kPhaseUplink,
                            shard_base + compute_end, shard_base + uplink_end,
                            up.transfer.attempts, up.transfer.backoff_seconds,
                            up.transfer.bytes);
          }
          shard_elapsed = std::max(shard_elapsed, sess.elapsed_seconds());
          bytes_up = up.transfer.bytes;
          if (!up.transfer.delivered) {
            ++result.failed_trainings;
            result.comm.record_drop();
            obs::metrics().counter("afl.net.drops").inc();
            telemetry->client_failed();
            trace_dispatch_failure(s, "lost_uplink", -1.0,
                                   static_cast<int>(shard));
            lifecycle.drop(lc_id, "lost_uplink", shard_base + uplink_end);
            compressor.reclaim(s.client, outcomes[i].params);
            policy.on_transport_failure(s);
            continue;
          }
          if (transport_.config().round_deadline_s > 0.0 &&
              sess.elapsed_seconds() > transport_.config().round_deadline_s) {
            ++result.failed_trainings;
            result.comm.record_straggler();
            obs::metrics().counter("afl.net.stragglers").inc();
            telemetry->client_failed();
            trace_dispatch_failure(s, "deadline", -1.0,
                                   static_cast<int>(shard));
            lifecycle.drop(lc_id, "deadline", shard_base + uplink_end);
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
              .field("outcome", "ok")
              .field("shard", static_cast<std::uint64_t>(shard))
              .field("back", static_cast<std::uint64_t>(s.back_index))
              .field("params_back", static_cast<std::uint64_t>(s.params_back))
              .field("train_ms", outcomes[i].stats.seconds * 1e3)
              .field("dur_ms", exec_seconds[i] * 1e3);
          if (transport_.enabled()) {
            ev.field("bytes_down",
                     static_cast<std::uint64_t>(plan.down_bytes[i]))
                .field("bytes_up", static_cast<std::uint64_t>(bytes_up));
          }
          ev.emit();
        }
        edge.round_aggregator().add(
            ClientUpdate{std::move(outcomes[i].params), outcomes[i].samples});
      }
      for (const auto& [client, elapsed] : plan.failed_downlink_seconds) {
        if (shard_of(client) == shard) {
          shard_elapsed = std::max(shard_elapsed, elapsed);
        }
      }
      round_elapsed_max = std::max(round_elapsed_max, shard_elapsed);
      if (transport_.enabled()) {
        // The edge's round ends at its own slowest client (deadline-capped):
        // shards progress independently between syncs.
        const double shard_round =
            deadline > 0.0 ? std::min(deadline, shard_elapsed) : shard_elapsed;
        edge.clock().advance_to(edge.clock().now() + shard_round);
        // The edge's round barrier commits this shard's buffered updates.
        lifecycle.commit_window(edge.clock().now(), static_cast<int>(shard),
                                static_cast<long long>(round));
      }
    }
    if (!work.empty() && exec_wall > 0.0) {
      double busy = 0.0;
      for (double s : exec_seconds) busy += s;
      obs::metrics()
          .gauge("afl.engine.pool.utilization")
          .set(busy / (exec_wall * static_cast<double>(pool.size())));
    }

    // Phase 4 (edge fold + root sync when due).
    const bool sync_round = (round % sync_every == 0) || round == config_.rounds;
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      for (EdgeAggregator& edge : edges) {
        shard_updates_hist.record(static_cast<double>(edge.end_round()));
      }
      if (sync_round) {
        Stopwatch merge_watch;
        for (EdgeAggregator& edge : edges) root.absorb(edge.take_window());
        const ParamSet& base = divergent ? synced_global : policy.hier_global();
        policy.hier_set_global(root.commit(base));
        if (divergent) {
          synced_global = policy.hier_global();
          for (EdgeAggregator& edge : edges) edge.set_model(synced_global);
        }
        syncs_counter.inc();
        merge_hist.record(merge_watch.seconds());
        if (transport_.enabled()) {
          // A root sync is a barrier: every edge clock aligns at the maximum.
          double vmax = 0.0;
          for (EdgeAggregator& edge : edges) {
            vmax = std::max(vmax, edge.clock().now());
          }
          for (std::size_t s = 0; s < edges.size(); ++s) {
            const double before = edges[s].clock().now();
            if (before < vmax) {
              lifecycle.root_wait(round, static_cast<int>(s), before, vmax);
            }
            edges[s].clock().advance_to(vmax);
          }
          lifecycle.root_merge(round, vmax);
        }
        obs::sample_rss();
      }
      telemetry->add_aggregate_seconds(agg_watch.seconds());
    }
    policy.end_round(round, *telemetry);

    if (transport_.enabled()) {
      const double round_sim = deadline > 0.0
                                   ? std::min(deadline, round_elapsed_max)
                                   : round_elapsed_max;
      double vmax = 0.0;
      for (EdgeAggregator& edge : edges) {
        vmax = std::max(vmax, edge.clock().now());
      }
      sim_total = vmax;
      telemetry->set_sim_time(round_sim, sim_total);
    }

    // Eval only on sync rounds (between syncs the root global is stale); with
    // sync_every == 1 this is exactly the flat engine's cadence.
    if (sync_round && config_.eval_every != 0 &&
        (round % config_.eval_every == 0 || round == config_.rounds)) {
      AFL_PROF_SPAN("engine.evaluate");
      Stopwatch eval_watch;
      policy.evaluate(round, result, pool);
      result.curve.push_back({round, result.final_full_acc, result.final_avg_acc,
                              result.comm.waste_rate(),
                              result.comm.round_waste_rate()});
      telemetry->add_eval_seconds(eval_watch.seconds());
      if (transport_.enabled()) {
        result.note_time_to_acc(result.final_full_acc, sim_total, round);
        trace_eval_point(round, sim_total, result.final_full_acc,
                         result.final_avg_acc);
      }
    }
    telemetry.reset();  // flush this round's metrics record
    publish_run_status(result, round, config_.rounds, watch.seconds(), threads_,
                       /*active=*/round < config_.rounds, &lifecycle.blame());

    // Snapshots (and stop-after) fire only on sync rounds: between syncs the
    // edge windows hold un-merged coverage mass that the format deliberately
    // does not carry.
    if (sync_round && snap.due(round)) {
      SnapshotWriter w(snap.snapshot_path);
      engine::write_header(w, engine::kHierSnapshotFormat, config_,
                           result.algorithm, round);
      engine::write_result(w, result);
      engine::write_rng(w, rng);
      w.f64(sim_total);
      w.u64(lifecycle.last_id());
      w.u64(edges.size());
      for (EdgeAggregator& edge : edges) w.f64(edge.clock().now());
      if (compressor.enabled()) compressor.snapshot(w);
      policy.snapshot_state(w);
      w.finish();
    }
    if (sync_round && snap.stop_after(round)) {
      result.wall_seconds = watch.seconds();
      result.sim_seconds = sim_total;
      publish_run_status(result, round, config_.rounds, result.wall_seconds,
                         threads_, /*active=*/false, &lifecycle.blame());
      trace_run_end(result, transport_);
      return result;
    }
  }

  if (result.curve.empty()) {
    policy.evaluate(config_.rounds, result, pool);
    result.curve.push_back({config_.rounds, result.final_full_acc,
                            result.final_avg_acc, result.comm.waste_rate(),
                            result.comm.round_waste_rate()});
  }
  result.wall_seconds = watch.seconds();
  result.sim_seconds = sim_total;
  obs::sample_rss();
  publish_run_status(result, config_.rounds, config_.rounds,
                     result.wall_seconds, threads_, /*active=*/false,
                     &lifecycle.blame());
  trace_run_end(result, transport_);
  return result;
}

}  // namespace afl::hier
