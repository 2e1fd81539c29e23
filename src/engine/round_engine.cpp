#include "engine/round_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
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

namespace afl {

using engine::publish_run_status;
using engine::record_transfer;
using engine::trace_dispatch_failure;
using engine::trace_eval_point;
using engine::trace_run_end;
using engine::trace_run_start;

RoundEngine::RoundEngine(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                         const pop::Population* population)
    : config_(config),
      devices_(devices),
      population_(population),
      threads_(config.threads > 0 ? config.threads : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult RoundEngine::run(RoundPolicy& policy) {
  Stopwatch watch;
  RunResult result;
  result.algorithm = policy.algorithm_name();

  obs::ensure_default_http_server();
  trace_run_start(result, config_, threads_, transport_, /*mode=*/nullptr,
                  /*shards=*/0, /*sync_every=*/0, population_);
  publish_run_status(result, 0, config_.rounds, 0.0, threads_, /*active=*/true);

  ThreadPool pool(threads_);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  static obs::Histogram& queue_hist =
      obs::metrics().histogram("afl.engine.client.queue.seconds");
  static obs::Histogram& train_hist =
      obs::metrics().histogram("afl.engine.client.train.seconds");

  Rng rng(config_.seed);
  policy.init_global(rng);

  // Simulated run clock: with a transport configured each round takes as long
  // as its slowest client's session (capped by the round deadline — the
  // server stops waiting there), and rounds are serial.
  double sim_total = 0.0;

  // Dispatch-lifecycle tracing (afl.trace.v2): active only when the run
  // models time, so transportless traces stay byte-identical to v1 builds.
  engine::LifecycleTracker lifecycle(transport_.enabled());
  const engine::TimeBaseFn time_base = [&](std::size_t) { return sim_total; };

  // Sparsifying uplink + error feedback (src/compress/, docs/COMPRESSION.md).
  // Disabled unless the transport's uplink codec is top-k; disabled it is a
  // pure no-op and runs stay byte-identical.
  compress::Compressor compressor(transport_, compress::CompressConfig::from_env());

  // Snapshot/resume (docs/POPULATION.md). Resume restores the partial
  // result, round RNG, simulated clock, lifecycle id counter, and policy
  // state over the freshly built structure from init_global(), so round
  // k+1 starts bit-identically to the uninterrupted run.
  const engine::SnapshotPlan snap = engine::SnapshotPlan::resolve(config_);
  std::size_t start_round = 1;
  if (snap.resume_enabled()) {
    SnapshotReader reader(snap.resume_from);
    const std::size_t at = engine::read_header(reader, engine::kSyncSnapshotFormat,
                                               config_, result.algorithm);
    engine::read_result(reader, result);
    engine::read_rng(reader, rng);
    sim_total = reader.f64();
    lifecycle.set_last_id(reader.u64());
    if (compressor.enabled()) compressor.restore(reader);
    policy.restore_state(reader);
    reader.expect_end();
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
    // shared-state feedback happens here, in slot order. Transport draws use
    // per-(round, client) Sessions, so they never perturb the round RNG.
    // Shared with the hierarchical engine (engine/plan.hpp).
    engine::RoundPlan plan = engine::plan_round(
        policy, config_, devices_, transport_, round, rng, result, *telemetry,
        /*payload=*/nullptr, /*shard_of=*/nullptr, &lifecycle, time_base,
        /*version=*/static_cast<long long>(round) - 1);
    std::vector<ClientSlot>& work = plan.work;
    std::vector<net::Transport::Session>& sessions = plan.sessions;
    if (compressor.enabled()) {
      for (const std::size_t client : plan.departed) compressor.on_departed(client);
    }
    double round_clock_max = 0.0;  // slowest client session this round
    for (const auto& [client, elapsed] : plan.failed_downlink_seconds) {
      (void)client;
      round_clock_max = std::max(round_clock_max, elapsed);
    }

    // Phase 2 (parallel execution): per-slot work runs on the pool with a
    // derived RNG; nothing here touches shared mutable state.
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

    // Phase 3 (sequential commit, slot order): uploads, comm accounting,
    // telemetry, traces.
    for (std::size_t i = 0; i < work.size(); ++i) {
      const ClientSlot& s = work[i];
      if (transport_.enabled()) {
        // Uplink: the trained update crosses the channel on the same session
        // clock as the downlink, plus a deterministic compute term. Updates
        // lost after all retries, or delivered past the round deadline
        // (stragglers), never reach commit()/aggregate().
        net::Transport::Session& sess = sessions[i];
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
        if (lifecycle.active()) {
          lifecycle.phase(lc_id, engine::kPhaseCompute, sim_total + down_end,
                          sim_total + compute_end);
          lifecycle.phase(lc_id, engine::kPhaseUplink, sim_total + compute_end,
                          sim_total + uplink_end, up.transfer.attempts,
                          up.transfer.backoff_seconds, up.transfer.bytes);
        }
        round_clock_max = std::max(round_clock_max, sess.elapsed_seconds());
        if (!up.transfer.delivered) {
          ++result.failed_trainings;
          result.comm.record_drop();
          obs::metrics().counter("afl.net.drops").inc();
          telemetry->client_failed();
          trace_dispatch_failure(s, "lost_uplink");
          lifecycle.drop(lc_id, "lost_uplink", sim_total + uplink_end);
          // Error feedback: the discarded masked delta returns to the
          // client's residual so its mass ships with the next update.
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
          trace_dispatch_failure(s, "deadline");
          lifecycle.drop(lc_id, "deadline", sim_total + uplink_end);
          compressor.reclaim(s.client, outcomes[i].params);
          policy.on_transport_failure(s);
          continue;
        }
        lifecycle.arrived(lc_id, sim_total + uplink_end);
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
            .field("back", static_cast<std::uint64_t>(s.back_index))
            .field("params_back", static_cast<std::uint64_t>(s.params_back))
            .field("train_ms", outcomes[i].stats.seconds * 1e3)
            .field("dur_ms", exec_seconds[i] * 1e3);
        ev.emit();
      }
      policy.commit(s, std::move(outcomes[i]));
    }
    if (!work.empty() && exec_wall > 0.0) {
      double busy = 0.0;
      for (double s : exec_seconds) busy += s;
      obs::metrics()
          .gauge("afl.engine.pool.utilization")
          .set(busy / (exec_wall * static_cast<double>(pool.size())));
    }

    // Phase 4 (aggregate + eval): sequential.
    {
      AFL_PROF_SPAN("engine.aggregate");
      Stopwatch agg_watch;
      policy.aggregate(round);
      telemetry->add_aggregate_seconds(agg_watch.seconds());
    }
    policy.end_round(round, *telemetry);

    if (transport_.enabled()) {
      const double deadline = transport_.config().round_deadline_s;
      const double round_sim = deadline > 0.0
                                   ? std::min(deadline, round_clock_max)
                                   : round_clock_max;
      sim_total += round_sim;
      telemetry->set_sim_time(round_sim, sim_total);
      // The round barrier is the commit instant of every buffered update:
      // buffer_wait runs from each arrival to here.
      lifecycle.commit_window(sim_total, /*commit_shard=*/-1,
                              /*commit_version=*/static_cast<long long>(round));
    }

    if (config_.eval_every != 0 &&
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
    obs::sample_rss();  // same per-boundary memory cadence as async/hier
    publish_run_status(result, round, config_.rounds, watch.seconds(), threads_,
                       /*active=*/round < config_.rounds, &lifecycle.blame());

    if (snap.due(round)) {
      SnapshotWriter w(snap.snapshot_path);
      engine::write_header(w, engine::kSyncSnapshotFormat, config_,
                           result.algorithm, round);
      engine::write_result(w, result);
      engine::write_rng(w, rng);
      w.f64(sim_total);
      w.u64(lifecycle.last_id());
      if (compressor.enabled()) compressor.snapshot(w);
      policy.snapshot_state(w);
      w.finish();
    }
    if (snap.stop_after(round)) {
      // Killed-at-round-k semantics: hand back the partial result; a later
      // run resumes from the snapshot and reproduces the full run exactly.
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
  publish_run_status(result, config_.rounds, config_.rounds,
                     result.wall_seconds, threads_, /*active=*/false,
                     &lifecycle.blame());
  trace_run_end(result, transport_);
  return result;
}

}  // namespace afl
