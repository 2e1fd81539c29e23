#include "async/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "async/aggregator.hpp"
#include "async/virtual_clock.hpp"
#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace afl::async {
namespace {

/// Why a dispatch's kFailure event was scheduled. Enumerator order is part of
/// the snapshot format (serialized as an integer) — append only.
enum class FailKind {
  kNoResponse,
  kAdaptFailed,
  kLostDownlink,
  kLostUplink,
  kDeparted,  // population churn: client left the fleet (docs/POPULATION.md)
  kWentDark,  // population churn: client temporarily unreachable
};

/// One in-flight dispatch, keyed by its dispatch id. Stored in a std::map so
/// training waves iterate in dispatch order (determinism).
struct Pending {
  ClientSlot slot;
  net::Transport::Session sess;
  std::unique_ptr<ParamSet> rx;  // decoded downlink payload (slot.rx target)
  TrainOutcome outcome;
  bool accepted = false;  // survived availability / adapt / downlink
  bool trained = false;
  std::size_t version = 0;  // global version the dispatch was split from
  double dispatch_time = 0.0;
  std::size_t reuploads_left = 0;
  FailKind fail = FailKind::kNoResponse;
  /// Sparse uplink (src/compress/): the reference the masked delta was coded
  /// against, frozen at encode time so async staleness cannot skew decoding.
  std::unique_ptr<ParamSet> upref;
};

// ---- Pending serialization (engine snapshots, docs/POPULATION.md) ---------
// A snapshot is cut at a flush boundary, so the aggregation buffer is empty
// but up to `concurrency` dispatches are mid-flight: their slots, channel
// sessions (RNG position + clock), decoded downlinks, and — when the lazy
// training wave already ran — trained outcomes all have to survive verbatim
// for the resumed event sequence to be bit-identical.

void write_slot(SnapshotWriter& w, const ClientSlot& s) {
  w.u64(s.round);
  w.u64(s.slot);
  w.u64(s.client);
  w.u64(s.capacity);
  w.u64(s.sent_index);
  w.u64(s.params_sent);
  w.u64(s.trainable ? 1 : 0);
  w.u64(s.back_index);
  w.u64(s.params_back);
}

void read_slot(SnapshotReader& r, ClientSlot& s) {
  s.round = r.u64();
  s.slot = r.u64();
  s.client = r.u64();
  s.capacity = r.u64();
  s.sent_index = r.u64();
  s.params_sent = r.u64();
  s.trainable = r.u64() != 0;
  s.back_index = r.u64();
  s.params_back = r.u64();
}

void write_pending(SnapshotWriter& w, std::size_t id, const Pending& p,
                   bool compress_on) {
  w.u64(id);
  write_slot(w, p.slot);
  const Rng::State st = p.sess.rng_state();
  for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
  w.u64(st.has_cached_normal ? 1 : 0);
  w.f64(st.cached_normal);
  w.u64(p.sess.round());
  w.u64(p.sess.client());
  w.f64(p.sess.elapsed_seconds());
  w.u64(p.sess.clock().compute_charged() ? 1 : 0);
  w.u64(p.version);
  w.f64(p.dispatch_time);
  w.u64(p.reuploads_left);
  w.u64(p.accepted ? 1 : 0);
  w.u64(p.trained ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(p.fail));
  w.u64(p.rx ? 1 : 0);
  if (p.rx) w.params(*p.rx);
  if (p.trained) {
    // stats.seconds (wall-clock training time) stays out: identical logical
    // state must give identical bytes, and it only feeds round_metrics.
    w.params(p.outcome.params);
    w.u64(p.outcome.samples);
    w.f64(p.outcome.stats.mean_loss);
    w.u64(p.outcome.stats.samples_seen);
  }
  if (compress_on) {
    // Written only when compression is active, so uncompressed snapshots
    // stay byte-identical to pre-compression builds.
    w.u64(p.upref ? 1 : 0);
    if (p.upref) w.params(*p.upref);
  }
}

std::size_t read_pending(SnapshotReader& r, Pending& p, bool compress_on) {
  const std::size_t id = static_cast<std::size_t>(r.u64());
  read_slot(r, p.slot);
  Rng::State st;
  for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
  st.has_cached_normal = r.u64() != 0;
  st.cached_normal = r.f64();
  const std::size_t sess_round = r.u64();
  const std::size_t sess_client = r.u64();
  const double elapsed = r.f64();
  const bool compute_charged = r.u64() != 0;
  p.sess.restore(sess_round, sess_client, st, elapsed, compute_charged);
  p.version = r.u64();
  p.dispatch_time = r.f64();
  p.reuploads_left = r.u64();
  p.accepted = r.u64() != 0;
  p.trained = r.u64() != 0;
  p.fail = static_cast<FailKind>(r.u64());
  p.sess.set_lifecycle_tags(static_cast<long long>(id), -1,
                            static_cast<long long>(p.version));
  if (r.u64() != 0) {
    p.rx = std::make_unique<ParamSet>(r.params());
    p.slot.rx = p.rx.get();
  }
  if (p.trained) {
    p.outcome.params = r.params();
    p.outcome.samples = r.u64();
    p.outcome.stats.mean_loss = r.f64();
    p.outcome.stats.samples_seen = r.u64();
    p.outcome.stats.seconds = 0.0;
  }
  if (compress_on && r.u64() != 0) {
    p.upref = std::make_unique<ParamSet>(r.params());
  }
  return id;
}

}  // namespace

AsyncEngine::AsyncEngine(const FlRunConfig& config, AsyncConfig async,
                         const std::vector<DeviceSim>* devices,
                         const pop::Population* population)
    : config_(config),
      async_(async),
      devices_(devices),
      population_(population),
      threads_(config.threads > 0 ? config.threads
                                  : ThreadPool::threads_from_env()),
      transport_(config.net ? *config.net : net::NetConfig::from_env(),
                 config.seed) {
  if (async_.buffer_size == 0) async_.buffer_size = config_.clients_per_round;
  if (async_.buffer_size == 0) async_.buffer_size = 1;
  if (async_.concurrency == 0) async_.concurrency = 2 * async_.buffer_size;
  if (devices_ != nullptr) {
    async_.concurrency = std::min(async_.concurrency, devices_->size());
  }
  if (population_ != nullptr && population_->has_channels()) {
    transport_.set_client_channels(population_->channels());
  }
}

RunResult AsyncEngine::run(AsyncRoundPolicy& policy) {
  Stopwatch watch;
  RunResult result;
  result.algorithm = policy.algorithm_name() + "+Async";

  obs::ensure_default_http_server();
  engine::trace_run_start(result, config_, threads_, transport_, "async",
                          /*shards=*/0, /*sync_every=*/0, population_);
  engine::publish_run_status(result, 0, config_.rounds, 0.0, threads_,
                             /*active=*/true);

  ThreadPool pool(threads_);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  static obs::Histogram& occupancy_hist =
      obs::metrics().histogram("afl.async.buffer.occupancy");
  static obs::Histogram& staleness_hist =
      obs::metrics().histogram("afl.async.staleness");
  obs::Gauge& version_gauge = obs::metrics().gauge("afl.async.version");
  obs::Counter& flush_counter = obs::metrics().counter("afl.async.flushes");
  obs::Counter& dispatch_counter = obs::metrics().counter("afl.async.dispatches");
  obs::Counter& stale_counter = obs::metrics().counter("afl.async.stale.discards");

  Rng rng(config_.seed);
  policy.init_global(rng);
  policy.begin_async(devices_ != nullptr ? devices_->size() : 0);

  VirtualClock clock;
  EventQueue queue;
  AsyncAggregator agg(async_.buffer_size, async_.staleness_alpha,
                      async_.max_staleness);
  std::map<std::size_t, Pending> pending;
  std::size_t next_dispatch = 1;
  std::size_t flushes = 0;
  double last_flush_time = 0.0;

  // Dispatch-lifecycle tracing (afl.trace.v2): the event engine always
  // models time, so the tracker is unconditionally active. The dispatch
  // counter doubles as the stable lifecycle id (it already keys slot.round).
  engine::LifecycleTracker lifecycle(true);

  // Sparsifying uplink + error feedback (src/compress/, docs/COMPRESSION.md).
  compress::Compressor compressor(transport_,
                                  compress::CompressConfig::from_env());

  // Snapshot/resume (docs/POPULATION.md). Async snapshots are cut at flush
  // boundaries: the buffer is empty, but in-flight dispatches (and their
  // pending events) are captured verbatim so the resumed event sequence —
  // and therefore the RunResult — is bit-identical to the uninterrupted run.
  const engine::SnapshotPlan snap = engine::SnapshotPlan::resolve(config_);
  if (snap.resume_enabled()) {
    SnapshotReader reader(snap.resume_from);
    flushes = engine::read_header(reader, engine::kAsyncSnapshotFormat, config_,
                                  result.algorithm);
    engine::read_result(reader, result);
    engine::read_rng(reader, rng);
    clock.restore(reader.f64());
    last_flush_time = reader.f64();
    next_dispatch = reader.u64();
    agg.restore(reader.u64());
    if (compressor.enabled()) compressor.restore(reader);
    policy.restore_state(reader);
    const std::uint64_t n_pending = reader.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      Pending p;
      const std::size_t id = read_pending(reader, p, compressor.enabled());
      // The client is still in flight: re-mark it busy and reopen its
      // lifecycle record (earlier phases were flushed with the old process;
      // blame attribution restarts, bit-identity of the result does not).
      policy.set_client_busy(p.slot.client, true);
      lifecycle.begin(id, id, p.slot.client, p.dispatch_time, /*shard=*/-1,
                      static_cast<long long>(p.version));
      pending.emplace(id, std::move(p));
    }
    const std::uint64_t n_events = reader.u64();
    std::vector<Event> events(n_events);
    for (Event& e : events) {
      e.time = reader.f64();
      e.dispatch = reader.u64();
      e.client = reader.u64();
      e.seq = reader.u64();
      e.kind = static_cast<EventKind>(reader.u64());
    }
    queue.restore(std::move(events), reader.u64());
    reader.expect_end();
  }

  std::optional<RoundTelemetry> telemetry(std::in_place, result, flushes + 1);
  telemetry->set_net_enabled(transport_.enabled());
  if (population_ != nullptr) {
    // One churn record per flush window — the async analogue of a round.
    engine::trace_churn(flushes + 1, population_->round_churn(flushes + 1));
  }

  // Keeps `concurrency` dispatches in flight. All RNG draws (model/client
  // selection, capacity, availability, transport streams) happen here on the
  // engine thread, in event order.
  auto top_up = [&]() {
    AFL_PROF_SPAN("async.top_up");
    while (pending.size() < async_.concurrency) {
      ClientSlot s;
      s.round = next_dispatch;  // dispatch id doubles as the "round" key
      s.slot = 0;
      if (!policy.select(s, rng)) break;  // every free client is in flight
      if (devices_ != nullptr) {
        if (s.client >= devices_->size()) {
          throw std::logic_error("AsyncEngine: policy selected client " +
                                 std::to_string(s.client) + " outside the fleet");
        }
        s.capacity = (*devices_)[s.client].capacity(rng);
      } else {
        s.capacity = static_cast<std::size_t>(-1);
      }
      policy.adapt(s);
      // Same accounting rule as the synchronous engine: the dispatch is on
      // the wire before the server learns anything about the device.
      result.comm.record_dispatch(s.params_sent);
      dispatch_counter.inc();

      Pending p;
      p.slot = s;
      p.version = agg.version();
      p.dispatch_time = clock.now();
      p.reuploads_left = async_.max_reuploads;
      lifecycle.begin(s.round, s.round, s.client, clock.now(), /*shard=*/-1,
                      static_cast<long long>(p.version));

      if (devices_ != nullptr) {
        // Population churn (src/pop/, docs/POPULATION.md): presence is keyed
        // by the flush window (the async analogue of the sync round). A
        // departed or dark client is dispatched to but never replies; no RNG
        // draw happens for it, so enabling churn never shifts the streams of
        // the clients that are present.
        const PresenceSchedule::State presence =
            (*devices_)[s.client].presence_state(flushes + 1);
        if (presence != PresenceSchedule::State::kPresent) {
          p.fail = presence == PresenceSchedule::State::kAbsent
                       ? FailKind::kDeparted
                       : FailKind::kWentDark;
          if (p.fail == FailKind::kDeparted) compressor.on_departed(s.client);
          queue.push({clock.now() + async_.failure_timeout_s, s.round, s.client,
                      0, EventKind::kFailure});
          pending.emplace(s.round, std::move(p));
          ++next_dispatch;
          continue;
        }
      }
      if (devices_ != nullptr && !(*devices_)[s.client].responds(rng)) {
        p.fail = FailKind::kNoResponse;
        queue.push({clock.now() + async_.failure_timeout_s, s.round, s.client,
                    0, EventKind::kFailure});
        pending.emplace(s.round, std::move(p));
        ++next_dispatch;
        continue;
      }
      if (!s.trainable) {
        p.fail = FailKind::kAdaptFailed;
        queue.push({clock.now() + async_.failure_timeout_s, s.round, s.client,
                    0, EventKind::kFailure});
        pending.emplace(s.round, std::move(p));
        ++next_dispatch;
        continue;
      }
      double ready_at = clock.now();
      if (transport_.enabled()) {
        p.sess = transport_.session(s.round, s.client);
        p.sess.set_lifecycle_tags(static_cast<long long>(s.round), -1,
                                  static_cast<long long>(p.version));
        net::Delivery down =
            transport_.send(p.sess, net::FrameKind::kDispatch,
                            policy.dispatch_params(s), s.params_sent);
        engine::record_transfer(result.comm, down.transfer, /*uplink=*/false);
        lifecycle.phase(s.round, engine::kPhaseDownlink, clock.now(),
                        clock.now() + p.sess.elapsed_seconds(),
                        down.transfer.attempts, down.transfer.backoff_seconds,
                        down.transfer.bytes);
        if (!down.transfer.delivered) {
          p.fail = FailKind::kLostDownlink;
          queue.push({clock.now() + p.sess.elapsed_seconds() +
                          async_.failure_timeout_s,
                      s.round, s.client, 0, EventKind::kFailure});
          pending.emplace(s.round, std::move(p));
          ++next_dispatch;
          continue;
        }
        if (!down.params.empty()) {
          p.rx = std::make_unique<ParamSet>(std::move(down.params));
          p.slot.rx = p.rx.get();
        }
        // Local compute charged exactly once per dispatch (ClientClock):
        // later re-uploads re-pay transfer only, never the training.
        const double down_end = clock.now() + p.sess.elapsed_seconds();
        p.sess.clock().charge_compute(transport_.compute_seconds(s.params_back));
        lifecycle.phase(s.round, engine::kPhaseCompute, down_end,
                        clock.now() + p.sess.elapsed_seconds());
        ready_at += p.sess.elapsed_seconds();
      }
      policy.on_accepted(p.slot);
      p.accepted = true;
      queue.push({ready_at, s.round, s.client, 0, EventKind::kUpload});
      pending.emplace(s.round, std::move(p));
      ++next_dispatch;
    }
  };

  // Lazily trains every accepted, still-untrained dispatch in one parallel
  // wave. Wave membership is a pure function of event order and execute() is
  // pure, so eager-vs-lazy scheduling cannot change any result bit.
  auto train_wave = [&]() {
    std::vector<Pending*> wave;
    for (auto& [id, p] : pending) {
      if (p.accepted && !p.trained) wave.push_back(&p);
    }
    if (wave.empty()) return;
    AFL_PROF_SPAN("async.train_wave");
    pool.parallel_for(wave.size(), [&](std::size_t i) {
      AFL_PROF_SPAN("async.client_train");
      Pending& p = *wave[i];
      Rng crng = Rng::derive(config_.seed, p.slot.round, p.slot.client);
      p.outcome = policy.execute(p.slot, crng);
      p.trained = true;
    });
  };

  // One buffer flush: aggregate, bump the global version, cut a telemetry
  // window, evaluate when due.
  auto do_flush = [&]() {
    AFL_PROF_SPAN("async.flush");
    ++flushes;
    {
      AFL_PROF_SPAN("async.aggregate");
      Stopwatch agg_watch;
      policy.aggregate(flushes);
      telemetry->add_aggregate_seconds(agg_watch.seconds());
    }
    const std::size_t new_version = agg.commit_flush();
    version_gauge.set(static_cast<double>(new_version));
    flush_counter.inc();
    // The buffer flush is the commit instant of every buffered update:
    // buffer_wait runs from each arrival to here.
    lifecycle.commit_window(clock.now(), /*commit_shard=*/-1,
                            static_cast<long long>(new_version));
    obs::sample_rss();  // same memory gauges as the round engine's syncs
    policy.end_round(flushes, *telemetry);
    telemetry->set_sim_time(clock.now() - last_flush_time, clock.now());
    last_flush_time = clock.now();
    if (config_.eval_every != 0 &&
        (flushes % config_.eval_every == 0 || flushes == config_.rounds)) {
      AFL_PROF_SPAN("async.evaluate");
      engine::evaluate_global(policy, flushes, result, pool, &*telemetry,
                              clock.now());
    }
    telemetry.reset();  // flush this window's metrics record
    engine::publish_run_status(result, flushes, config_.rounds, watch.seconds(),
                               threads_, /*active=*/flushes < config_.rounds,
                               &lifecycle.blame());
    if (snap.due(flushes)) {
      SnapshotWriter w(snap.snapshot_path);
      engine::write_header(w, engine::kAsyncSnapshotFormat, config_,
                           result.algorithm, flushes);
      engine::write_result(w, result);
      engine::write_rng(w, rng);
      w.f64(clock.now());
      w.f64(last_flush_time);
      w.u64(next_dispatch);
      w.u64(agg.version());
      if (compressor.enabled()) compressor.snapshot(w);
      policy.snapshot_state(w);
      w.u64(pending.size());
      for (const auto& [id, p] : pending) {  // std::map: dispatch order
        write_pending(w, id, p, compressor.enabled());
      }
      // Events serialize in pop order (the comparator's total order), so two
      // snapshots of the same logical state are byte-identical regardless of
      // the live heap layout.
      std::vector<Event> events = queue.events();
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) { return event_after(b, a); });
      w.u64(events.size());
      for (const Event& e : events) {
        w.f64(e.time);
        w.u64(e.dispatch);
        w.u64(e.client);
        w.u64(e.seq);
        w.u64(static_cast<std::uint64_t>(e.kind));
      }
      w.u64(queue.next_seq());
      w.finish();
    }
    if (flushes < config_.rounds && !snap.stop_after(flushes)) {
      telemetry.emplace(result, flushes + 1);
      telemetry->set_net_enabled(transport_.enabled());
      if (population_ != nullptr) {
        engine::trace_churn(flushes + 1, population_->round_churn(flushes + 1));
      }
    }
  };

  while (flushes < config_.rounds) {
    if (snap.stop_after(flushes)) {
      // Killed-at-flush-k semantics: hand back the partial result; a later
      // run resumes from the snapshot and reproduces the full run exactly.
      telemetry.reset();
      engine::finish_run(result, watch, last_flush_time, flushes,
                         config_.rounds, threads_, lifecycle, transport_);
      return result;
    }
    top_up();
    if (queue.empty()) {
      // Nothing in flight and nothing dispatchable. Flush what the buffer
      // holds; if it is empty too the fleet is exhausted — end the run.
      if (agg.buffered() > 0) {
        do_flush();
        continue;
      }
      break;
    }
    Event e = queue.pop();
    clock.advance_to(e.time);
    auto it = pending.find(e.dispatch);
    if (it == pending.end()) continue;  // defensive; events map 1:1 to pendings
    switch (e.kind) {
      case EventKind::kUpload: {
        Pending& p = it->second;
        if (!p.trained) train_wave();
        double arrive_at = e.time;
        if (transport_.enabled()) {
          if (compressor.enabled() && !p.upref) {
            // Encode exactly once per dispatch: re-uploads re-ship the same
            // masked delta, and a resumed pending keeps its serialized upref.
            p.upref = std::make_unique<ParamSet>(policy.upload_reference(p.slot));
            compressor.encode_update(p.slot.client, p.outcome.params, *p.upref);
          }
          const double before = p.sess.elapsed_seconds();
          std::size_t up_attempts = 0;
          double up_backoff = 0.0;
          net::Delivery up =
              transport_.send(p.sess, net::FrameKind::kReturn, p.outcome.params,
                              p.slot.params_back);
          engine::record_transfer(result.comm, up.transfer, /*uplink=*/true);
          up_attempts += up.transfer.attempts;
          up_backoff += up.transfer.backoff_seconds;
          std::size_t up_bytes = up.transfer.bytes;
          while (!up.transfer.delivered && p.reuploads_left > 0) {
            // The client still holds its trained update: re-send the frame
            // after a backoff. Transfer time accrues; compute does not
            // (ClientClock already charged it).
            --p.reuploads_left;
            p.sess.add_seconds(async_.reupload_backoff_s);
            up_backoff += async_.reupload_backoff_s;
            up = transport_.send(p.sess, net::FrameKind::kReturn,
                                 p.outcome.params, p.slot.params_back);
            engine::record_transfer(result.comm, up.transfer, /*uplink=*/true);
            up_attempts += up.transfer.attempts;
            up_backoff += up.transfer.backoff_seconds;
            up_bytes += up.transfer.bytes;
          }
          const double up_end = e.time + (p.sess.elapsed_seconds() - before);
          lifecycle.phase(e.dispatch, engine::kPhaseUplink, e.time, up_end,
                          up_attempts, up_backoff, up_bytes);
          if (!up.transfer.delivered) {
            p.fail = FailKind::kLostUplink;
            // Error feedback: the lost masked delta returns to the residual.
            compressor.reclaim(p.slot.client, p.outcome.params);
            queue.push({up_end + async_.failure_timeout_s, e.dispatch, e.client,
                        0, EventKind::kFailure});
            break;
          }
          if (!up.params.empty()) p.outcome.params = std::move(up.params);
          arrive_at = up_end;
        }
        queue.push({arrive_at, e.dispatch, e.client, 0, EventKind::kArrival});
        break;
      }
      case EventKind::kArrival: {
        Pending p = std::move(it->second);
        pending.erase(it);
        policy.set_client_busy(p.slot.client, false);
        if (agg.too_stale(p.version)) {
          ++result.failed_trainings;
          stale_counter.inc();
          telemetry->client_failed();
          engine::trace_dispatch_failure(p.slot, "stale", clock.now());
          lifecycle.drop(e.dispatch, "stale", clock.now());
          // Staleness-safe error feedback: the discarded delta's mass is
          // re-deposited instead of lost.
          if (p.upref) compressor.reclaim(p.slot.client, p.outcome.params);
          break;
        }
        lifecycle.arrived(e.dispatch, clock.now());
        const std::size_t tau = agg.staleness(p.version);
        const double scale = agg.weight_scale(p.version);
        result.comm.record_return(p.slot.params_back);
        telemetry->add_train_seconds(p.outcome.stats.seconds);
        telemetry->client_ok();
        staleness_hist.record(static_cast<double>(tau));
        if (obs::trace_enabled()) {
          obs::TraceEvent ev("dispatch");
          ev.field("round", static_cast<std::uint64_t>(p.slot.round))
              .field("client", static_cast<std::uint64_t>(p.slot.client))
              .field("sent", static_cast<std::uint64_t>(p.slot.sent_index))
              .field("params", static_cast<std::uint64_t>(p.slot.params_sent))
              .field("outcome", "ok")
              .field("back", static_cast<std::uint64_t>(p.slot.back_index))
              .field("params_back",
                     static_cast<std::uint64_t>(p.slot.params_back))
              .field("virtual_time", clock.now())
              .field("staleness", static_cast<std::uint64_t>(tau))
              .field("weight_scale", scale)
              .field("train_ms", p.outcome.stats.seconds * 1e3)
              .field("dur_ms", (clock.now() - p.dispatch_time) * 1e3);
          ev.emit();
        }
        if (p.upref) compressor.decode_update(p.outcome.params, *p.upref);
        policy.commit_weighted(p.slot, std::move(p.outcome), scale);
        agg.note_buffered();
        occupancy_hist.record(static_cast<double>(agg.buffered()));
        if (agg.full()) do_flush();
        break;
      }
      case EventKind::kFailure: {
        Pending p = std::move(it->second);
        pending.erase(it);
        policy.set_client_busy(p.slot.client, false);
        ++result.failed_trainings;
        telemetry->client_failed();
        switch (p.fail) {
          case FailKind::kNoResponse:
            engine::trace_dispatch_failure(p.slot, "no_response", clock.now());
            lifecycle.drop(e.dispatch, "no_response", clock.now());
            policy.on_no_response(p.slot);
            break;
          case FailKind::kDeparted:
            engine::trace_dispatch_failure(p.slot, "departed", clock.now());
            lifecycle.drop(e.dispatch, "departed", clock.now());
            policy.on_no_response(p.slot);
            break;
          case FailKind::kWentDark:
            engine::trace_dispatch_failure(p.slot, "went_dark", clock.now());
            lifecycle.drop(e.dispatch, "went_dark", clock.now());
            policy.on_no_response(p.slot);
            break;
          case FailKind::kAdaptFailed:
            engine::trace_dispatch_failure(p.slot, "adapt_failed", clock.now());
            lifecycle.drop(e.dispatch, "adapt_failed", clock.now());
            policy.on_adapt_failure(p.slot);
            break;
          case FailKind::kLostDownlink:
            result.comm.record_drop();
            obs::metrics().counter("afl.net.drops").inc();
            engine::trace_dispatch_failure(p.slot, "lost_downlink", clock.now());
            lifecycle.drop(e.dispatch, "lost_downlink", clock.now());
            policy.on_transport_failure(p.slot);
            break;
          case FailKind::kLostUplink:
            result.comm.record_drop();
            obs::metrics().counter("afl.net.drops").inc();
            engine::trace_dispatch_failure(p.slot, "lost_uplink", clock.now());
            lifecycle.drop(e.dispatch, "lost_uplink", clock.now());
            policy.on_transport_failure(p.slot);
            break;
        }
        break;
      }
    }
  }

  telemetry.reset();
  if (result.curve.empty()) {
    engine::evaluate_global(policy, config_.rounds, result, pool);
  }
  engine::finish_run(result, watch, last_flush_time, config_.rounds,
                     config_.rounds, threads_, lifecycle, transport_);
  return result;
}

}  // namespace afl::async
