#include "async/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "async/aggregator.hpp"
#include "async/virtual_clock.hpp"
#include "engine/dispatch.hpp"
#include "engine/snapshot.hpp"
#include "engine/telemetry.hpp"
#include "hier/config.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace afl::async {
namespace {

using engine::Dispatch;
using engine::DispatchFailure;

// ---- In-flight serialization (engine snapshots, docs/POPULATION.md) --------
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

void write_pending(SnapshotWriter& w, const Dispatch& p, bool compress_on) {
  w.u64(p.id);
  write_slot(w, p.slot);
  engine::write_rng(w, p.sess.rng_state());
  w.u64(p.sess.round());
  w.u64(p.sess.client());
  w.f64(p.sess.elapsed_seconds());
  w.u64(p.sess.clock().compute_charged() ? 1 : 0);
  w.u64(p.version);
  w.f64(p.base);
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

void read_pending(SnapshotReader& r, Dispatch& p, bool compress_on) {
  p.id = static_cast<std::size_t>(r.u64());
  read_slot(r, p.slot);
  const Rng::State st = engine::read_rng(r);
  const std::size_t sess_round = r.u64();
  const std::size_t sess_client = r.u64();
  const double elapsed = r.f64();
  const bool compute_charged = r.u64() != 0;
  p.sess.restore(sess_round, sess_client, st, elapsed, compute_charged);
  p.version = r.u64();
  p.base = r.f64();
  p.reuploads_left = r.u64();
  p.accepted = r.u64() != 0;
  p.trained = r.u64() != 0;
  p.fail = engine::decode_failure(r.u64());
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
}

}  // namespace

AsyncEngine::AsyncEngine(const FlRunConfig& config, AsyncConfig async,
                         const std::vector<DeviceSim>* devices)
    : EngineBase(config, devices), async_(async) {
  if (async_.buffer_size == 0) async_.buffer_size = config_.clients_per_round;
  if (async_.buffer_size == 0) async_.buffer_size = 1;
  if (async_.concurrency == 0) async_.concurrency = 2 * async_.buffer_size;
  if (devices_ != nullptr) {
    async_.concurrency = std::min(async_.concurrency, devices_->size());
  }
}

RunResult AsyncEngine::run(AsyncRoundPolicy& policy) {
  engine::RunCore core(*this, policy, engine::RunMode::kAsync);
  static obs::Histogram& occupancy_hist =
      obs::metrics().histogram("afl.async.buffer.occupancy");
  static obs::Histogram& staleness_hist =
      obs::metrics().histogram("afl.async.staleness");
  obs::Gauge& version_gauge = obs::metrics().gauge("afl.async.version");
  obs::Counter& flush_counter = obs::metrics().counter("afl.async.flushes");
  obs::Counter& dispatch_counter = obs::metrics().counter("afl.async.dispatches");
  obs::Counter& stale_counter = obs::metrics().counter("afl.async.stale.discards");
  policy.begin_async(devices_ != nullptr ? devices_->size() : 0);

  VirtualClock clock;
  EventQueue queue;
  AsyncAggregator agg(async_.buffer_size, async_.staleness_alpha,
                      async_.max_staleness);
  std::map<std::size_t, Dispatch> pending;  // in flight, by dispatch id
  std::size_t next_dispatch = 1;
  std::size_t stuck_ends = 0;  // the stop rule's count (below)

  // Snapshot/resume (docs/POPULATION.md). Async snapshots are cut at flush
  // boundaries: the buffer is empty, but in-flight dispatches (and their
  // pending events) are captured verbatim in the tail section so the resumed
  // event sequence — and therefore the RunResult — is bit-identical to the
  // uninterrupted run. core.sim_time is the last flush time.
  core.head.write = [&](SnapshotWriter& w) {
    w.f64(clock.now());
    w.f64(core.sim_time);
    w.u64(next_dispatch);
    w.u64(agg.version());
  };
  core.head.read = [&](SnapshotReader& r) {
    clock.restore(r.f64());
    core.sim_time = r.f64();
    next_dispatch = r.u64();
    agg.restore(r.u64());
  };
  core.tail.write = [&](SnapshotWriter& w) {
    w.u64(pending.size());
    for (const auto& [id, p] : pending) {  // std::map: dispatch order
      write_pending(w, p, core.compressor.enabled());
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
  };
  core.tail.read = [&](SnapshotReader& reader) {
    const std::uint64_t n_pending = reader.u64();
    for (std::uint64_t i = 0; i < n_pending; ++i) {
      Dispatch p;
      read_pending(reader, p, core.compressor.enabled());
      p.slot.source = core.source_of(p.slot);
      if (devices_ != nullptr && p.slot.client >= devices_->size()) {
        throw std::runtime_error("snapshot: in-flight dispatch to a client outside the fleet");
      }
      // The client is still in flight: re-mark it busy and reopen its
      // lifecycle record (earlier phases were flushed with the old process;
      // blame attribution restarts, bit-identity of the result does not).
      policy.set_client_busy(p.slot.client, true);
      core.lifecycle.begin(p.id, p.id, p.slot.client, p.base, /*shard=*/-1,
                           static_cast<long long>(p.version));
      pending.emplace(p.id, std::move(p));
    }
    const std::uint64_t n_events = reader.u64();
    std::vector<Event> events(n_events);
    for (Event& e : events) {
      e.time = reader.f64();
      e.dispatch = reader.u64();
      e.client = reader.u64();
      e.seq = reader.u64();
      const std::uint64_t kind = reader.u64();
      // The event loop replays every event against its dispatch's state.
      const auto it = pending.find(e.dispatch);
      const char* bad = nullptr;
      if (kind > static_cast<std::uint64_t>(EventKind::kFailure)) {
        bad = "unknown event kind";
      } else if (it == pending.end()) {
        bad = "its dispatch is not in flight";
      } else if (it->second.slot.client != e.client) {
        bad = "its client is not its dispatch's";
      }
      if (bad != nullptr) {
        throw std::runtime_error("snapshot: async event (kind " + std::to_string(kind) +
                                 ", dispatch " + std::to_string(e.dispatch) + ", client " +
                                 std::to_string(e.client) + "): " + bad);
      }
      e.kind = static_cast<EventKind>(kind);
    }
    queue.restore(std::move(events), reader.u64());
  };
  std::size_t flushes = core.resume();
  // One window (and churn record) per flush — the async analogue of a round.
  core.open_window(flushes + 1);

  // Keeps `concurrency` dispatches in flight, drawing every RNG value on the
  // engine thread in event order. The dispatch id doubles as the slot's
  // "round" key and the lifecycle id; churn presence is keyed by the flush
  // window, the async analogue of the sync round.
  auto top_up = [&]() {
    AFL_PROF_SPAN("async.top_up");
    while (pending.size() < async_.concurrency) {
      Dispatch d;
      d.slot.round = next_dispatch;
      if (!core.dispatcher.draw(d.slot, core.rng)) break;  // every free client is in flight
      policy.adapt(d.slot);
      d.slot.source = core.source_of(d.slot);
      dispatch_counter.inc();
      d.id = next_dispatch;
      d.version = agg.version();
      d.base = clock.now();
      d.reuploads_left = async_.max_reuploads;
      const engine::Admission admission = core.dispatcher.admit(d, core.rng, flushes + 1);
      d.accepted = !admission.failure;
      if (d.accepted) {
        queue.push({admission.at, d.id, d.slot.client, 0, EventKind::kUpload});
      } else {  // the server learns of a failure when its timeout expires
        d.fail = *admission.failure;
        queue.push({admission.at + async_.failure_timeout_s, d.id, d.slot.client, 0,
                    EventKind::kFailure});
      }
      pending.emplace(next_dispatch++, std::move(d));
    }
  };

  // Lazily trains every accepted, still-untrained dispatch in one parallel
  // wave; `without_rx` limits it to those that hold no decoded downlink. Wave
  // membership is a pure function of event order and execute() is pure, so
  // when a wave runs cannot change any result bit, as long as each dispatch
  // trains on the global it was admitted under (do_flush).
  auto train_wave = [&](bool without_rx) {
    std::vector<Dispatch*> wave;
    for (auto& [id, p] : pending) {
      if (p.accepted && !p.trained && !(without_rx && p.rx)) wave.push_back(&p);
    }
    if (!wave.empty()) core.train(wave, "async.train_wave", "async.client_train");
  };

  // One buffer flush: aggregate, bump the global version, close the window
  // (evaluating when due) and, unless the run stops after it, open the next.
  bool stopped = false;  // close_window() reported stop-after
  auto do_flush = [&]() {
    AFL_PROF_SPAN("async.flush");
    ++flushes;
    stuck_ends = 0;
    // A dispatch without a decoded downlink splits its source, the live
    // global, when it trains: train those still waiting before the global
    // moves past the version their staleness is charged against. After the
    // run's last flush nothing trains again.
    if (flushes < config_.rounds) train_wave(/*without_rx=*/true);
    {
      AFL_PROF_SPAN("async.aggregate");
      core.aggregate();
    }
    const std::size_t new_version = agg.commit_flush();
    version_gauge.set(static_cast<double>(new_version));
    flush_counter.inc();
    // The buffer flush is the commit instant of every buffered update:
    // buffer_wait runs from each arrival to here.
    core.lifecycle.commit_window(clock.now(), /*commit_shard=*/-1,
                                 static_cast<long long>(new_version));
    stopped = core.close_window(flushes, /*sync=*/true, clock.now() - core.sim_time,
                                clock.now());
    if (!stopped && flushes < config_.rounds) core.open_window(flushes + 1);
  };

  // Whether the open window can gain no update: nothing accepted is in
  // flight and no device can answer in it (present, with a nonzero
  // availability, a largest capacity draw the policy can adapt a dispatch
  // to and, with a transport, a channel that can deliver a frame), so every
  // admission fails.
  const std::size_t fewest_params = policy.min_trainable_params();
  auto stuck = [&]() {
    if (devices_ == nullptr) return false;
    for (const auto& [id, p] : pending) {
      if (p.accepted) return false;
    }
    for (std::size_t c = 0; c < devices_->size(); ++c) {
      const DeviceSim& d = (*devices_)[c];
      if (d.availability > 0.0 && d.max_capacity() >= fewest_params &&
          (population_ == nullptr ||
           population_->state(c, flushes + 1) == pop::Presence::kPresent) &&
          (!transport_.enabled() || transport_.channel_for(c).loss_prob < 1.0)) {
        return false;
      }
    }
    return true;
  };

  while (!stopped && flushes < config_.rounds) {
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
    auto it = pending.find(e.dispatch);  // resume checked that it exists
    if (it == pending.end()) throw std::logic_error("AsyncEngine: event without a dispatch");
    if (e.kind == EventKind::kUpload) {
      Dispatch& p = it->second;
      if (!p.trained) train_wave(/*without_rx=*/false);
      double arrive_at = e.time;
      if (transport_.enabled()) {
        const engine::Uplink up = core.dispatcher.send_update(p, async_.reupload_backoff_s);
        const double up_end = e.time + (p.sess.elapsed_seconds() - up.start_elapsed);
        core.lifecycle.phase(e.dispatch, engine::kPhaseUplink, e.time, up_end, up.attempts,
                             up.backoff_seconds, up.bytes);
        if (!up.delivered) {
          p.fail = DispatchFailure::kLostUplink;
          queue.push({up_end + async_.failure_timeout_s, e.dispatch, e.client, 0,
                      EventKind::kFailure});
          continue;
        }
        arrive_at = up_end;
      }
      queue.push({arrive_at, e.dispatch, e.client, 0, EventKind::kArrival});
      continue;
    }
    // An arrival or a failure ends the dispatch and frees its client.
    Dispatch p = std::move(it->second);
    pending.erase(it);
    policy.set_client_busy(p.slot.client, false);
    const bool stale = e.kind == EventKind::kArrival && agg.too_stale(p.version);
    if (e.kind == EventKind::kFailure || stale) {
      if (stale) stale_counter.inc();
      core.dispatcher.fail(p, stale ? DispatchFailure::kStale : p.fail, clock.now(),
                           clock.now());
      // Stop rule (docs/ASYNC.md): a window that can gain no update closes
      // with what it holds once `concurrency` more dispatches have ended, so
      // a fleet that cannot answer does not stall the run.
      if (stuck() && ++stuck_ends == async_.concurrency) do_flush();
      continue;
    }
    const std::size_t tau = agg.staleness(p.version);
    const double scale = agg.weight_scale(p.version);
    staleness_hist.record(static_cast<double>(tau));
    core.dispatcher.arrive(p, clock.now(), [&](obs::TraceEvent& ev) {
      ev.field("virtual_time", clock.now())
          .field("staleness", static_cast<std::uint64_t>(tau))
          .field("weight_scale", scale)
          .field("train_ms", p.outcome.stats.seconds * 1e3)
          .field("dur_ms", (clock.now() - p.base) * 1e3);
    });
    core.fold(p, scale);
    agg.note_buffered();
    occupancy_hist.record(static_cast<double>(agg.buffered()));
    if (agg.full()) do_flush();
  }
  return stopped ? core.finish(flushes) : core.end();
}

}  // namespace afl::async

namespace afl {

RunResult run_policy(const FlRunConfig& config, const std::vector<DeviceSim>* devices,
                     RoundPolicy& policy) {
  const async::AsyncConfig async =
      config.async ? *config.async : async::AsyncConfig::from_env();
  if (!async.enabled) return RoundEngine(config, devices).run(policy);
  auto* async_policy = dynamic_cast<AsyncRoundPolicy*>(&policy);
  if (async_policy == nullptr) {
    throw std::invalid_argument(policy.algorithm_name() +
                                " cannot run asynchronously: it does not implement "
                                "AsyncRoundPolicy");
  }
  if ((config.hier ? *config.hier : hier::HierConfig::from_env()).enabled) {
    throw std::invalid_argument(policy.algorithm_name() +
                                ": async and hierarchical execution are mutually exclusive");
  }
  return async::AsyncEngine(config, async, devices).run(*async_policy);
}

}  // namespace afl
