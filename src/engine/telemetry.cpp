#include "engine/telemetry.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fl/aggregate.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/rss.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace afl::engine {
namespace {

/// Trace schema label stamped on every run_start header; afl-insight refuses
/// to diff traces whose schemas disagree. v2 adds the dispatch-lifecycle
/// records (engine/lifecycle.hpp); v3 adds per-round `churn` records, the
/// departed/went_dark dispatch outcomes, and population run_start columns
/// (src/pop/, docs/POPULATION.md) — each a pure superset of its predecessor,
/// so older readers keep working on every record kind they know.
constexpr const char* kTraceSchema = "afl.trace.v3";

const char* snapshot_format(RunMode mode) {
  return mode == RunMode::kFlat   ? kSyncSnapshotFormat
         : mode == RunMode::kHier ? kHierSnapshotFormat
                                  : kAsyncSnapshotFormat;
}

/// Emits the run_start header. `mode` tags non-default execution models
/// (the async engine passes "async", a sharded RoundEngine run "hier"); null
/// omits the field so synchronous traces stay byte-identical. `shards` > 0
/// adds the hierarchical topology columns (shards, sync_every).
/// `population`, when non-null, adds the population columns (fleet size,
/// churn knobs, channel spread); null keeps static-fleet traces unchanged.
void trace_run_start(const RunResult& result, const FlRunConfig& config,
                     std::size_t threads, const net::Transport& transport,
                     const char* mode, std::size_t shards,
                     std::size_t sync_every, const pop::Population* population) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent ev("run_start");
  ev.field("schema", kTraceSchema)
      .field("algo", result.algorithm)
      .field("rounds", static_cast<std::uint64_t>(config.rounds))
      .field("clients_per_round", static_cast<std::uint64_t>(config.clients_per_round))
      .field("seed", static_cast<std::uint64_t>(config.seed))
      .field("eval_every", static_cast<std::uint64_t>(config.eval_every))
      .field("threads", static_cast<std::uint64_t>(threads))
      .field("epochs", static_cast<std::uint64_t>(config.local.epochs))
      .field("batch_size", static_cast<std::uint64_t>(config.local.batch_size))
      .field("lr", config.local.lr)
      .field("momentum", config.local.momentum);
  if (mode != nullptr) ev.field("mode", mode);
  if (shards > 0) {
    ev.field("shards", static_cast<std::uint64_t>(shards))
        .field("sync_every", static_cast<std::uint64_t>(sync_every));
  }
  if (transport.enabled()) {
    // Transport columns appear only on transport-backed runs so traces from
    // identity-path runs stay byte-identical to pre-transport builds.
    const net::NetConfig& net = transport.config();
    ev.field("codec", net::codec_name(net.codec))
        .field("net_loss", net.channel.loss_prob)
        .field("net_deadline_ms", net.round_deadline_s * 1e3);
    if (net.uplink() != net.codec) {
      // Split-direction transport (docs/COMPRESSION.md): the column appears
      // only when the uplink codec diverges, so symmetric-codec traces stay
      // byte-identical.
      ev.field("uplink_codec", net::codec_name(net.uplink()));
    }
  }
  if (population != nullptr) {
    // Population columns (afl.trace.v3): fleet size, churn knobs, and the
    // sampled per-client channel spread. Static-fleet runs omit them all.
    const pop::PopConfig& pc = population->config();
    ev.field("pop_clients", static_cast<std::uint64_t>(population->size()))
        .field("pop_active_frac", pc.active_frac)
        .field("pop_rotate_every", static_cast<std::uint64_t>(pc.rotate_every))
        .field("pop_rotate_frac", pc.rotate_frac)
        .field("pop_dark_prob", pc.dark_prob);
    if (population->has_channels()) {
      double bw_min = 0.0, bw_max = 0.0;
      bool first = true;
      for (const net::ChannelConfig& ch : population->channels()) {
        if (first) {
          bw_min = bw_max = ch.bandwidth_bytes_per_s;
          first = false;
        } else {
          bw_min = std::min(bw_min, ch.bandwidth_bytes_per_s);
          bw_max = std::max(bw_max, ch.bandwidth_bytes_per_s);
        }
      }
      ev.field("pop_bw_min", bw_min).field("pop_bw_max", bw_max);
    }
  }
  ev.emit();
}

}  // namespace

RunCore::RunCore(const EngineBase& engine, RoundPolicy& policy, RunMode mode,
                 std::size_t shards, std::size_t sync_every)
    : pool(engine.threads_),
      rng(engine.config_.seed),
      // Lifecycle tracing (afl.trace.v2) is active only in runs that model
      // time, so transportless traces stay byte-identical to v1 builds.
      lifecycle(mode == RunMode::kAsync || engine.transport_.enabled()),
      // Sparsifying uplink + error feedback (src/compress/,
      // docs/COMPRESSION.md). Disabled unless the transport's uplink codec is
      // top-k; disabled it is a pure no-op and runs stay byte-identical.
      compressor(engine.transport_, compress::CompressConfig::from_env()),
      dispatcher{mode == RunMode::kAsync ? "AsyncEngine" : "RoundEngine",
                 policy, engine.devices_, engine.population_.get(), engine.transport_,
                 compressor, lifecycle, result, telemetry},
      snap(SnapshotPlan::resolve(engine.config_)),
      engine_(engine),
      policy_(policy),
      mode_(mode) {
  const bool hier = mode == RunMode::kHier;
  result.algorithm = policy.algorithm_name() + (mode == RunMode::kAsync ? "+Async" : "");
  obs::ensure_default_http_server();
  trace_run_start(result, engine.config_, engine.threads_, engine.transport_,
                  hier ? "hier" : mode == RunMode::kAsync ? "async" : nullptr,
                  hier ? shards : 0, hier ? sync_every : 0, engine.population_.get());
  publish(0, 0.0, /*active=*/true);
  obs::metrics().gauge("afl.engine.pool.threads").set(static_cast<double>(pool.size()));
  if (engine.population_ != nullptr && engine.population_->has_channels()) {
    policy.observe_channels(engine.population_->channel_quality());
  }
  policy.init_global(rng);
  globals_ = policy.globals();
  aggregators_.reserve(globals_.size());
  for (const ParamSet* global : globals_) aggregators_.emplace_back(*global);
}

std::size_t RunCore::resume() {
  if (!snap.resume_enabled()) return 0;
  SnapshotReader r(snap.resume_from);
  const std::size_t round =
      read_header(r, snapshot_format(mode_), engine_.config_, result.algorithm);
  read_result(r, result);
  rng.set_state(read_rng(r));
  head.read(r);
  if (compressor.enabled()) compressor.restore(r);
  policy_.restore_state(r);
  if (tail.read) tail.read(r);
  r.expect_end();
  return round;
}

void RunCore::open_window(std::size_t round) {
  telemetry.emplace(result, round);
  telemetry->set_net_enabled(engine_.transport_.enabled());
  // The population's membership deltas feed the afl.pop.* counters and a
  // `churn` record (afl.trace.v3); static-fleet runs gain neither.
  if (engine_.population_ == nullptr) return;
  const pop::RoundChurn churn = engine_.population_->round_churn(round);
  static obs::Counter& joins = obs::metrics().counter("afl.pop.joins");
  static obs::Counter& departures = obs::metrics().counter("afl.pop.departures");
  static obs::Counter& dark = obs::metrics().counter("afl.pop.dark.rounds");
  static obs::Gauge& active = obs::metrics().gauge("afl.pop.active");
  joins.inc(churn.joins);
  departures.inc(churn.departures);
  dark.inc(churn.dark);
  active.set(static_cast<double>(churn.active));
  if (!obs::trace_enabled()) return;
  obs::TraceEvent ev("churn");
  ev.field("round", static_cast<std::uint64_t>(round))
      .field("active", static_cast<std::uint64_t>(churn.active))
      .field("dark", static_cast<std::uint64_t>(churn.dark))
      .field("joins", static_cast<std::uint64_t>(churn.joins))
      .field("departures", static_cast<std::uint64_t>(churn.departures));
  ev.emit();
}

bool RunCore::close_window(std::size_t round, bool sync, double round_sim, double now) {
  const FlRunConfig& config = engine_.config_;
  policy_.end_round(round, *telemetry);
  if (now >= 0.0) {
    telemetry->set_sim_time(round_sim, now);
    sim_time = now;
  }
  if (sync && config.eval_every != 0 &&
      (round % config.eval_every == 0 || round == config.rounds)) {
    AFL_PROF_SPAN(mode_ == RunMode::kAsync ? "async.evaluate" : "engine.evaluate");
    evaluate(round, now);
  }
  telemetry.reset();  // appends this window's metrics record
  if (sync) obs::sample_rss();
  publish(round, watch_.seconds(), /*active=*/round < config.rounds);
  if (sync && snap.due(round)) {
    SnapshotWriter w(snap.snapshot_path);
    write_header(w, snapshot_format(mode_), config, result.algorithm, round);
    write_result(w, result);
    write_rng(w, rng.state());
    head.write(w);
    if (compressor.enabled()) compressor.snapshot(w);
    policy_.snapshot_state(w);
    if (tail.write) tail.write(w);
    w.finish();
  }
  return sync && snap.stop_after(round);
}

double RunCore::train(const std::vector<Dispatch*>& wave, const char* span,
                      const char* client_span) {
  AFL_PROF_SPAN(span);
  Stopwatch wave_watch;
  // Trace records a dispatch emits (local_train) are held per dispatch and
  // written in wave order once the wave is done, so the trace does not
  // depend on which worker ran what when.
  obs::TraceBuffers records(wave.size());
  pool.parallel_for(wave.size(), [&](std::size_t i) {
    // Worker-thread span: lands on the pool thread's own span stack, so
    // kernel spans nested under it attribute correctly per thread.
    AFL_PROF_SPAN(client_span);
    const obs::TraceCapture capture(records[i]);
    Dispatch& d = *wave[i];
    d.queue_s = wave_watch.seconds();
    Stopwatch item_watch;
    Rng crng = Rng::derive(engine_.config_.seed, d.slot.round, d.slot.client);
    d.outcome = policy_.execute(d.slot, crng);
    d.trained = true;
    d.exec_s = item_watch.seconds();
  });
  return wave_watch.seconds();
}

void RunCore::fold(Dispatch& d, double weight, ShardAggregator* into) {
  Stopwatch watch;
  // By rvalue: the aggregator releases the update's tensors once folded.
  (into != nullptr ? *into : aggregators_[policy_.global_of(d.slot)])
      .add(ClientUpdate{std::move(d.outcome.params), d.outcome.samples, weight});
  telemetry->add_aggregate_seconds(watch.seconds());
}

void RunCore::aggregate() {
  Stopwatch watch;
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    // Every policy's updates are prefixes of its global (Algorithm 2), so
    // one fold serves them all.
    *globals_[g] = finalize_aggregate(aggregators_[g], *globals_[g], "hetero");
    aggregators_[g].reset();
  }
  telemetry->add_aggregate_seconds(watch.seconds());
}

RunResult RunCore::end() {
  telemetry.reset();
  if (result.curve.empty()) evaluate(engine_.config_.rounds, /*now=*/-1.0);
  return finish(engine_.config_.rounds);
}

RunResult RunCore::finish(std::size_t round) {
  telemetry.reset();
  result.wall_seconds = watch_.seconds();
  result.sim_seconds = sim_time;
  publish(round, result.wall_seconds, /*active=*/false);
  // Run end is the profiler's flush point: aggregates become afl.prof.*
  // gauges on /metrics and, when tracing is also on, `profile` records in
  // the JSONL trace. With AFL_PROFILE unset both calls are skipped entirely.
  if (obs::prof::profiling_enabled()) {
    obs::prof::publish(obs::metrics());
    obs::prof::emit_trace_records();
  }
  if (!obs::trace_enabled()) return std::move(result);
  const net::Transport& transport = engine_.transport_;
  obs::TraceEvent ev("run_end");
  ev.field("algo", result.algorithm)
      .field("rounds", static_cast<std::uint64_t>(result.round_metrics.size()))
      .field("full_acc", result.final_full_acc)
      .field("avg_acc", result.final_avg_acc)
      .field("params_sent", static_cast<std::uint64_t>(result.comm.params_sent()))
      .field("params_returned", static_cast<std::uint64_t>(result.comm.params_returned()))
      .field("waste_rate", result.comm.waste_rate())
      .field("failed_trainings", static_cast<std::uint64_t>(result.failed_trainings));
  if (transport.enabled()) {
    ev.field("codec", net::codec_name(transport.codec()));
    if (transport.uplink_codec() != transport.codec()) {
      ev.field("uplink_codec", net::codec_name(transport.uplink_codec()));
    }
    ev.field("bytes_sent", static_cast<std::uint64_t>(result.comm.bytes_sent()))
        .field("bytes_returned",
               static_cast<std::uint64_t>(result.comm.bytes_returned()))
        .field("retransmits", static_cast<std::uint64_t>(result.comm.retransmits()))
        .field("stragglers", static_cast<std::uint64_t>(result.comm.stragglers()))
        .field("drops", static_cast<std::uint64_t>(result.comm.drops()));
  }
  // A sim_seconds column only when the run tracked simulated time.
  if (result.sim_seconds > 0.0) ev.field("sim_seconds", result.sim_seconds);
  ev.field("wall_ms", result.wall_seconds * 1e3);
  ev.emit();
  return std::move(result);
}

void RunCore::publish(std::size_t round, double elapsed_seconds, bool active) const {
  const std::size_t total_rounds = engine_.config_.rounds;
  obs::RunStatus s;
  s.active = active;
  s.set_algorithm(result.algorithm);
  s.round = round;
  s.total_rounds = total_rounds;
  s.full_acc = result.final_full_acc;
  s.avg_acc = result.final_avg_acc;
  if (!result.round_metrics.empty()) {
    s.selector_entropy = result.round_metrics.back().selector_entropy;
  }
  s.params_sent = result.comm.params_sent();
  s.params_returned = result.comm.params_returned();
  s.waste_rate = result.comm.waste_rate();
  std::uint64_t ok = 0, failed = 0;
  for (const RoundMetrics& m : result.round_metrics) {
    ok += m.clients_ok;
    failed += m.clients_failed;
  }
  s.clients_ok = ok;
  s.clients_failed = failed;
  s.wall_seconds = elapsed_seconds;
  s.eta_seconds = round > 0 ? elapsed_seconds / static_cast<double>(round) *
                                  static_cast<double>(total_rounds - round)
                            : 0.0;
  s.threads = engine_.threads_;
  const LifecycleBlame& blame = lifecycle.blame();
  if (blame.valid) {
    s.cp_valid = true;
    s.cp_downlink = blame.downlink;
    s.cp_compute = blame.compute;
    s.cp_uplink = blame.uplink;
    s.cp_backoff = blame.backoff;
    s.cp_buffer_wait = blame.buffer_wait;
  }
  obs::run_status().publish(s);
  // Round boundaries double as crash-residue refresh points: registered
  // flush hooks (e.g. the AFL_METRICS_JSONL ".partial" dump) rewrite their
  // sinks here, so even a kill that skips atexit leaves metrics at most one
  // round stale.
  obs::run_trace_flush_hooks();
}

void RunCore::evaluate(std::size_t round, double now) {
  Stopwatch watch;
  policy_.evaluate(round, result, pool);
  result.curve.push_back({round, result.final_full_acc, result.final_avg_acc,
                          result.comm.waste_rate(), result.comm.round_waste_rate()});
  if (telemetry) telemetry->add_eval_seconds(watch.seconds());
  if (now < 0.0) return;
  result.note_time_to_acc(result.final_full_acc, now, round);
  if (!obs::trace_enabled()) return;
  obs::TraceEvent ev("eval_point");
  ev.field("round", static_cast<std::uint64_t>(round))
      .field("virtual_time", now)
      .field("full_acc", result.final_full_acc)
      .field("avg_acc", result.final_avg_acc);
  ev.emit();
}

}  // namespace afl::engine
