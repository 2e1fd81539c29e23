#include "engine/telemetry.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace afl::engine {

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

void trace_churn(std::size_t round, const pop::RoundChurn& churn) {
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

namespace {

/// Emits the run_end summary. Adds a sim_seconds column when the run
/// tracked simulated time (result.sim_seconds > 0).
void trace_run_end(const RunResult& result, const net::Transport& transport) {
  // Run end is the profiler's flush point: aggregates become afl.prof.*
  // gauges on /metrics and, when tracing is also on, `profile` records in
  // the JSONL trace. With AFL_PROFILE unset both calls are skipped entirely.
  if (obs::prof::profiling_enabled()) {
    obs::prof::publish(obs::metrics());
    obs::prof::emit_trace_records();
  }
  if (!obs::trace_enabled()) return;
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
  if (result.sim_seconds > 0.0) ev.field("sim_seconds", result.sim_seconds);
  ev.field("wall_ms", result.wall_seconds * 1e3);
  ev.emit();
}

/// Emits an eval_point trace event: the simulated clock at which the run's
/// evaluation curve reached an accuracy.
void trace_eval_point(std::size_t round, double virtual_time, double full_acc,
                      double avg_acc) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent ev("eval_point");
  ev.field("round", static_cast<std::uint64_t>(round))
      .field("virtual_time", virtual_time)
      .field("full_acc", full_acc)
      .field("avg_acc", avg_acc);
  ev.emit();
}

}  // namespace

void publish_run_status(const RunResult& result, std::size_t round,
                        std::size_t total_rounds, double elapsed_seconds,
                        std::size_t threads, bool active,
                        const LifecycleBlame* blame) {
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
  s.threads = threads;
  if (blame != nullptr && blame->valid) {
    s.cp_valid = true;
    s.cp_downlink = blame->downlink;
    s.cp_compute = blame->compute;
    s.cp_uplink = blame->uplink;
    s.cp_backoff = blame->backoff;
    s.cp_buffer_wait = blame->buffer_wait;
  }
  obs::run_status().publish(s);
  // Round boundaries double as crash-residue refresh points: registered
  // flush hooks (e.g. the AFL_METRICS_JSONL ".partial" dump) rewrite their
  // sinks here, so even a kill that skips atexit leaves metrics at most one
  // round stale.
  obs::run_trace_flush_hooks();
}

void evaluate_global(RoundPolicy& policy, std::size_t round, RunResult& result,
                     ThreadPool& workers, RoundTelemetry* telemetry,
                     double sim_time) {
  Stopwatch watch;
  policy.evaluate(round, result, workers);
  result.curve.push_back({round, result.final_full_acc, result.final_avg_acc,
                          result.comm.waste_rate(),
                          result.comm.round_waste_rate()});
  if (telemetry != nullptr) telemetry->add_eval_seconds(watch.seconds());
  if (sim_time >= 0.0) {
    result.note_time_to_acc(result.final_full_acc, sim_time, round);
    trace_eval_point(round, sim_time, result.final_full_acc,
                     result.final_avg_acc);
  }
}

void finish_run(RunResult& result, const Stopwatch& watch, double sim_seconds,
                std::size_t round, std::size_t total_rounds, std::size_t threads,
                const LifecycleTracker& lifecycle,
                const net::Transport& transport) {
  result.wall_seconds = watch.seconds();
  result.sim_seconds = sim_seconds;
  publish_run_status(result, round, total_rounds, result.wall_seconds, threads,
                     /*active=*/false, &lifecycle.blame());
  trace_run_end(result, transport);
}

}  // namespace afl::engine
