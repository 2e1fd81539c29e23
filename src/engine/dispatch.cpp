#include "engine/dispatch.hpp"

#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace afl::engine {
namespace {

constexpr const char* kOutcomeNames[] = {
    "no_response", "adapt_failed", "lost_downlink", "lost_uplink",
    "departed",    "went_dark",    "deadline",      "stale"};

/// Byte/retransmit accounting + afl.net.* metrics for one frame transfer.
/// Only ever called with the transport enabled, so the metric instruments are
/// not registered (and the metrics dump is unchanged) on transportless runs.
void record_transfer(CommStats& comm, const net::TransferResult& t, bool uplink) {
  static obs::Counter& down_bytes = obs::metrics().counter("afl.net.bytes.sent");
  static obs::Counter& up_bytes = obs::metrics().counter("afl.net.bytes.returned");
  static obs::Counter& retransmits = obs::metrics().counter("afl.net.retransmits");
  static obs::Histogram& transfer_hist =
      obs::metrics().histogram("afl.net.transfer.seconds");
  if (uplink) {
    comm.record_return_bytes(t.bytes);
    up_bytes.inc(t.bytes);
  } else {
    comm.record_dispatch_bytes(t.bytes);
    down_bytes.inc(t.bytes);
  }
  if (t.attempts > 1) {
    comm.record_retransmits(t.attempts - 1);
    retransmits.inc(t.attempts - 1);
  }
  transfer_hist.record(t.seconds);
}

}  // namespace

const char* outcome_name(DispatchFailure failure) {
  return kOutcomeNames[static_cast<std::size_t>(failure)];
}

DispatchFailure decode_failure(std::uint64_t value) {
  if (value >= std::size(kOutcomeNames)) {
    throw std::runtime_error("unknown dispatch failure kind " + std::to_string(value));
  }
  return static_cast<DispatchFailure>(value);
}

void dispatch_fields(obs::TraceEvent& ev, const Dispatch& d, const char* outcome) {
  ev.field("round", static_cast<std::uint64_t>(d.slot.round))
      .field("client", static_cast<std::uint64_t>(d.slot.client))
      .field("sent", static_cast<std::uint64_t>(d.slot.sent_index))
      .field("params", static_cast<std::uint64_t>(d.slot.params_sent))
      .field("outcome", outcome);
  // afl-insight treats runs mixing tagged and untagged dispatches as bad data.
  if (d.shard >= 0) ev.field("shard", static_cast<std::uint64_t>(d.shard));
}

bool Dispatcher::draw(ClientSlot& s, Rng& rng) {
  if (!policy.select(s, rng)) return false;
  if (devices == nullptr) {
    s.capacity = static_cast<std::size_t>(-1);
  } else if (s.client < devices->size()) {
    s.capacity = (*devices)[s.client].capacity(rng);
  } else {
    throw std::logic_error(std::string(engine) + ": policy selected client " +
                           std::to_string(s.client) + " outside the fleet");
  }
  return true;
}

Admission Dispatcher::admit(Dispatch& d, Rng& rng, std::size_t presence_round) {
  ClientSlot& s = d.slot;
  // Unified accounting: the dispatch is on the wire before the server learns
  // anything about the device, so it is recorded up front and becomes pure
  // waste on every failure below.
  result.comm.record_dispatch(s.params_sent);
  lifecycle.begin(d.id, s.round, s.client, d.base, d.shard,
                  static_cast<long long>(d.version));
  Admission a{std::nullopt, d.base};
  if (devices != nullptr) {
    // Population churn (docs/POPULATION.md): a departed or dark client is
    // dispatched to but never replies, and draws nothing from the RNG, so
    // churn never shifts the streams of the clients that are present.
    const pop::Presence presence = population == nullptr
                                       ? pop::Presence::kPresent
                                       : population->state(s.client, presence_round);
    if (presence == pop::Presence::kAbsent) {
      compressor.on_departed(s.client);
      a.failure = DispatchFailure::kDeparted;
    } else if (presence == pop::Presence::kDark) {
      a.failure = DispatchFailure::kWentDark;
    } else if (!(*devices)[s.client].responds(rng)) {
      a.failure = DispatchFailure::kNoResponse;
    }
  }
  if (!a.failure && !s.trainable) a.failure = DispatchFailure::kAdaptFailed;
  if (a.failure) return a;
  if (transport.enabled()) {
    // Downlink; a frame lost after all retransmissions fails the dispatch.
    d.sess = transport.session(s.round, s.client);
    net::Delivery down =
        transport.send(d.sess, net::FrameKind::kDispatch, policy.dispatch_params(s));
    record_transfer(result.comm, down.transfer, /*uplink=*/false);
    const double down_end = d.base + d.sess.elapsed_seconds();
    lifecycle.phase(d.id, kPhaseDownlink, d.base, down_end, down.transfer.attempts,
                    down.transfer.backoff_seconds, down.transfer.bytes);
    a.at = down_end;
    if (!down.transfer.delivered) {
      a.failure = DispatchFailure::kLostDownlink;
      return a;
    }
    d.rx = std::make_unique<ParamSet>(std::move(down.params));
    s.rx = d.rx.get();
    d.down_bytes = down.transfer.bytes;
    // Local compute is charged exactly once per dispatch (ClientClock):
    // re-uploads re-pay transfer only, never the training.
    d.sess.clock().charge_compute(transport.compute_seconds(s.params_back));
    a.at = d.base + d.sess.elapsed_seconds();
    lifecycle.phase(d.id, kPhaseCompute, down_end, a.at);
  }
  policy.on_accepted(s);
  return a;
}

Uplink Dispatcher::send_update(Dispatch& d, double reupload_backoff_s) {
  if (compressor.enabled() && !d.upref) {
    // Turn the trained parameters into a masked top-k delta against what the
    // client imported. Encoded once per dispatch: re-sends ship the same
    // delta, and a resumed async dispatch keeps its stored reference.
    d.upref = std::make_unique<ParamSet>(policy.local_view(d.slot));
    compressor.encode_update(d.slot.client, d.outcome.params, *d.upref);
  }
  Uplink up;
  up.start_elapsed = d.sess.elapsed_seconds();
  net::Delivery sent;
  for (;;) {
    sent = transport.send(d.sess, net::FrameKind::kReturn, d.outcome.params);
    record_transfer(result.comm, sent.transfer, /*uplink=*/true);
    up.attempts += sent.transfer.attempts;
    up.backoff_seconds += sent.transfer.backoff_seconds;
    up.bytes += sent.transfer.bytes;
    if (sent.transfer.delivered || d.reuploads_left == 0) break;
    // The client still holds its trained update: re-send the frame after a
    // backoff. Transfer time accrues; compute does not.
    --d.reuploads_left;
    d.sess.add_seconds(reupload_backoff_s);
    up.backoff_seconds += reupload_backoff_s;
  }
  up.delivered = sent.transfer.delivered;
  if (!up.delivered) {
    compressor.reclaim(d.slot.client, d.outcome.params);  // error feedback
  } else {
    d.outcome.params = std::move(sent.params);
  }
  return up;
}

void Dispatcher::arrive(Dispatch& d, double t,
                        const std::function<void(obs::TraceEvent&)>& fields) {
  lifecycle.arrived(d.id, t);
  if (d.upref) {
    compressor.decode_update(d.outcome.params, *d.upref);
    d.upref.reset();
  }
  result.comm.record_return(d.slot.params_back);
  telemetry->add_train_seconds(d.outcome.stats.seconds);
  telemetry->client_ok();
  if (!obs::trace_enabled()) return;
  obs::TraceEvent ev("dispatch");
  dispatch_fields(ev, d, "ok");
  ev.field("back", static_cast<std::uint64_t>(d.slot.back_index))
      .field("params_back", static_cast<std::uint64_t>(d.slot.params_back));
  fields(ev);
  ev.emit();
}

void Dispatcher::fail(Dispatch& d, DispatchFailure kind, double t_end, double virtual_time) {
  using F = DispatchFailure;
  ++result.failed_trainings;
  if (kind == F::kLostDownlink || kind == F::kLostUplink) {
    result.comm.record_drop();
    obs::metrics().counter("afl.net.drops").inc();
  } else if (kind == F::kDeadline) {
    result.comm.record_straggler();
    obs::metrics().counter("afl.net.stragglers").inc();
  }
  telemetry->client_failed();
  if (obs::trace_enabled()) {
    obs::TraceEvent ev("dispatch");
    dispatch_fields(ev, d, outcome_name(kind));
    if (virtual_time >= 0.0) ev.field("virtual_time", virtual_time);
    ev.field("dur_ms", 0.0);
    ev.emit();
  }
  lifecycle.drop(d.id, outcome_name(kind), t_end);
  if (d.upref && (kind == F::kDeadline || kind == F::kStale)) {
    // Error feedback: the discarded masked delta returns to the residual.
    compressor.reclaim(d.slot.client, d.outcome.params);
  }
  d.upref.reset();
  if (kind == F::kAdaptFailed) {
    policy.on_adapt_failure(d.slot);
  } else if (kind == F::kLostDownlink || kind == F::kLostUplink || kind == F::kDeadline) {
    policy.on_transport_failure(d.slot);
  } else if (kind != F::kStale) {
    policy.on_no_response(d.slot);  // no response, departed, went dark
  }
}

}  // namespace afl::engine
