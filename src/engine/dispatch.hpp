#pragma once
// One dispatch path for the round engine and the async engine (docs/ENGINE.md,
// "One dispatch path"): draw a client, admit the dispatch, ship the trained
// update, and book the update or why the dispatch ended without one. Each
// engine keeps only what differs: when each step runs, and which clock it
// reads (a shard clock or the event clock), handed in as each dispatch's time
// base. Nothing here opens a profiler span, so each engine's span tree stays
// its own.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "compress/compressor.hpp"
#include "engine/lifecycle.hpp"
#include "engine/round_engine.hpp"
#include "engine/run.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "pop/population.hpp"
#include "sim/device.hpp"
#include "util/rng.hpp"

namespace afl::engine {

/// How a dispatch ended without an update. Async snapshots store the value,
/// so the order is part of that format: append only.
enum class DispatchFailure {
  kNoResponse,
  kAdaptFailed,
  kLostDownlink,
  kLostUplink,
  kDeparted,  // population churn: client left the fleet (docs/POPULATION.md)
  kWentDark,  // population churn: client temporarily unreachable
  kDeadline,  // update delivered after the round deadline (a straggler)
  kStale,     // async arrival staler than max_staleness
};

/// The outcome string of the failure's `dispatch` and `lifecycle` records.
const char* outcome_name(DispatchFailure failure);

/// Reads back a stored DispatchFailure; throws std::runtime_error for a value
/// past the last enumerator.
DispatchFailure decode_failure(std::uint64_t value);

/// One dispatch from admission to its update or failure; the engine fills
/// slot.round, shard, id, version and base before admit(). The decoded
/// downlink lives on the heap, so slot.rx survives moving the record.
struct Dispatch {
  ClientSlot slot;
  int shard = -1;           // shard tag of a sharded run; -1 omits it
  std::size_t id = 0;       // lifecycle id
  std::size_t version = 0;  // global version the dispatch was split from
  double base = 0.0;        // dispatch instant on the engine's clock
  net::Transport::Session sess;
  std::unique_ptr<ParamSet> rx;     // decoded downlink payload
  std::unique_ptr<ParamSet> upref;  // sparse uplink: what the update is coded against
  TrainOutcome outcome;
  std::size_t down_bytes = 0;      // on-wire bytes of the delivered downlink
  std::size_t reuploads_left = 0;  // re-sends allowed after a lost uplink
  double queue_s = 0.0;            // training wave: wait for a worker
  double exec_s = 0.0;             // training wave: execute() wall time
  bool accepted = false;           // async engine state from here on
  bool trained = false;
  DispatchFailure fail = DispatchFailure::kNoResponse;
};

/// What admit() decided: the failure, if any, and the instant the dispatch
/// failed or became ready to upload (base, plus the session time once sent).
struct Admission {
  std::optional<DispatchFailure> failure;
  double at = 0.0;
};

/// What send_update() put on the wire, summed over re-sends.
struct Uplink {
  bool delivered = false;
  std::size_t attempts = 0;
  double backoff_seconds = 0.0;  // channel backoff plus re-upload backoff
  std::size_t bytes = 0;
  double start_elapsed = 0.0;  // session clock when the first send began
};

/// The per-dispatch steps, bound to one run. Every call runs on the engine
/// thread, in the engine's deterministic dispatch order.
struct Dispatcher {
  const char* engine;  // names the caller in error messages
  RoundPolicy& policy;
  const std::vector<DeviceSim>* devices;
  const pop::Population* population;  // null: every client always present
  const net::Transport& transport;
  compress::Compressor& compressor;
  LifecycleTracker& lifecycle;
  RunResult& result;
  std::optional<RoundTelemetry>& telemetry;  // the open window's

  /// policy.select(), then the capacity draw (SIZE_MAX without a fleet).
  /// False when the policy ends selection; throws std::logic_error for a
  /// client outside the fleet.
  bool draw(ClientSlot& s, Rng& rng);

  /// Admits an adapted dispatch: record_dispatch, lifecycle begin, churn
  /// presence at `presence_round` (dropping a departed client's residuals),
  /// availability, fit; with a transport, the downlink and the compute
  /// charge; on_accepted() last. Books nothing: the engine calls fail().
  Admission admit(Dispatch& d, Rng& rng, std::size_t presence_round);

  /// Ships the trained update: encodes it against local_view() once per
  /// dispatch (sparse uplink), sends, re-sends while re-uploads remain, and
  /// takes the decoded params on delivery. A lost update's masked delta
  /// returns to the client's residual.
  Uplink send_update(Dispatch& d, double reupload_backoff_s);

  /// Books the update of `d`, arrived at `t`: lifecycle arrival, the sparse
  /// decode (the reference added back onto a masked delta), record_return,
  /// telemetry and the `dispatch` ok record, where `fields` adds the
  /// engine's own fields after params_back.
  void arrive(Dispatch& d, double t, const std::function<void(obs::TraceEvent&)>& fields);

  /// Books a dispatch that ended without an update: failed_trainings, the
  /// drop or straggler counter, telemetry, the `dispatch` record (with
  /// `virtual_time` when >= 0), the lifecycle drop at `t_end`, the kind's
  /// policy hook, and error feedback for a discarded delivered update.
  void fail(Dispatch& d, DispatchFailure kind, double t_end, double virtual_time);
};

/// Adds the fields every `dispatch` record starts with: round, client, sent,
/// params, outcome, and shard when d.shard >= 0.
void dispatch_fields(obs::TraceEvent& ev, const Dispatch& d, const char* outcome);

}  // namespace afl::engine
