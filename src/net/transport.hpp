#pragma once
// Simulated transport the RoundEngine dispatches and uploads through (see
// docs/NET.md for the full contract and configuration reference).
//
// The transport composes the other net/ pieces: payloads are codec-encoded
// into wire frames, frames traverse the channel model with retry + capped
// exponential backoff, and an env-driven fault plan (AFL_FAULTS) can drop,
// corrupt, or delay specific (round, client) frames. Corrupt frames are
// detected by the wire CRC and retransmitted like losses.
//
// Determinism: every stochastic draw comes from a Session's private RNG,
// derived as Rng::derive(seed ^ salt, round, client) — independent of the
// engine's round RNG and of thread count. A disabled transport (the default)
// performs no draws and no accounting: existing runs stay byte-identical.
// Because sessions are keyed per (round, client) — never per server —
// sharded runs (docs/HIERARCHY.md) share this transport unchanged: a client's channel behaves identically no matter which edge
// aggregator owns it, which is what keeps sharded runs bit-identical.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/codec.hpp"
#include "net/wire.hpp"
#include "nn/param.hpp"
#include "util/rng.hpp"

namespace afl::net {

/// One entry of the AFL_FAULTS fault-injection plan. Text syntax:
///   [up.]<drop|corrupt|delay>@<round>:<client>[=<seconds>]
/// joined by "," or ";" — e.g. "drop@2:5,up.corrupt@3:1,delay@4:0=0.25".
/// A fault fires on the first transmission attempt of the matching frame;
/// retries behave like the plain channel.
struct FaultSpec {
  enum class Kind { kDrop, kCorrupt, kDelay };
  Kind kind = Kind::kDrop;
  bool uplink = false;  // "up." prefix targets the return frame
  std::size_t round = 0;
  std::size_t client = 0;
  double delay_s = 0.0;  // kDelay only
};

/// Parses the AFL_FAULTS syntax above; throws std::invalid_argument on
/// malformed specs.
std::vector<FaultSpec> parse_fault_plan(const std::string& plan);

struct NetConfig {
  /// Master switch. Disabled (default) keeps the engine's identity path.
  bool enabled = false;
  Codec codec = Codec::kFp32;
  /// Uplink-only codec override (docs/COMPRESSION.md). Sparse codecs are
  /// delta-coded and only meaningful on return frames, so AFL_NET_CODEC=topk*
  /// lands here (downlink stays `codec`); AFL_NET_UPLINK_CODEC sets it
  /// directly. Unset means the uplink uses `codec` like always.
  std::optional<Codec> uplink_codec;
  /// The codec return frames are encoded with.
  Codec uplink() const { return uplink_codec ? *uplink_codec : codec; }
  ChannelConfig channel;
  /// Retransmissions allowed per frame beyond the first attempt. A frame
  /// lost on every attempt is dropped and its client excluded this round.
  std::size_t max_retries = 3;
  /// Capped exponential backoff between attempts: base * 2^attempt, <= cap.
  double backoff_base_s = 0.05;
  double backoff_cap_s = 2.0;
  /// Per-round deadline in simulated seconds. A client whose downlink +
  /// compute + uplink exceeds it is a straggler: its update arrives too late
  /// and is excluded from aggregation exactly like an availability failure.
  /// 0 disables the deadline.
  double round_deadline_s = 0.0;
  /// Deterministic local-compute term charged against the deadline:
  /// seconds per 1000 trained parameters (0 = communication-only deadline).
  double compute_s_per_kparam = 0.0;
  std::vector<FaultSpec> faults;

  /// Resolves the AFL_NET_* / AFL_FAULTS environment variables (docs/NET.md).
  /// AFL_NET unset or "0" returns a disabled config.
  static NetConfig from_env();
};

/// One simulated transfer (all attempts of one frame).
struct TransferResult {
  bool delivered = false;
  std::size_t bytes = 0;     // on-wire bytes including retransmitted attempts
  std::size_t attempts = 0;  // 1 = no retransmission
  double seconds = 0.0;      // transfer + backoff time of this frame
  /// Portion of `seconds` spent in inter-attempt backoff (0 when the first
  /// attempt delivered). Lifecycle tracing blames it separately from wire
  /// time so retransmission pressure is visible in critical-path reports.
  double backoff_seconds = 0.0;
};

/// A transfer plus its decoded payload (empty when the frame was lost).
struct Delivery {
  TransferResult transfer;
  ParamSet params;
};

class Transport {
 public:
  Transport() = default;  // disabled
  Transport(NetConfig config, std::uint64_t run_seed);

  bool enabled() const { return config_.enabled; }
  const NetConfig& config() const { return config_; }
  Codec codec() const { return config_.codec; }
  Codec uplink_codec() const { return config_.uplink(); }

  /// Deterministic straggler term for `params` trained parameters.
  double compute_seconds(std::size_t params) const {
    return config_.compute_s_per_kparam * static_cast<double>(params) / 1000.0;
  }

  /// Simulated clock of one client's dispatch. Transfer time (frames,
  /// backoff, re-uploads) accumulates freely; local compute is charged at
  /// most once per dispatch — a retransmitted update was already trained, so
  /// retries re-pay the wire, never the training.
  class ClientClock {
   public:
    double elapsed_seconds() const { return elapsed_; }
    void add_transfer(double s) { elapsed_ += s; }
    /// Charges local-compute time; returns false (a no-op) when this
    /// dispatch's compute was already charged.
    bool charge_compute(double s) {
      if (compute_charged_) return false;
      compute_charged_ = true;
      elapsed_ += s;
      return true;
    }
    bool compute_charged() const { return compute_charged_; }

    /// Snapshot restore (docs/POPULATION.md): reinstates a serialized clock.
    void restore(double elapsed, bool compute_charged) {
      elapsed_ = elapsed;
      compute_charged_ = compute_charged;
    }

   private:
    double elapsed_ = 0.0;
    bool compute_charged_ = false;
  };

  /// Per-client transfer state for one round: the private channel RNG and the
  /// client's simulated clock (downlink + compute + uplink), checked against
  /// the round deadline by the engine.
  class Session {
   public:
    Session() = default;
    double elapsed_seconds() const { return clock_.elapsed_seconds(); }
    void add_seconds(double s) { clock_.add_transfer(s); }
    ClientClock& clock() { return clock_; }
    const ClientClock& clock() const { return clock_; }
    std::size_t round() const { return round_; }
    std::size_t client() const { return client_; }

    /// Snapshot accessors (docs/POPULATION.md): the channel RNG position and
    /// identity of an in-flight session, so async dispatches survive engine
    /// snapshot/resume mid-transfer with bit-identical draws.
    Rng::State rng_state() const { return rng_.state(); }
    void restore(std::size_t round, std::size_t client, const Rng::State& rng,
                 double elapsed, bool compute_charged) {
      round_ = round;
      client_ = client;
      rng_.set_state(rng);
      clock_ = ClientClock();
      clock_.restore(elapsed, compute_charged);
    }

   private:
    friend class Transport;
    Rng rng_{0};
    std::size_t round_ = 0;
    std::size_t client_ = 0;
    ClientClock clock_;
  };

  Session session(std::size_t round, std::size_t client) const;

  /// Per-client channel overrides (src/pop/, docs/POPULATION.md). When the
  /// table is non-empty, send() routes client c through client_channels[c]
  /// instead of the shared config().channel; an empty table (the default)
  /// keeps the single-channel behavior byte-identical. Clients beyond the
  /// table fall back to the shared channel.
  void set_client_channels(std::vector<ChannelConfig> channels) {
    client_channels_ = std::move(channels);
  }
  const ChannelConfig& channel_for(std::size_t client) const {
    return client < client_channels_.size() ? client_channels_[client]
                                            : config_.channel;
  }

  /// Ships `payload` as one frame through the channel, retrying lost or
  /// corrupt frames with capped exponential backoff, and charges the real
  /// frame's bytes. Accumulates simulated time into the session.
  Delivery send(Session& session, FrameKind kind, const ParamSet& payload) const;

 private:
  const FaultSpec* fault_for(FrameKind kind, std::size_t round,
                             std::size_t client) const;

  NetConfig config_;
  std::uint64_t seed_ = 0;
  std::vector<ChannelConfig> client_channels_;
};

}  // namespace afl::net
