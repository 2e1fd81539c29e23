#include "net/transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/prof/prof.hpp"
#include "util/env.hpp"

namespace afl::net {
namespace {

/// Salt folded into the run seed so transport streams never collide with the
/// engine's per-client training streams (which use the raw seed).
constexpr std::uint64_t kNetSeedSalt = 0x6166'6c6e'6574'3031ULL;  // "aflnet01"

FaultSpec::Kind parse_kind(const std::string& word, const std::string& full) {
  if (word == "drop") return FaultSpec::Kind::kDrop;
  if (word == "corrupt") return FaultSpec::Kind::kCorrupt;
  if (word == "delay") return FaultSpec::Kind::kDelay;
  throw std::invalid_argument("AFL_FAULTS: unknown fault kind in \"" + full + "\"");
}

}  // namespace

std::vector<FaultSpec> parse_fault_plan(const std::string& plan) {
  std::vector<FaultSpec> out;
  std::size_t pos = 0;
  while (pos < plan.size()) {
    std::size_t sep = plan.find_first_of(",;", pos);
    if (sep == std::string::npos) sep = plan.size();
    std::string item = plan.substr(pos, sep - pos);
    pos = sep + 1;
    // Trim surrounding whitespace.
    const std::size_t b = item.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    item = item.substr(b, item.find_last_not_of(" \t") - b + 1);

    FaultSpec spec;
    std::string rest = item;
    if (rest.rfind("up.", 0) == 0) {
      spec.uplink = true;
      rest = rest.substr(3);
    }
    const std::size_t at = rest.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("AFL_FAULTS: missing '@' in \"" + item + "\"");
    }
    spec.kind = parse_kind(rest.substr(0, at), item);
    std::string target = rest.substr(at + 1);
    const std::size_t eq = target.find('=');
    if (eq != std::string::npos) {
      if (spec.kind != FaultSpec::Kind::kDelay) {
        throw std::invalid_argument("AFL_FAULTS: '=' only valid for delay in \"" +
                                    item + "\"");
      }
      spec.delay_s = std::stod(target.substr(eq + 1));
      target = target.substr(0, eq);
    } else if (spec.kind == FaultSpec::Kind::kDelay) {
      throw std::invalid_argument("AFL_FAULTS: delay needs '=<seconds>' in \"" +
                                  item + "\"");
    }
    const std::size_t colon = target.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("AFL_FAULTS: expected round:client in \"" + item +
                                  "\"");
    }
    try {
      spec.round = static_cast<std::size_t>(std::stoull(target.substr(0, colon)));
      spec.client = static_cast<std::size_t>(std::stoull(target.substr(colon + 1)));
    } catch (const std::exception&) {
      throw std::invalid_argument("AFL_FAULTS: bad round:client in \"" + item + "\"");
    }
    out.push_back(spec);
  }
  return out;
}

NetConfig NetConfig::from_env() {
  NetConfig cfg;
  const std::string master = env_or("AFL_NET", "");
  if (master.empty() || master == "0") return cfg;
  cfg.enabled = true;
  const Codec parsed = codec_parse(env_or("AFL_NET_CODEC", "fp32"), "AFL_NET_CODEC");
  if (codec_is_sparse(parsed)) {
    // Sparse codecs only make sense on the delta-coded uplink: the downlink
    // ships full parameter sets, which top-k would destroy. AFL_NET_CODEC=
    // topk* therefore means "sparse uplink, fp32 downlink".
    cfg.uplink_codec = parsed;
  } else {
    cfg.codec = parsed;
  }
  const std::string up = env_or("AFL_NET_UPLINK_CODEC", "");
  if (!up.empty()) cfg.uplink_codec = codec_parse(up, "AFL_NET_UPLINK_CODEC");
  // Megabits/s on the knob, bytes/s in the model.
  cfg.channel.bandwidth_bytes_per_s = env_or("AFL_NET_BW_MBPS", 0.0) * 1e6 / 8.0;
  cfg.channel.latency_s = env_or("AFL_NET_LATENCY_MS", 0.0) / 1e3;
  cfg.channel.loss_prob = env_or("AFL_NET_LOSS", 0.0);
  cfg.max_retries = static_cast<std::size_t>(std::max(0, env_or("AFL_NET_RETRIES", 3)));
  cfg.backoff_base_s = env_or("AFL_NET_BACKOFF_MS", 50.0) / 1e3;
  cfg.backoff_cap_s = env_or("AFL_NET_BACKOFF_CAP_MS", 2000.0) / 1e3;
  cfg.round_deadline_s = env_or("AFL_NET_DEADLINE_MS", 0.0) / 1e3;
  cfg.compute_s_per_kparam = env_or("AFL_NET_COMPUTE_MS_PER_KPARAM", 0.0) / 1e3;
  const std::string faults = env_or("AFL_FAULTS", "");
  if (!faults.empty()) cfg.faults = parse_fault_plan(faults);
  return cfg;
}

Transport::Transport(NetConfig config, std::uint64_t run_seed)
    : config_(std::move(config)), seed_(run_seed) {
  if (codec_is_sparse(config_.codec)) {
    // Normalize a sparse codec placed on the shared knob: route it to the
    // uplink and keep the downlink dense (see NetConfig::uplink_codec).
    if (!config_.uplink_codec) config_.uplink_codec = config_.codec;
    config_.codec = Codec::kFp32;
  }
}

Transport::Session Transport::session(std::size_t round, std::size_t client) const {
  Session s;
  s.rng_ = Rng::derive(seed_ ^ kNetSeedSalt, round, client);
  s.round_ = round;
  s.client_ = client;
  return s;
}

const FaultSpec* Transport::fault_for(FrameKind kind, std::size_t round,
                                      std::size_t client) const {
  for (const FaultSpec& f : config_.faults) {
    if (f.round == round && f.client == client &&
        f.uplink == (kind == FrameKind::kReturn)) {
      return &f;
    }
  }
  return nullptr;
}

Delivery Transport::send(Session& session, FrameKind kind,
                         const ParamSet& payload) const {
  AFL_PROF_SPAN("net.send");
  Delivery out;
  const Codec codec =
      kind == FrameKind::kReturn ? config_.uplink() : config_.codec;
  const std::vector<std::uint8_t> frame =
      encode_frame({kind, codec, session.round_, session.client_}, payload);
  const FaultSpec* fault = fault_for(kind, session.round_, session.client_);
  const ChannelConfig& channel = channel_for(session.client_);

  for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    ++out.transfer.attempts;
    out.transfer.bytes += frame.size();
    double seconds = transfer_seconds(channel, frame.size());
    const FaultSpec* f = attempt == 0 ? fault : nullptr;
    if (f != nullptr && f->kind == FaultSpec::Kind::kDelay) seconds += f->delay_s;
    session.add_seconds(seconds);
    out.transfer.seconds += seconds;

    bool lost = false;
    if (f != nullptr && f->kind == FaultSpec::Kind::kDrop) {
      lost = true;
    } else if (f != nullptr && f->kind == FaultSpec::Kind::kCorrupt) {
      // Genuinely flip a payload byte and let the wire CRC catch it — this
      // is the integrity path the retransmission recovers from.
      std::vector<std::uint8_t> corrupted = frame;
      corrupted[corrupted.size() / 2] ^= 0x5Au;
      try {
        (void)decode_frame(corrupted);
        throw std::logic_error("net: corrupted frame passed CRC");
      } catch (const WireError&) {
        lost = true;
      }
    } else if (attempt_lost(channel, session.rng_)) {
      lost = true;
    }

    if (!lost) {
      out.transfer.delivered = true;
      out.params = decode_frame(frame);
      return out;
    }
    if (attempt < config_.max_retries) {
      const double backoff =
          std::min(config_.backoff_cap_s,
                   config_.backoff_base_s * static_cast<double>(1ULL << attempt));
      session.add_seconds(backoff);
      out.transfer.seconds += backoff;
      out.transfer.backoff_seconds += backoff;
    }
  }
  return out;  // every attempt lost: the frame is dropped
}

}  // namespace afl::net
