#include "pop/population.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace afl::pop {
namespace {

// Stream salt for every population draw ("aflpop01"), XORed into the run
// seed so pop streams can never collide with engine / transport streams.
// The second derive word tags the sub-stream: 0 = ring phase, 1 = dark
// blocks, 2 = channel profiles.
constexpr std::uint64_t kPopSeedSalt = 0x61666c706f703031ULL;
constexpr std::uint64_t kStreamPhase = 0;
constexpr std::uint64_t kStreamDark = 1;
constexpr std::uint64_t kStreamChannel = 2;

// Reference frame for the channel-quality feature: one 64 KiB dispatch.
constexpr std::size_t kQualityRefBytes = 64 * 1024;

double frac(double x) { return x - std::floor(x); }

}  // namespace

std::unique_ptr<Population> Population::create(const PopConfig& config,
                                               std::size_t num_clients,
                                               std::uint64_t seed) {
  if (!config.enabled) return nullptr;
  return std::unique_ptr<Population>(new Population(config, num_clients, seed));
}

Population::Population(const PopConfig& config, std::size_t num_clients,
                       std::uint64_t seed)
    : config_(config), num_clients_(num_clients), seed_(seed) {
  phase_.resize(num_clients_);
  for (std::size_t c = 0; c < num_clients_; ++c) {
    phase_[c] = Rng::derive(seed_ ^ kPopSeedSalt, kStreamPhase, 0, c).uniform();
  }

  if (!config_.trace_path.empty()) {
    std::ifstream in(config_.trace_path);
    if (!in.good()) {
      throw std::runtime_error("pop: cannot open churn trace " + config_.trace_path);
    }
    scripts_.resize(num_clients_);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream fields(line);
      std::string verb;
      if (!(fields >> verb)) continue;  // blank / comment-only line
      auto bad = [&](const char* why) {
        throw std::runtime_error("pop: " + config_.trace_path + ":" +
                                 std::to_string(lineno) + ": " + why);
      };
      std::size_t client = 0, round = 0;
      if (!(fields >> client >> round)) bad("expected <client> <round>");
      if (client >= num_clients_) bad("client index out of range");
      Script& s = scripts_[client];
      s.used = true;
      if (verb == "join") {
        s.toggles.emplace_back(round, true);
      } else if (verb == "leave") {
        s.toggles.emplace_back(round, false);
      } else if (verb == "dark") {
        std::size_t len = 0;
        if (!(fields >> len) || len == 0) bad("dark needs a positive <len>");
        s.dark.emplace_back(round, round + len);
      } else {
        bad("unknown verb (expected join/leave/dark)");
      }
    }
    for (Script& s : scripts_) {
      std::stable_sort(s.toggles.begin(), s.toggles.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      // Before its first join/leave record a scripted client is present
      // unless that first record is the join itself.
      s.initial_present = s.toggles.empty() || !s.toggles.front().second;
    }
  }
}

bool Population::member_at(std::size_t client, std::size_t round) const {
  if (!scripts_.empty() && scripts_[client].used) {
    const Script& s = scripts_[client];
    bool present = s.initial_present;
    for (const auto& [r, p] : s.toggles) {
      if (r > round) break;
      present = p;
    }
    return present;
  }
  if (config_.active_frac >= 1.0) return true;
  const std::size_t epoch =
      config_.rotate_every > 0 ? round / config_.rotate_every : 0;
  // The active window is [0, active_frac) on the phase ring; each epoch the
  // ring rotates by rotate_frac * active_frac, so that fraction of the
  // active set crosses the boundary out (departs) while an equal measure
  // rotates in (joins) — constant active population, exact rotation rate.
  const double shift = config_.rotate_frac * config_.active_frac;
  const double pos = frac(phase_[client] + static_cast<double>(epoch) * shift);
  return pos < config_.active_frac;
}

bool Population::dark_at(std::size_t client, std::size_t round) const {
  if (!scripts_.empty() && scripts_[client].used) {
    for (const auto& [start, end] : scripts_[client].dark) {
      if (round >= start && round < end) return true;
    }
    return false;
  }
  if (config_.dark_prob <= 0.0) return false;
  const std::size_t len = config_.dark_len == 0 ? 1 : config_.dark_len;
  const std::size_t block = round / len;
  return Rng::derive(seed_ ^ kPopSeedSalt, kStreamDark, block, client).uniform() <
         config_.dark_prob;
}

Presence Population::state(std::size_t client, std::size_t round) const {
  if (!member_at(client, round)) return Presence::kAbsent;
  if (dark_at(client, round)) return Presence::kDark;
  return Presence::kPresent;
}

void Population::sample_channels(const net::ChannelConfig& base) {
  if (!config_.channels) return;
  channels_.assign(num_clients_, base);
  quality_.assign(num_clients_, 1.0);
  for (std::size_t c = 0; c < num_clients_; ++c) {
    Rng rng = Rng::derive(seed_ ^ kPopSeedSalt, kStreamChannel, 0, c);
    net::ChannelConfig& ch = channels_[c];
    if (base.bandwidth_bytes_per_s > 0.0 && config_.bw_spread > 0.0) {
      const double log_span = std::log1p(config_.bw_spread);
      ch.bandwidth_bytes_per_s =
          base.bandwidth_bytes_per_s * std::exp(rng.uniform(-log_span, log_span));
    }
    if (config_.latency_spread > 0.0) {
      ch.latency_s = base.latency_s * rng.uniform(1.0, 1.0 + config_.latency_spread);
    }
    if (config_.loss_max > base.loss_prob) {
      ch.loss_prob = rng.uniform(base.loss_prob, config_.loss_max);
    }
  }
  // Quality feature: loss-discounted goodput on a reference frame, scaled so
  // the best client scores 1.0.
  double best = 0.0;
  for (std::size_t c = 0; c < num_clients_; ++c) {
    const net::ChannelConfig& ch = channels_[c];
    const double t = std::max(net::transfer_seconds(ch, kQualityRefBytes), 1e-9);
    quality_[c] = (1.0 - ch.loss_prob) / t;
    best = std::max(best, quality_[c]);
  }
  if (best > 0.0) {
    for (double& q : quality_) q /= best;
  } else {
    std::fill(quality_.begin(), quality_.end(), 1.0);
  }
}

RoundChurn Population::round_churn(std::size_t round) const {
  RoundChurn churn;
  for (std::size_t c = 0; c < num_clients_; ++c) {
    const Presence now = state(c, round);
    if (now != Presence::kAbsent) ++churn.active;
    if (now == Presence::kDark) ++churn.dark;
    if (round > 0) {
      const bool was_absent = state(c, round - 1) == Presence::kAbsent;
      const bool is_absent = now == Presence::kAbsent;
      if (was_absent && !is_absent) ++churn.joins;
      if (!was_absent && is_absent) ++churn.departures;
    }
  }
  // round_churn counts dark clients inside `active` (they are members, just
  // unreachable); callers wanting reachable counts subtract `dark`.
  return churn;
}

}  // namespace afl::pop
