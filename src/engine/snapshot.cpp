#include "engine/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/env.hpp"

namespace afl::engine {

SnapshotPlan SnapshotPlan::resolve(const FlRunConfig& config) {
  SnapshotPlan plan;
  plan.snapshot_path =
      config.snapshot_path ? *config.snapshot_path : env_or("AFL_SNAPSHOT", "");
  plan.snapshot_every =
      config.snapshot_every
          ? *config.snapshot_every
          : static_cast<std::size_t>(std::max(0, env_or("AFL_SNAPSHOT_EVERY", 1)));
  plan.stop_after_round =
      config.stop_after_round
          ? *config.stop_after_round
          : static_cast<std::size_t>(std::max(0, env_or("AFL_STOP_AFTER", 0)));
  plan.resume_from =
      config.resume_from ? *config.resume_from : env_or("AFL_RESUME", "");
  return plan;
}

std::size_t snapshot_header(SnapshotStream& s, const std::string& format,
                            const FlRunConfig& config, const std::string& algorithm,
                            std::size_t round) {
  std::string got_format = format;
  s.str(got_format);
  if (got_format != format) {
    throw std::runtime_error("snapshot: format mismatch (file is \"" + got_format +
                             "\", engine expects \"" + format + "\")");
  }
  std::string got_algo = algorithm;
  s.str(got_algo);
  if (got_algo != algorithm) {
    throw std::runtime_error("snapshot: algorithm mismatch (file is \"" + got_algo +
                             "\", run is \"" + algorithm + "\")");
  }
  std::uint64_t seed = config.seed, rounds = config.rounds,
                clients_per_round = config.clients_per_round;
  s.u64(seed);
  s.u64(rounds);
  s.u64(clients_per_round);
  if (seed != config.seed || rounds != config.rounds ||
      clients_per_round != config.clients_per_round) {
    throw std::runtime_error(
        "snapshot: run fingerprint mismatch (seed/rounds/clients_per_round "
        "differ from the resuming config)");
  }
  s.u64(round);
  return round;
}

void snapshot_rng(SnapshotStream& s, Rng::State& st) {
  for (std::uint64_t& word : st.s) s.u64(word);
  s.flag(st.has_cached_normal);
  s.f64(st.cached_normal);
}

void snapshot_result(SnapshotStream& s, RunResult& result) {
  s.str(result.algorithm);
  s.items(result.curve, 5 * sizeof(std::uint64_t), "curve point", [&](RoundRecord& rec) {
    s.u64(rec.round);
    s.f64(rec.full_acc);
    s.f64(rec.avg_acc);
    s.f64(rec.comm_waste);
    s.f64(rec.round_waste);
  });
  s.f64(result.final_full_acc);
  s.f64(result.final_avg_acc);
  // std::map: saved sorted by name.
  s.entries(result.level_acc, 2 * sizeof(std::uint64_t), "level accuracy",
            [&](std::string& name, double& acc) {
              s.str(name);
              s.f64(acc);
            });
  result.comm.snapshot(s);
  s.u64(result.failed_trainings);
  s.f64(result.sim_seconds);
  s.items(result.time_to_acc, 3 * sizeof(std::uint64_t), "time-to-accuracy point",
          [&](TimeToAcc& t) {
            s.f64(t.accuracy);
            s.f64(t.sim_seconds);
            s.u64(t.round);
          });
}

}  // namespace afl::engine
