#include "engine/snapshot.hpp"

#include <algorithm>
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

void write_header(SnapshotWriter& w, const std::string& format,
                  const FlRunConfig& config, const std::string& algorithm,
                  std::size_t round) {
  w.str(format);
  w.str(algorithm);
  w.u64(config.seed);
  w.u64(config.rounds);
  w.u64(config.clients_per_round);
  w.u64(round);
}

std::size_t read_header(SnapshotReader& r, const std::string& format,
                        const FlRunConfig& config, const std::string& algorithm) {
  const std::string got_format = r.str();
  if (got_format != format) {
    throw std::runtime_error("snapshot: format mismatch (file is \"" + got_format +
                             "\", engine expects \"" + format + "\")");
  }
  const std::string got_algo = r.str();
  if (got_algo != algorithm) {
    throw std::runtime_error("snapshot: algorithm mismatch (file is \"" + got_algo +
                             "\", run is \"" + algorithm + "\")");
  }
  const std::uint64_t seed = r.u64();
  const std::uint64_t rounds = r.u64();
  const std::uint64_t clients_per_round = r.u64();
  if (seed != config.seed || rounds != config.rounds ||
      clients_per_round != config.clients_per_round) {
    throw std::runtime_error(
        "snapshot: run fingerprint mismatch (seed/rounds/clients_per_round "
        "differ from the resuming config)");
  }
  return static_cast<std::size_t>(r.u64());
}

void write_rng(SnapshotWriter& w, const Rng::State& st) {
  for (int i = 0; i < 4; ++i) w.u64(st.s[i]);
  w.u64(st.has_cached_normal ? 1 : 0);
  w.f64(st.cached_normal);
}

Rng::State read_rng(SnapshotReader& r) {
  Rng::State st;
  for (int i = 0; i < 4; ++i) st.s[i] = r.u64();
  st.has_cached_normal = r.u64() != 0;
  st.cached_normal = r.f64();
  return st;
}

void write_comm(SnapshotWriter& w, const CommStats& comm) {
  const CommStats::State st = comm.state();
  w.u64(st.sent);
  w.u64(st.back);
  w.u64(st.bytes_sent);
  w.u64(st.bytes_back);
  w.u64(st.retransmits);
  w.u64(st.stragglers);
  w.u64(st.drops);
  w.u64(st.round_sent_mark);
  w.u64(st.round_back_mark);
  w.u64(st.round_bytes_sent_mark);
  w.u64(st.round_bytes_back_mark);
  w.u64(st.round_retransmits_mark);
  w.u64(st.round_stragglers_mark);
}

void read_comm(SnapshotReader& r, CommStats& comm) {
  CommStats::State st;
  st.sent = r.u64();
  st.back = r.u64();
  st.bytes_sent = r.u64();
  st.bytes_back = r.u64();
  st.retransmits = r.u64();
  st.stragglers = r.u64();
  st.drops = r.u64();
  st.round_sent_mark = r.u64();
  st.round_back_mark = r.u64();
  st.round_bytes_sent_mark = r.u64();
  st.round_bytes_back_mark = r.u64();
  st.round_retransmits_mark = r.u64();
  st.round_stragglers_mark = r.u64();
  comm.set_state(st);
}

void write_result(SnapshotWriter& w, const RunResult& result) {
  w.str(result.algorithm);
  w.u64(result.curve.size());
  for (const RoundRecord& rec : result.curve) {
    w.u64(rec.round);
    w.f64(rec.full_acc);
    w.f64(rec.avg_acc);
    w.f64(rec.comm_waste);
    w.f64(rec.round_waste);
  }
  w.f64(result.final_full_acc);
  w.f64(result.final_avg_acc);
  w.u64(result.level_acc.size());
  for (const auto& [name, acc] : result.level_acc) {  // std::map: sorted
    w.str(name);
    w.f64(acc);
  }
  write_comm(w, result.comm);
  w.u64(result.failed_trainings);
  w.f64(result.sim_seconds);
  w.u64(result.time_to_acc.size());
  for (const TimeToAcc& t : result.time_to_acc) {
    w.f64(t.accuracy);
    w.f64(t.sim_seconds);
    w.u64(t.round);
  }
}

void read_result(SnapshotReader& r, RunResult& result) {
  result.algorithm = r.str();
  result.curve.resize(r.u64());
  for (RoundRecord& rec : result.curve) {
    rec.round = r.u64();
    rec.full_acc = r.f64();
    rec.avg_acc = r.f64();
    rec.comm_waste = r.f64();
    rec.round_waste = r.f64();
  }
  result.final_full_acc = r.f64();
  result.final_avg_acc = r.f64();
  result.level_acc.clear();
  const std::uint64_t levels = r.u64();
  for (std::uint64_t i = 0; i < levels; ++i) {
    const std::string name = r.str();
    result.level_acc[name] = r.f64();
  }
  read_comm(r, result.comm);
  result.failed_trainings = r.u64();
  result.sim_seconds = r.f64();
  result.time_to_acc.resize(r.u64());
  for (TimeToAcc& t : result.time_to_acc) {
    t.accuracy = r.f64();
    t.sim_seconds = r.f64();
    t.round = r.u64();
  }
}

}  // namespace afl::engine
