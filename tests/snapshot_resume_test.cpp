// Engine snapshot/resume bit-identity (docs/POPULATION.md): a run stopped at
// round k and resumed from its snapshot must produce a RunResult identical —
// down to the last bit of every double — to the uninterrupted run, on all
// three engines (sync, async, hier) and at any thread count. Wall-clock
// fields (wall_seconds, round_metrics) are outside the contract.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "pop/config.hpp"

namespace afl {
namespace {

/// Exact (bitwise) equality of the deterministic RunResult portion.
void expect_identical(const RunResult& resumed, const RunResult& full) {
  EXPECT_EQ(resumed.algorithm, full.algorithm);
  ASSERT_EQ(resumed.curve.size(), full.curve.size());
  for (std::size_t i = 0; i < full.curve.size(); ++i) {
    EXPECT_EQ(resumed.curve[i].round, full.curve[i].round);
    EXPECT_EQ(resumed.curve[i].full_acc, full.curve[i].full_acc);
    EXPECT_EQ(resumed.curve[i].avg_acc, full.curve[i].avg_acc);
    EXPECT_EQ(resumed.curve[i].comm_waste, full.curve[i].comm_waste);
    EXPECT_EQ(resumed.curve[i].round_waste, full.curve[i].round_waste);
  }
  EXPECT_EQ(resumed.final_full_acc, full.final_full_acc);
  EXPECT_EQ(resumed.final_avg_acc, full.final_avg_acc);
  EXPECT_EQ(resumed.level_acc, full.level_acc);
  EXPECT_EQ(resumed.comm.params_sent(), full.comm.params_sent());
  EXPECT_EQ(resumed.comm.params_returned(), full.comm.params_returned());
  EXPECT_EQ(resumed.comm.bytes_sent(), full.comm.bytes_sent());
  EXPECT_EQ(resumed.comm.bytes_returned(), full.comm.bytes_returned());
  EXPECT_EQ(resumed.comm.retransmits(), full.comm.retransmits());
  EXPECT_EQ(resumed.comm.stragglers(), full.comm.stragglers());
  EXPECT_EQ(resumed.comm.drops(), full.comm.drops());
  EXPECT_EQ(resumed.failed_trainings, full.failed_trainings);
  EXPECT_EQ(resumed.sim_seconds, full.sim_seconds);
  ASSERT_EQ(resumed.time_to_acc.size(), full.time_to_acc.size());
  for (std::size_t i = 0; i < full.time_to_acc.size(); ++i) {
    EXPECT_EQ(resumed.time_to_acc[i].accuracy, full.time_to_acc[i].accuracy);
    EXPECT_EQ(resumed.time_to_acc[i].sim_seconds, full.time_to_acc[i].sim_seconds);
    EXPECT_EQ(resumed.time_to_acc[i].round, full.time_to_acc[i].round);
  }
}

/// Tiny transport-backed environment: 8 clients, 6 rounds, fp16 frames.
ExperimentEnv small_env() {
  ExperimentConfig cfg;
  cfg.num_clients = 8;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 10;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 6;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  ExperimentEnv env = make_env(cfg);
  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kFp16;
  net.channel.bandwidth_bytes_per_s = 512 * 1024.0;
  net.channel.latency_s = 0.01;
  net.compute_s_per_kparam = 0.05;
  env.run.net = net;
  env.run.pop = pop::PopConfig{};  // insulate from AFL_POP_* in the env
  return env;
}

std::string snap_path(const std::string& tag) {
  return ::testing::TempDir() + "resume_" + tag + ".snap";
}

/// Runs the kill-at-round-k / resume / compare protocol on `env` as
/// configured (engine choice via env.run.async / env.run.hier).
void check_resume(ExperimentEnv env, const std::string& tag,
                  std::size_t stop_after,
                  Algorithm algo = Algorithm::kAdaptiveFl) {
  const RunResult full = run_algorithm(algo, env);

  const std::string path = snap_path(tag);
  env.run.snapshot_path = path;
  env.run.snapshot_every = std::size_t{1};
  env.run.stop_after_round = stop_after;
  env.run.resume_from = std::string{};
  const RunResult partial = run_algorithm(algo, env);
  EXPECT_LT(partial.curve.size(), full.curve.size());

  env.run.snapshot_path = std::string{};  // saving off on the resumed leg
  env.run.stop_after_round = std::size_t{0};
  env.run.resume_from = path;
  const RunResult resumed = run_algorithm(algo, env);
  expect_identical(resumed, full);
  std::remove(path.c_str());
}

TEST(SnapshotResume, SyncEngineBitIdentical) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ExperimentEnv env = small_env();
    env.run.threads = threads;
    check_resume(env, "sync_t" + std::to_string(threads), 3);
  }
}

TEST(SnapshotResume, BaselinePoliciesBitIdentical) {
  // Every policy must either resume bit-identically or refuse loudly; the
  // baselines' persistent state is exactly their global parameter set(s).
  const std::pair<Algorithm, const char*> algos[] = {
      {Algorithm::kAllLarge, "all_large"},
      {Algorithm::kDecoupled, "decoupled"},
      {Algorithm::kHeteroFl, "heterofl"},
      {Algorithm::kScaleFl, "scalefl"},
  };
  for (const auto& [algo, tag] : algos) {
    SCOPED_TRACE(tag);
    check_resume(small_env(), std::string("baseline_") + tag, 3, algo);
  }
}

TEST(SnapshotResume, SyncEngineUnderChurnBitIdentical) {
  // Churn adds presence churn + per-client channels on top; presence is a
  // pure function of (seed, round, client), so resume needs no churn state.
  ExperimentEnv env = small_env();
  pop::PopConfig storm;
  storm.enabled = true;
  storm.active_frac = 0.75;
  storm.rotate_every = 2;
  storm.rotate_frac = 0.4;
  storm.dark_prob = 0.1;
  storm.channels = true;
  storm.bw_spread = 1.0;
  env.run.pop = storm;
  check_resume(env, "sync_churn", 3);
}

TEST(SnapshotResume, AsyncEngineBitIdentical) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ExperimentEnv env = small_env();
    env.run.threads = threads;
    async::AsyncConfig acfg;
    acfg.enabled = true;
    acfg.buffer_size = 3;
    acfg.concurrency = 5;
    acfg.staleness_alpha = 0.3;
    env.run.async = acfg;
    env.run.net->round_deadline_s = 0.0;
    // rounds counts buffer flushes under the async engine; the snapshot cuts
    // at a flush boundary with dispatches still in flight.
    check_resume(env, "async_t" + std::to_string(threads), 3);
  }
}

TEST(SnapshotResume, HierEngineBitIdentical) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ExperimentEnv env = small_env();
    env.run.threads = threads;
    hier::HierConfig hcfg;
    hcfg.enabled = true;
    hcfg.shards = 2;
    hcfg.sync_every = 2;  // snapshots cut only at root-sync boundaries
    env.run.hier = hcfg;
    check_resume(env, "hier_t" + std::to_string(threads), 4);
  }
}

// Sparse-uplink variants (docs/COMPRESSION.md): the per-client error-feedback
// residuals are engine state — a resume that lost them would ship different
// masked deltas from round k+1 on and diverge. Each engine must carry the
// compressor section through its AFLSNAP1 snapshot bit-identically.

TEST(SnapshotResume, SyncEngineWithCompressionBitIdentical) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ExperimentEnv env = small_env();
    env.run.threads = threads;
    env.run.net->uplink_codec = net::Codec::kTopK10;
    check_resume(env, "sync_topk_t" + std::to_string(threads), 3);
  }
}

TEST(SnapshotResume, AsyncEngineWithCompressionBitIdentical) {
  // The async snapshot additionally freezes each in-flight dispatch's upload
  // reference (the masked delta is encoded exactly once per dispatch).
  ExperimentEnv env = small_env();
  env.run.net->uplink_codec = net::Codec::kTopK10;
  async::AsyncConfig acfg;
  acfg.enabled = true;
  acfg.buffer_size = 3;
  acfg.concurrency = 5;
  acfg.staleness_alpha = 0.3;
  env.run.async = acfg;
  env.run.net->round_deadline_s = 0.0;
  check_resume(env, "async_topk", 3);
}

TEST(SnapshotResume, HierEngineWithCompressionBitIdentical) {
  ExperimentEnv env = small_env();
  env.run.net->uplink_codec = net::Codec::kTopK10;
  hier::HierConfig hcfg;
  hcfg.enabled = true;
  hcfg.shards = 2;
  hcfg.sync_every = 2;
  env.run.hier = hcfg;
  check_resume(env, "hier_topk", 4);
}

TEST(SnapshotResume, CompressionUnderChurnBitIdentical) {
  // Churn + compression: departed clients' residuals are dropped during
  // planning, which must replay identically on the resumed leg.
  ExperimentEnv env = small_env();
  env.run.net->uplink_codec = net::Codec::kTopK10;
  pop::PopConfig storm;
  storm.enabled = true;
  storm.active_frac = 0.75;
  storm.rotate_every = 2;
  storm.rotate_frac = 0.4;
  storm.dark_prob = 0.1;
  env.run.pop = storm;
  check_resume(env, "sync_topk_churn", 3);
}

TEST(SnapshotResume, CorruptedSnapshotIsRejected) {
  ExperimentEnv env = small_env();
  const std::string path = snap_path("corrupt");
  env.run.snapshot_path = path;
  env.run.snapshot_every = std::size_t{1};
  env.run.stop_after_round = std::size_t{3};
  run_algorithm(Algorithm::kAdaptiveFl, env);

  // Flip one byte in the middle of the file: the CRC-verified container must
  // refuse the whole snapshot, whatever field the flip landed in.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 16);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  f.seekp(size / 2);
  byte = static_cast<char>(byte ^ 0x5a);
  f.write(&byte, 1);
  f.close();

  env.run.snapshot_path = std::string{};
  env.run.stop_after_round = std::size_t{0};
  env.run.resume_from = path;
  EXPECT_THROW(run_algorithm(Algorithm::kAdaptiveFl, env), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotResume, WrongEngineSnapshotIsRejected) {
  // Each mode writes its own snapshot format (flat sync, async, sharded
  // hier); resuming one under another must refuse, not misread the state.
  enum class Mode { kSync, kAsync, kHier };
  const auto configure = [](ExperimentEnv& env, Mode mode) {
    if (mode == Mode::kAsync) {
      async::AsyncConfig acfg;
      acfg.enabled = true;
      acfg.buffer_size = 3;
      env.run.async = acfg;
      env.run.net->round_deadline_s = 0.0;
    } else if (mode == Mode::kHier) {
      hier::HierConfig hcfg;
      hcfg.enabled = true;
      hcfg.shards = 2;
      env.run.hier = hcfg;
    }
  };
  const std::pair<Mode, Mode> cases[] = {
      {Mode::kSync, Mode::kAsync},
      {Mode::kSync, Mode::kHier},
      {Mode::kHier, Mode::kSync},
  };
  const char* const names[] = {"sync", "async", "hier"};
  for (const auto& [writer, reader] : cases) {
    SCOPED_TRACE(std::string(names[static_cast<int>(writer)]) + " -> " +
                 names[static_cast<int>(reader)]);
    ExperimentEnv env = small_env();
    const std::string path = snap_path("wrong_engine");
    env.run.snapshot_path = path;
    env.run.snapshot_every = std::size_t{1};
    env.run.stop_after_round = std::size_t{3};
    configure(env, writer);
    run_algorithm(Algorithm::kAdaptiveFl, env);

    env = small_env();
    env.run.resume_from = path;
    configure(env, reader);
    EXPECT_THROW(run_algorithm(reader == Mode::kAsync
                                   ? Algorithm::kAdaptiveFlAsync
                                   : Algorithm::kAdaptiveFl,
                               env),
                 std::runtime_error);
    std::remove(path.c_str());
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotResume, AsyncSnapshotBytesIndependentOfRunAndThreads) {
  // Snapshot contract: identical logical state gives identical bytes. The
  // async snapshot holds trained-but-uncommitted updates in flight, whose
  // wall-clock training time must therefore stay out of the file.
  std::vector<std::string> files;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{1}, std::size_t{4}}) {
    ExperimentEnv env = small_env();
    env.run.threads = threads;
    async::AsyncConfig acfg;
    acfg.enabled = true;
    acfg.buffer_size = 3;
    acfg.concurrency = 5;
    env.run.async = acfg;
    env.run.net->round_deadline_s = 0.0;
    const std::string path = snap_path("async_bytes");
    env.run.snapshot_path = path;
    env.run.snapshot_every = std::size_t{1};
    env.run.stop_after_round = std::size_t{3};
    run_algorithm(Algorithm::kAdaptiveFlAsync, env);
    files.push_back(read_bytes(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_TRUE(files[1] == files[0]) << "two identical 1-thread runs differ";
  EXPECT_TRUE(files[2] == files[0]) << "1 vs 4 threads differ";
}

}  // namespace
}  // namespace afl
