// Determinism across thread counts: the RoundEngine must produce bit-identical
// results no matter how many worker threads execute the client work items.
// Runs the same environment with threads = 1 and threads = 8 and compares the
// full accuracy curve, communication stats, and failure counts — including
// the simulated-transport byte/retransmit/straggler counters when a lossy
// channel is configured.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "async/config.hpp"
#include "core/experiment.hpp"
#include "hier/config.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

/// The afl.trace.v2 lifecycle records of a trace file, with the wall-clock
/// ts_ms envelope stripped — everything after it is virtual-clock data and
/// part of the byte-identity determinism contract.
std::vector<std::string> lifecycle_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"lifecycle\"") == std::string::npos) continue;
    lines.push_back(line.substr(line.find("\"kind\"")));
  }
  return lines;
}

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 12;
  cfg.test_samples = 48;
  cfg.image_hw = 8;
  cfg.rounds = 4;
  cfg.local_epochs = 1;
  cfg.batch_size = 12;
  cfg.eval_every = 1;
  // Exercise the stochastic paths too: capacity jitter and dropouts both draw
  // from the round RNG, so any ordering bug would show up here.
  cfg.capacity_jitter = 0.25;
  cfg.availability = 0.8;
  return cfg;
}

RunResult run_with_threads(Algorithm algorithm, const ExperimentEnv& env,
                           std::size_t threads) {
  ExperimentEnv copy = env;
  copy.run.threads = threads;
  return run_algorithm(algorithm, copy);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.failed_trainings, b.failed_trainings);
  EXPECT_EQ(a.comm.params_sent(), b.comm.params_sent());
  EXPECT_EQ(a.comm.params_returned(), b.comm.params_returned());
  // Byte-layer counters (all zero unless the run configured a transport).
  EXPECT_EQ(a.comm.bytes_sent(), b.comm.bytes_sent());
  EXPECT_EQ(a.comm.bytes_returned(), b.comm.bytes_returned());
  EXPECT_EQ(a.comm.retransmits(), b.comm.retransmits());
  EXPECT_EQ(a.comm.stragglers(), b.comm.stragglers());
  EXPECT_EQ(a.comm.drops(), b.comm.drops());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round);
    // Bit-identical, not approximately equal: the derived per-client RNG
    // streams make the float math independent of the thread count.
    EXPECT_EQ(a.curve[i].full_acc, b.curve[i].full_acc) << "round " << i;
    EXPECT_EQ(a.curve[i].avg_acc, b.curve[i].avg_acc) << "round " << i;
    EXPECT_EQ(a.curve[i].comm_waste, b.curve[i].comm_waste) << "round " << i;
    EXPECT_EQ(a.curve[i].round_waste, b.curve[i].round_waste) << "round " << i;
  }
  EXPECT_EQ(a.level_acc, b.level_acc);
  EXPECT_EQ(a.final_full_acc, b.final_full_acc);
  EXPECT_EQ(a.final_avg_acc, b.final_avg_acc);
}

TEST(EngineDeterminism, AdaptiveFlIdenticalAcrossThreadCounts) {
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult serial = run_with_threads(Algorithm::kAdaptiveFl, env, 1);
  const RunResult parallel = run_with_threads(Algorithm::kAdaptiveFl, env, 8);
  expect_identical(serial, parallel);
  EXPECT_GT(serial.comm.params_returned(), 0u);  // runs actually trained
}

TEST(EngineDeterminism, ScaleFlIdenticalAcrossThreadCounts) {
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult serial = run_with_threads(Algorithm::kScaleFl, env, 1);
  const RunResult parallel = run_with_threads(Algorithm::kScaleFl, env, 8);
  expect_identical(serial, parallel);
  EXPECT_GT(serial.comm.params_returned(), 0u);
}

TEST(EngineDeterminism, RepeatedRunIsReproducible) {
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult a = run_with_threads(Algorithm::kAdaptiveFl, env, 4);
  const RunResult b = run_with_threads(Algorithm::kAdaptiveFl, env, 4);
  expect_identical(a, b);
}

TEST(EngineDeterminism, ExplicitDisabledTransportMatchesDefault) {
  // An explicitly disabled NetConfig must be the identity path: same
  // RunResult as a run that never mentions the transport, and every
  // byte-layer counter stays zero.
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult plain = run_with_threads(Algorithm::kAdaptiveFl, env, 2);
  ExperimentEnv disabled = env;
  disabled.run.net = net::NetConfig{};  // enabled = false
  disabled.run.threads = 2;
  const RunResult gated = run_algorithm(Algorithm::kAdaptiveFl, disabled);
  expect_identical(plain, gated);
  EXPECT_EQ(plain.comm.bytes_sent(), 0u);
  EXPECT_EQ(plain.comm.bytes_returned(), 0u);
  EXPECT_EQ(plain.comm.retransmits(), 0u);
  EXPECT_EQ(plain.comm.drops(), 0u);
  for (const RoundMetrics& m : gated.round_metrics) {
    EXPECT_EQ(m.bytes_sent, 0u);
    EXPECT_EQ(m.bytes_returned, 0u);
  }
}

net::NetConfig lossy_net() {
  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kInt8;
  net.channel.bandwidth_bytes_per_s = 4096.0;
  net.channel.latency_s = 0.01;
  net.channel.loss_prob = 0.25;
  net.max_retries = 2;
  net.backoff_base_s = 0.01;
  net.backoff_cap_s = 0.05;
  net.round_deadline_s = 60.0;
  net.compute_s_per_kparam = 0.5;
  return net;
}

RunResult run_lossy(const ExperimentEnv& env, std::size_t threads) {
  ExperimentEnv copy = env;
  copy.run.threads = threads;
  copy.run.net = lossy_net();
  return run_algorithm(Algorithm::kAdaptiveFl, copy);
}

TEST(EngineDeterminism, LossyChannelIdenticalAcrossThreadCounts) {
  // With a fixed seed and a lossy, deadline-bounded channel, the whole
  // RunResult — retransmit, straggler, and byte counters included — must be
  // bit-identical at any AFL_THREADS: transport draws come from per-
  // (round, client) derived streams, never from shared state.
  const ExperimentEnv env = make_env(tiny_config());
  const RunResult serial = run_lossy(env, 1);
  const RunResult parallel = run_lossy(env, 8);
  expect_identical(serial, parallel);
  EXPECT_GT(serial.comm.bytes_sent(), 0u);
  EXPECT_GT(serial.comm.bytes_returned(), 0u);
  EXPECT_GT(serial.comm.retransmits(), 0u);  // p=0.25 loss must retransmit
  ASSERT_EQ(serial.round_metrics.size(), parallel.round_metrics.size());
  for (std::size_t i = 0; i < serial.round_metrics.size(); ++i) {
    EXPECT_EQ(serial.round_metrics[i].bytes_sent, parallel.round_metrics[i].bytes_sent);
    EXPECT_EQ(serial.round_metrics[i].bytes_returned,
              parallel.round_metrics[i].bytes_returned);
    EXPECT_EQ(serial.round_metrics[i].retransmits,
              parallel.round_metrics[i].retransmits);
    EXPECT_EQ(serial.round_metrics[i].stragglers,
              parallel.round_metrics[i].stragglers);
  }
}

TEST(EngineDeterminism, LifecycleTraceIdenticalAcrossThreadCounts) {
  // The dispatch-lifecycle stream (docs/OBSERVABILITY.md) is emitted from
  // sequential engine code only, so it must be byte-identical — record order
  // included — no matter how many worker threads ran the training closures.
  const ExperimentEnv env = make_env(tiny_config());
  const std::string p1 = ::testing::TempDir() + "engine_lc_t1.jsonl";
  const std::string p8 = ::testing::TempDir() + "engine_lc_t8.jsonl";
  obs::set_trace_path(p1);
  run_lossy(env, 1);
  obs::set_trace_path(p8);
  run_lossy(env, 8);
  obs::set_trace_path("");
  const std::vector<std::string> a = lifecycle_lines(p1);
  const std::vector<std::string> b = lifecycle_lines(p8);
  ASSERT_FALSE(a.empty());  // a lossy transport run must emit lifecycles
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "lifecycle record " << i;
  }
}

TEST(EngineDeterminism, TransportlessRunEmitsNoLifecycleRecords) {
  // Without a transport there is no virtual clock to anchor phases to; the
  // tracker must stay inert so transportless traces look exactly as before.
  const ExperimentEnv env = make_env(tiny_config());
  const std::string path = ::testing::TempDir() + "engine_lc_off.jsonl";
  obs::set_trace_path(path);
  run_with_threads(Algorithm::kAdaptiveFl, env, 2);
  obs::set_trace_path("");
  EXPECT_TRUE(lifecycle_lines(path).empty());
}

/// Every record of a trace file, in file order, without the wall-clock
/// fields and without run_start's thread count.
std::vector<std::string> records_without_timing(const std::string& path) {
  static const std::regex kVarying(
      R"re("(ts_ms|dur_ms|train_ms|aggregate_ms|eval_ms|wall_ms|threads)":[^,}]*,?)re");
  std::vector<std::string> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    line = std::regex_replace(line, kVarying, "");
    const std::size_t dangling = line.rfind(",}");
    if (dangling != std::string::npos) line.erase(dangling, 1);
    records.push_back(line);
  }
  return records;
}

TEST(EngineDeterminism, TraceRecordSequenceIdenticalAcrossRunsAndThreadCounts) {
  // Workers train while the engine thread waits; the local_train records
  // they make are held per dispatch and written in wave order after the
  // wave. So the whole trace, record order included, is the same on every
  // run and at any thread count, for each engine.
  const ExperimentEnv env = make_env(tiny_config());
  hier::HierConfig sharded;
  sharded.enabled = true;
  sharded.shards = 2;
  sharded.sync_every = 2;
  async::AsyncConfig buffered;
  buffered.enabled = true;
  buffered.buffer_size = 3;
  buffered.concurrency = 6;
  buffered.staleness_alpha = 0.5;
  struct Mode {
    const char* name;
    Algorithm algorithm;
    std::optional<hier::HierConfig> hier;
    std::optional<async::AsyncConfig> async;
  };
  const Mode modes[] = {{"flat", Algorithm::kAdaptiveFl, std::nullopt, std::nullopt},
                        {"sharded", Algorithm::kAdaptiveFl, sharded, std::nullopt},
                        {"async", Algorithm::kAdaptiveFlAsync, std::nullopt, buffered}};
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    std::vector<std::vector<std::string>> traces;
    for (std::size_t threads : {1, 3, 3, 3}) {
      ExperimentEnv copy = env;
      copy.run.threads = threads;
      copy.run.net = lossy_net();
      copy.run.hier = mode.hier;
      copy.run.async = mode.async;
      const std::string path = ::testing::TempDir() + "engine_trace_order_" + mode.name +
                               std::to_string(traces.size()) + ".jsonl";
      obs::set_trace_path(path);
      run_algorithm(mode.algorithm, copy);
      obs::set_trace_path("");
      traces.push_back(records_without_timing(path));
    }
    const std::vector<std::string>& serial = traces.front();
    ASSERT_NE(std::count_if(serial.begin(), serial.end(),
                            [](const std::string& r) {
                              return r.find("\"kind\":\"local_train\"") != std::string::npos;
                            }),
              0);
    for (std::size_t run = 1; run < traces.size(); ++run) {
      ASSERT_EQ(serial.size(), traces[run].size()) << "run " << run;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i], traces[run][i]) << "run " << run << ", record " << i;
      }
    }
  }
}

// The engine keeps freed training buffers in the process (EngineBase sets
// glibc's trim and mmap thresholds), so a run whose clients allocate what
// the previous run's clients freed takes almost no page faults. With glibc's
// defaults the heap top was trimmed and the column buffers unmapped between
// clients, and the second run faulted every client's working set in again.
TEST(EngineAllocator, SecondRunReusesFreedTrainingMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer replaces the allocator";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "a sanitizer replaces the allocator";
#endif
#endif
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the allocator policy is glibc's";
#else
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 25;
  cfg.batch_size = 25;
  cfg.test_samples = 48;
  cfg.rounds = 3;
  cfg.local_epochs = 1;
  ExperimentEnv env = make_env(cfg);
  env.run.threads = 1;
  const RunResult first = run_algorithm(Algorithm::kAdaptiveFl, env);
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  const RunResult second = run_algorithm(Algorithm::kAdaptiveFl, env);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  expect_identical(first, second);
  EXPECT_LT(after.ru_minflt - before.ru_minflt, 2000)
      << "minor page faults during the second run";
#endif
}

}  // namespace
}  // namespace afl
