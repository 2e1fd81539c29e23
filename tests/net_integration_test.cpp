// End-to-end tests of the simulated transport wired through the RoundEngine:
// AdaptiveFL training through a quantized codec on a lossy, deadline-bounded
// channel, straggler exclusion, fault-injection recovery, trace purity (a
// transportless run must emit no net-layer trace fields), and all six
// policies on one wire contract and one client step.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/rolling_fl.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "pop/config.hpp"

namespace afl {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 20;
  cfg.test_samples = 80;
  cfg.image_hw = 8;
  cfg.rounds = 8;
  cfg.local_epochs = 1;
  cfg.batch_size = 20;
  cfg.eval_every = 4;
  return cfg;
}

RunResult run_with_net(const ExperimentEnv& env, const net::NetConfig& net) {
  ExperimentEnv copy = env;
  copy.run.net = net;
  return run_algorithm(Algorithm::kAdaptiveFl, copy);
}

net::NetConfig identity_fp32() {
  net::NetConfig net;
  net.enabled = true;  // real frames, but lossless and deadline-free
  return net;
}

TEST(NetIntegration, Fp32IdentityTransportMatchesTransportlessRun) {
  // An enabled transport with the fp32 codec and a perfect channel must not
  // change learning at all — frames round-trip bit-exactly and nothing is
  // lost — while the byte counters start measuring real wire traffic.
  const ExperimentEnv env = make_env(small_config());
  const RunResult plain = run_algorithm(Algorithm::kAdaptiveFl, env);
  const RunResult wired = run_with_net(env, identity_fp32());
  ASSERT_EQ(plain.curve.size(), wired.curve.size());
  for (std::size_t i = 0; i < plain.curve.size(); ++i) {
    EXPECT_EQ(plain.curve[i].full_acc, wired.curve[i].full_acc) << "round " << i;
    EXPECT_EQ(plain.curve[i].avg_acc, wired.curve[i].avg_acc) << "round " << i;
  }
  EXPECT_EQ(plain.comm.params_sent(), wired.comm.params_sent());
  EXPECT_EQ(plain.comm.bytes_sent(), 0u);
  EXPECT_GT(wired.comm.bytes_sent(), 0u);
  EXPECT_GT(wired.comm.bytes_returned(), 0u);
  EXPECT_EQ(wired.comm.retransmits(), 0u);
  EXPECT_EQ(wired.comm.drops(), 0u);
  EXPECT_EQ(wired.comm.stragglers(), 0u);
  // fp32 wire traffic is ~4 B per parameter plus framing overhead.
  EXPECT_GE(wired.comm.bytes_sent(), wired.comm.params_sent() * 4);
}

TEST(NetIntegration, AdaptiveFlTrainsThroughInt8LossyDeadlineChannel) {
  const ExperimentEnv env = make_env(small_config());
  const RunResult baseline = run_with_net(env, identity_fp32());

  net::NetConfig net;
  net.enabled = true;
  net.codec = net::Codec::kInt8;
  net.channel.bandwidth_bytes_per_s = 64 * 1024.0;
  net.channel.latency_s = 0.02;
  net.channel.loss_prob = 0.15;
  net.max_retries = 3;
  net.backoff_base_s = 0.01;
  net.backoff_cap_s = 0.05;
  // Deadline tuned so only the heaviest submodels (downlink + compute +
  // uplink on a 64 KiB/s link) miss it — stragglers occur but training
  // still progresses.
  net.round_deadline_s = 4.0;
  net.compute_s_per_kparam = 0.1;
  // Corrupt every client's first downlink attempt in round 1: each must be
  // caught by the wire CRC and recovered by retransmission.
  std::string faults;
  for (std::size_t c = 0; c < 12; ++c) {
    faults += (c ? "," : "") + std::string("corrupt@1:") + std::to_string(c);
  }
  net.faults = net::parse_fault_plan(faults);
  const RunResult lossy = run_with_net(env, net);

  // Corrupted / lost frames were retried.
  EXPECT_GT(lossy.comm.retransmits(), 0u);
  // int8 moves ~4x fewer payload bytes than fp32 for the same parameters.
  EXPECT_LT(lossy.comm.bytes_sent() / static_cast<double>(lossy.comm.params_sent()),
            2.0);
  // Deadline-missing clients were excluded from aggregation, and every
  // exclusion is visible in the failure accounting.
  std::size_t ok = 0, failed = 0;
  for (const RoundMetrics& m : lossy.round_metrics) {
    ok += m.clients_ok;
    failed += m.clients_failed;
  }
  EXPECT_EQ(failed, lossy.failed_trainings);
  // Net-layer exclusions (late or dropped clients) are part of the failure
  // count, on top of availability/adapt failures.
  EXPECT_GE(lossy.failed_trainings, lossy.comm.stragglers() + lossy.comm.drops());
  EXPECT_GT(ok, 0u);  // the run still trains
  // Quantization + exclusions may cost some accuracy, but the run must stay
  // within tolerance of the fp32 identity-transport baseline.
  EXPECT_NEAR(lossy.best_full_acc(), baseline.best_full_acc(), 0.20);
}

TEST(NetIntegration, TransportlessTraceCarriesNoNetFields) {
  const std::string path =
      std::string(::testing::TempDir()) + "/afl_net_trace_plain.jsonl";
  obs::set_trace_path(path);
  const ExperimentEnv env = make_env(small_config());
  (void)run_algorithm(Algorithm::kAdaptiveFl, env);
  obs::set_trace_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"kind\":\"run_start\""), std::string::npos);
  // The identity path must keep traces byte-compatible with pre-transport
  // builds: no net-only fields, no net-only outcomes.
  EXPECT_EQ(trace.find("bytes_sent"), std::string::npos);
  EXPECT_EQ(trace.find("retransmits"), std::string::npos);
  EXPECT_EQ(trace.find("\"codec\""), std::string::npos);
  EXPECT_EQ(trace.find("lost_downlink"), std::string::npos);
  EXPECT_EQ(trace.find("lost_uplink"), std::string::npos);
  std::remove(path.c_str());
}

TEST(NetIntegration, TransportTraceCarriesNetFields) {
  const std::string path =
      std::string(::testing::TempDir()) + "/afl_net_trace_wired.jsonl";
  obs::set_trace_path(path);
  const ExperimentEnv env = make_env(small_config());
  net::NetConfig net = identity_fp32();
  net.codec = net::Codec::kFp16;
  (void)run_with_net(env, net);
  obs::set_trace_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string trace = buf.str();
  EXPECT_NE(trace.find("\"codec\":\"fp16\""), std::string::npos);
  EXPECT_NE(trace.find("\"bytes_sent\""), std::string::npos);
  EXPECT_NE(trace.find("\"bytes_returned\""), std::string::npos);
  EXPECT_NE(trace.find("\"retransmits\""), std::string::npos);
  EXPECT_NE(trace.find("\"stragglers\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// All six policies: one wire contract, one client step
// ---------------------------------------------------------------------------

enum class Policy { kAllLarge, kDecoupled, kHeteroFl, kScaleFl, kFedRolex, kAdaptiveFl };

RunResult run_policy(Policy policy, const ExperimentEnv& env) {
  switch (policy) {
    case Policy::kAllLarge: return run_algorithm(Algorithm::kAllLarge, env);
    case Policy::kDecoupled: return run_algorithm(Algorithm::kDecoupled, env);
    case Policy::kHeteroFl: return run_algorithm(Algorithm::kHeteroFl, env);
    case Policy::kScaleFl: return run_algorithm(Algorithm::kScaleFl, env);
    case Policy::kFedRolex:  // not in Algorithm: built directly
      return RollingFl(env.spec, env.pool_config, env.data, env.devices, env.run).run();
    case Policy::kAdaptiveFl: return run_algorithm(Algorithm::kAdaptiveFl, env);
  }
  return RunResult{};
}

/// make_env() with the transport pinned off and the population static, so
/// AFL_* variables in the environment cannot reach the runs.
ExperimentEnv pinned_env(const ExperimentConfig& cfg) {
  ExperimentEnv env = make_env(cfg);
  env.run.net = net::NetConfig{};
  env.run.pop = pop::PopConfig{};
  return env;
}

ExperimentConfig wire_config(std::size_t rounds) {
  ExperimentConfig cfg;
  cfg.num_clients = 8;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 10;
  cfg.test_samples = 200;
  cfg.image_hw = 8;
  cfg.rounds = rounds;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  return cfg;
}

/// True when the two runs' evaluation curves or level accuracies differ.
bool results_differ(const RunResult& a, const RunResult& b) {
  if (a.level_acc != b.level_acc || a.curve.size() != b.curve.size()) return true;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].full_acc != b.curve[i].full_acc ||
        a.curve[i].avg_acc != b.curve[i].avg_acc) {
      return true;
    }
  }
  return false;
}

class PolicyWire : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyWire, TrainsOnLazyDataset) {
  // Scale-out populations generate each client's shard on demand: the one
  // client step materializes it on the worker for every policy.
  const ExperimentConfig cfg = wire_config(3);
  ExperimentEnv env = pinned_env(cfg);
  Rng task_rng(cfg.seed);
  FederatedConfig fed;
  fed.num_clients = cfg.num_clients;
  fed.samples_per_client = cfg.samples_per_client;
  fed.test_samples = cfg.test_samples;
  env.data = make_federated_lazy(
      std::make_shared<const SyntheticTask>(SyntheticConfig::cifar10_like(cfg.image_hw),
                                            task_rng),
      fed, cfg.seed);
  ASSERT_TRUE(env.data.clients.empty());
  const RunResult r = run_policy(GetParam(), env);
  EXPECT_EQ(r.round_metrics.size(), 3u);
  EXPECT_GT(r.comm.params_returned(), 0u);
}

TEST_P(PolicyWire, LosslessFp32TransportMatchesTransportlessRun) {
  // Every policy ships real frames: on a lossless fp32 wire the client
  // trains exactly what it would have read from the global.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 4;
  const ExperimentEnv env = pinned_env(cfg);
  const RunResult plain = run_policy(GetParam(), env);
  ExperimentEnv wired_env = env;
  wired_env.run.net = identity_fp32();
  const RunResult wired = run_policy(GetParam(), wired_env);
  EXPECT_FALSE(results_differ(plain, wired));
  EXPECT_EQ(plain.comm.params_sent(), wired.comm.params_sent());
  EXPECT_GT(wired.comm.bytes_sent(), 0u);
  if (GetParam() != Policy::kAdaptiveFl) {
    // The five policies that train what they receive send back frames of
    // the same tensors; AdaptiveFL's devices may prune before training.
    EXPECT_EQ(wired.comm.bytes_sent(), wired.comm.bytes_returned());
  }
}

TEST_P(PolicyWire, Int8DownlinkChangesWhatClientsTrain) {
  // A lossy downlink codec quantizes what every client trains on.
  const ExperimentEnv env = pinned_env(wire_config(3));
  const RunResult plain = run_policy(GetParam(), env);
  ExperimentEnv wired_env = env;
  wired_env.run.net = identity_fp32();
  wired_env.run.net->codec = net::Codec::kInt8;
  wired_env.run.net->uplink_codec = net::Codec::kFp32;
  const RunResult wired = run_policy(GetParam(), wired_env);
  EXPECT_TRUE(results_differ(plain, wired));
}

std::string policy_name(const ::testing::TestParamInfo<Policy>& info) {
  const char* names[] = {"AllLarge", "Decoupled", "HeteroFl",
                         "ScaleFl",  "FedRolex",  "AdaptiveFl"};
  return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(SixPolicies, PolicyWire,
                         ::testing::Values(Policy::kAllLarge, Policy::kDecoupled,
                                           Policy::kHeteroFl, Policy::kScaleFl,
                                           Policy::kFedRolex, Policy::kAdaptiveFl),
                         policy_name);

}  // namespace
}  // namespace afl
