// Unit tests for the shared RoundEngine and its thread pool: hook sequencing
// with mock policies (no-response, adapt-failure, empty-selection), the
// unified dispatch-accounting rule, and deterministic parallel execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/round_engine.hpp"
#include "util/thread_pool.hpp"

namespace afl {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200u);
}

TEST(ThreadPool, PropagatesFirstException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](std::size_t i) {
                            if (i == 3) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool must stay usable after an exception drained.
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4u);
  }
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

// ---------------------------------------------------------------------------
// RoundEngine with mock policies
// ---------------------------------------------------------------------------

/// Scriptable policy: selects clients 0..num_clients-1 in slot order, trains
/// "successfully" by stamping the derived RNG's first draw into the outcome,
/// and records every hook call for sequencing assertions.
class MockPolicy : public RoundPolicy {
 public:
  explicit MockPolicy(std::size_t num_clients) : num_clients_(num_clients) {}

  std::string algorithm_name() const override { return "Mock"; }
  void init_global(Rng&) override { log_.push_back("init"); }

  void begin_round(std::size_t round, Rng&) override {
    log_.push_back("begin:" + std::to_string(round));
  }

  bool select(ClientSlot& s, Rng&) override {
    if (stop_selection_ || s.slot >= num_clients_) return false;
    s.client = s.slot;
    s.sent_index = 7;
    s.params_sent = 100;
    return true;
  }

  void adapt(ClientSlot& s) override {
    if (s.capacity < required_capacity_) return;  // not trainable
    s.trainable = true;
    s.back_index = s.sent_index;
    s.params_back = 60;
  }

  void on_no_response(const ClientSlot& s) override {
    log_.push_back("no_response:" + std::to_string(s.client));
  }
  void on_adapt_failure(const ClientSlot& s) override {
    log_.push_back("adapt_failure:" + std::to_string(s.client));
  }
  void on_accepted(const ClientSlot& s) override {
    log_.push_back("accepted:" + std::to_string(s.client));
  }
  void on_transport_failure(const ClientSlot& s) override {
    log_.push_back("transport_failure:" + std::to_string(s.client));
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    TrainOutcome out;
    // Stamp the derived stream so determinism tests can compare what each
    // client actually drew.
    out.stats.mean_loss = rng.uniform();
    out.samples = s.client + 1;
    executions_.fetch_add(1);
    return out;
  }

  void commit(const ClientSlot& s, TrainOutcome outcome) override {
    log_.push_back("commit:" + std::to_string(s.client));
    committed_losses_.push_back(outcome.stats.mean_loss);
  }

  void aggregate(std::size_t round) override {
    log_.push_back("aggregate:" + std::to_string(round));
  }

  void evaluate(std::size_t, RunResult& result, ThreadPool&) override {
    result.final_full_acc = 0.5;
    result.final_avg_acc = 0.5;
    result.level_acc["L1"] = 0.5;
  }

  std::size_t num_clients_;
  std::size_t required_capacity_ = 0;
  bool stop_selection_ = false;
  std::vector<std::string> log_;
  std::vector<double> committed_losses_;
  mutable std::atomic<std::size_t> executions_{0};
};

FlRunConfig mock_config(std::size_t rounds, std::size_t k, std::size_t threads = 1) {
  FlRunConfig cfg;
  cfg.rounds = rounds;
  cfg.clients_per_round = k;
  cfg.seed = 42;
  cfg.eval_every = 1;
  cfg.threads = threads;
  return cfg;
}

std::vector<DeviceSim> mock_fleet(std::size_t n, std::size_t capacity,
                                  double availability) {
  std::vector<DeviceSim> fleet(n);
  for (DeviceSim& d : fleet) {
    d.base_capacity = capacity;
    d.availability = availability;
  }
  return fleet;
}

TEST(RoundEngine, HappyPathSequencing) {
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  RoundEngine engine(mock_config(1, 3), &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.algorithm, "Mock");
  const std::vector<std::string> want = {
      "init",       "begin:1",    "accepted:0", "accepted:1", "accepted:2",
      "commit:0",   "commit:1",   "commit:2",   "aggregate:1"};
  EXPECT_EQ(policy.log_, want);
  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_EQ(r.comm.params_sent(), 300u);
  EXPECT_EQ(r.comm.params_returned(), 180u);
  ASSERT_EQ(r.round_metrics.size(), 1u);
  EXPECT_EQ(r.round_metrics[0].clients_ok, 3u);
  EXPECT_EQ(r.round_metrics[0].clients_failed, 0u);
  ASSERT_EQ(r.curve.size(), 1u);
  EXPECT_DOUBLE_EQ(r.curve[0].full_acc, 0.5);
}

TEST(RoundEngine, NoResponseCountsDispatchAsWaste) {
  MockPolicy policy(4);
  auto fleet = mock_fleet(4, 1000, 0.0);  // nobody ever replies
  RoundEngine engine(mock_config(2, 4), &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 8u);
  EXPECT_EQ(r.comm.params_sent(), 800u);  // dispatches recorded up front
  EXPECT_EQ(r.comm.params_returned(), 0u);
  EXPECT_DOUBLE_EQ(r.comm.waste_rate(), 1.0);
  EXPECT_EQ(policy.executions_.load(), 0u);
  // on_no_response fired for every slot; nothing was committed.
  EXPECT_EQ(std::count_if(policy.log_.begin(), policy.log_.end(),
                          [](const std::string& s) {
                            return s.rfind("no_response:", 0) == 0;
                          }),
            8);
  EXPECT_EQ(r.round_metrics[0].clients_failed, 4u);
}

TEST(RoundEngine, AdaptFailureCountsDispatchAsWaste) {
  MockPolicy policy(4);
  policy.required_capacity_ = 5000;       // nothing fits
  auto fleet = mock_fleet(4, 1000, 1.0);  // responsive but too small
  RoundEngine engine(mock_config(1, 4), &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 4u);
  EXPECT_EQ(r.comm.params_sent(), 400u);
  EXPECT_EQ(r.comm.params_returned(), 0u);
  EXPECT_EQ(policy.executions_.load(), 0u);
  EXPECT_EQ(std::count_if(policy.log_.begin(), policy.log_.end(),
                          [](const std::string& s) {
                            return s.rfind("adapt_failure:", 0) == 0;
                          }),
            4);
}

TEST(RoundEngine, EmptySelectionStillAggregatesAndEvaluates) {
  MockPolicy policy(4);
  policy.stop_selection_ = true;
  auto fleet = mock_fleet(4, 1000, 1.0);
  RoundEngine engine(mock_config(2, 4), &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_EQ(r.comm.params_sent(), 0u);
  // Aggregate runs every round even with no updates (matches the legacy
  // runners, whose aggregate of an empty update set is the identity).
  const std::vector<std::string> want = {"init", "begin:1", "aggregate:1",
                                         "begin:2", "aggregate:2"};
  EXPECT_EQ(policy.log_, want);
  EXPECT_EQ(r.curve.size(), 2u);
}

TEST(RoundEngine, CommitsInSlotOrderForAnyThreadCount) {
  std::vector<double> losses_t1;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    MockPolicy policy(8);
    auto fleet = mock_fleet(8, 1000, 1.0);
    RoundEngine engine(mock_config(3, 8, threads), &fleet);
    RunResult r = engine.run(policy);
    EXPECT_EQ(engine.threads(), threads);
    EXPECT_EQ(policy.executions_.load(), 24u);
    EXPECT_EQ(r.round_metrics.back().clients_ok, 8u);
    // Commit order == slot order regardless of execution interleaving.
    std::vector<std::string> commits;
    for (const std::string& s : policy.log_) {
      if (s.rfind("commit:", 0) == 0) commits.push_back(s);
    }
    ASSERT_EQ(commits.size(), 24u);
    for (std::size_t i = 0; i < commits.size(); ++i) {
      EXPECT_EQ(commits[i], "commit:" + std::to_string(i % 8));
    }
    // The derived per-(seed, round, client) streams are thread-invariant.
    if (threads == 1) {
      losses_t1 = policy.committed_losses_;
    } else {
      EXPECT_EQ(policy.committed_losses_, losses_t1);
    }
  }
}

TEST(RoundEngine, SelectingClientOutsideFleetThrows) {
  MockPolicy policy(5);  // fleet only has 3 devices
  auto fleet = mock_fleet(3, 1000, 1.0);
  RoundEngine engine(mock_config(1, 5), &fleet);
  EXPECT_THROW(engine.run(policy), std::logic_error);
}

TEST(RoundEngine, NullFleetMeansIdealDevices) {
  MockPolicy policy(4);
  policy.required_capacity_ = static_cast<std::size_t>(-1);  // only SIZE_MAX fits
  RoundEngine engine(mock_config(1, 4), nullptr);
  RunResult r = engine.run(policy);
  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_EQ(r.round_metrics[0].clients_ok, 4u);
}

TEST(RoundEngine, ThreadsResolveFromEnvWhenUnset) {
  ::setenv("AFL_THREADS", "3", 1);
  RoundEngine from_env(mock_config(1, 1, /*threads=*/0), nullptr);
  EXPECT_EQ(from_env.threads(), 3u);
  ::setenv("AFL_THREADS", "0", 1);  // clamped to >= 1
  RoundEngine clamped(mock_config(1, 1, 0), nullptr);
  EXPECT_EQ(clamped.threads(), 1u);
  ::unsetenv("AFL_THREADS");
  RoundEngine fallback(mock_config(1, 1, 0), nullptr);
  EXPECT_EQ(fallback.threads(), 1u);
  // An explicit config wins over the environment.
  ::setenv("AFL_THREADS", "7", 1);
  RoundEngine explicit_cfg(mock_config(1, 1, 2), nullptr);
  EXPECT_EQ(explicit_cfg.threads(), 2u);
  ::unsetenv("AFL_THREADS");
}

TEST(RoundEngine, ShardedModeNeedsHierRoundPolicy) {
  // A sharded run owns aggregation through the HierRoundPolicy hooks; a
  // plain RoundPolicy must be refused up front, naming the algorithm.
  MockPolicy policy(2);
  auto fleet = mock_fleet(2, 1000, 1.0);
  hier::HierConfig hier;
  hier.enabled = true;
  hier.shards = 2;
  RoundEngine engine(mock_config(1, 2), &fleet, nullptr, hier);
  try {
    engine.run(policy);
    FAIL() << "sharded run of a plain RoundPolicy did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Mock"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(policy.log_.empty()) << "refused before init_global";
}

TEST(RoundEngine, EvalEveryZeroStillProducesFinalPoint) {
  MockPolicy policy(2);
  auto fleet = mock_fleet(2, 1000, 1.0);
  FlRunConfig cfg = mock_config(3, 2);
  cfg.eval_every = 0;
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);
  ASSERT_EQ(r.curve.size(), 1u);
  EXPECT_EQ(r.curve[0].round, 3u);
}

// ---------------------------------------------------------------------------
// RoundEngine + simulated transport
// ---------------------------------------------------------------------------

TEST(RoundEngine, SizeOnlyTransportChargesEstimatedBytes) {
  // MockPolicy does not override dispatch_params(), so the transport runs in
  // size-only mode: bytes are estimated from params_sent / params_back and
  // no payload crosses (slot.rx stays null, training is unchanged).
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(2, 3);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;  // perfect channel, fp32
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 0u);
  const std::size_t down = net::estimate_frame_bytes(100, net::Codec::kFp32);
  const std::size_t up = net::estimate_frame_bytes(60, net::Codec::kFp32);
  EXPECT_EQ(r.comm.bytes_sent(), 6 * down);  // 2 rounds x 3 clients
  EXPECT_EQ(r.comm.bytes_returned(), 6 * up);
  EXPECT_EQ(r.comm.retransmits(), 0u);
  EXPECT_EQ(r.round_metrics[0].bytes_sent, 3 * down);
  EXPECT_EQ(r.round_metrics[1].bytes_sent, 3 * down);
}

TEST(RoundEngine, DownlinkDropExcludesClientLikeNoResponse) {
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(1, 3);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;
  cfg.net->max_retries = 0;
  cfg.net->faults = net::parse_fault_plan("drop@1:1");
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 1u);
  EXPECT_EQ(r.comm.drops(), 1u);
  EXPECT_EQ(r.round_metrics[0].clients_ok, 2u);
  EXPECT_EQ(r.round_metrics[0].clients_failed, 1u);
  // Client 1 never reached on_accepted / execute / commit, and the policy
  // heard about the loss.
  EXPECT_EQ(policy.executions_.load(), 2u);
  EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(),
                       std::string("transport_failure:1")),
            1);
  EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(),
                       std::string("commit:1")),
            0);
  // The dropped dispatch still charged the wire (unified accounting).
  EXPECT_EQ(r.comm.bytes_sent(),
            3 * net::estimate_frame_bytes(100, net::Codec::kFp32));
}

TEST(RoundEngine, UplinkDropDiscardsTrainedUpdate) {
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(1, 3);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;
  cfg.net->max_retries = 0;
  cfg.net->faults = net::parse_fault_plan("up.drop@1:2");
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);

  // Client 2 trained (execute ran) but its update never arrived: excluded
  // from aggregation and from the parameter-return accounting.
  EXPECT_EQ(policy.executions_.load(), 3u);
  EXPECT_EQ(r.failed_trainings, 1u);
  EXPECT_EQ(r.comm.drops(), 1u);
  EXPECT_EQ(r.comm.params_returned(), 2 * 60u);
  EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(),
                       std::string("commit:2")),
            0);
  EXPECT_EQ(r.round_metrics[0].clients_ok, 2u);
}

TEST(RoundEngine, DeadlineTurnsSlowClientsIntoStragglers) {
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(1, 3);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;
  cfg.net->round_deadline_s = 1.0;
  cfg.net->compute_s_per_kparam = 100.0;  // 60 params -> 6 s >> deadline
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);

  // Everyone trained, nobody made the deadline, nothing aggregated.
  EXPECT_EQ(policy.executions_.load(), 3u);
  EXPECT_EQ(r.comm.stragglers(), 3u);
  EXPECT_EQ(r.failed_trainings, 3u);
  EXPECT_EQ(r.round_metrics[0].clients_ok, 0u);
  EXPECT_EQ(r.round_metrics[0].stragglers, 3u);
  EXPECT_EQ(std::count_if(policy.log_.begin(), policy.log_.end(),
                          [](const std::string& s) {
                            return s.rfind("transport_failure:", 0) == 0;
                          }),
            3);
  EXPECT_EQ(std::count_if(policy.log_.begin(), policy.log_.end(),
                          [](const std::string& s) {
                            return s.rfind("commit:", 0) == 0;
                          }),
            0);
}

}  // namespace
}  // namespace afl
