// Unit tests for the shared RoundEngine and its thread pool: hook sequencing
// with mock policies (no-response, adapt-failure, empty-selection) under both
// engines, the unified dispatch-accounting rule, deterministic parallel
// execution, the async engine's stop rule, admission under a population, and
// failure routing shared with the async engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/engine.hpp"
#include "engine/dispatch.hpp"
#include "engine/round_engine.hpp"
#include "pop/population.hpp"
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

/// `numel` zero scalars under one name: the mock's wire payloads.
ParamSet mock_params(std::size_t numel) { return {{"w", Tensor::zeros({numel})}}; }

/// Scriptable policy: selects clients 0..num_clients-1 in slot order (under
/// the async engine, the lowest client not in flight), ships 100 scalars,
/// trains "successfully" by stamping the derived RNG's first draw into the
/// outcome and returning 60 scalars, and records every hook call for
/// sequencing assertions.
class MockPolicy : public AsyncRoundPolicy {
 public:
  explicit MockPolicy(std::size_t num_clients) : num_clients_(num_clients) {}

  std::string algorithm_name() const override { return "Mock"; }
  void init_global(Rng&) override { log_.push_back("init"); }

  void begin_round(std::size_t round, Rng&) override {
    log_.push_back("begin:" + std::to_string(round));
  }

  void begin_async(std::size_t) override { busy_.assign(num_clients_, false); }
  void set_client_busy(std::size_t client, bool busy) override { busy_[client] = busy; }

  bool select(ClientSlot& s, Rng&) override {
    if (stop_selection_) return false;
    if (busy_.empty()) {
      if (s.slot >= num_clients_) return false;
      s.client = s.slot;
    } else {
      const auto free = std::find(busy_.begin(), busy_.end(), false);
      if (free == busy_.end()) return false;
      s.client = static_cast<std::size_t>(free - busy_.begin());
      busy_[s.client] = true;
    }
    s.sent_index = 7;
    s.params_sent = 100;
    return true;
  }

  std::size_t min_trainable_params() const override { return required_capacity_; }

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

  ParamSet dispatch_params(const ClientSlot&) const override { return mock_params(100); }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    TrainOutcome out;
    // Stamp the derived stream so determinism tests can compare what each
    // client actually drew.
    out.stats.mean_loss = rng.uniform();
    out.params = mock_params(60);
    out.samples = s.client + 1;
    executions_.fetch_add(1);
    return out;
  }

  void commit(const ClientSlot& s, TrainOutcome outcome) override {
    log_.push_back("commit:" + std::to_string(s.client));
    committed_losses_.push_back(outcome.stats.mean_loss);
  }
  void commit_weighted(const ClientSlot& s, TrainOutcome outcome, double) override {
    commit(s, std::move(outcome));
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
  std::vector<bool> busy_;  // in-flight clients; empty under the round engine
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
  FlRunConfig cfg = mock_config(1, 2);
  cfg.hier = hier::HierConfig{};
  cfg.hier->enabled = true;
  cfg.hier->shards = 2;
  RoundEngine engine(cfg, &fleet);
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
// AsyncEngine: the sequencing scenarios above under buffered flushes
// ---------------------------------------------------------------------------

/// Runs `policy` under the async engine's default knobs: the buffer holds
/// clients_per_round arrivals, and twice that many dispatches (capped at the
/// fleet size) stay in flight.
RunResult run_async(const FlRunConfig& cfg, const std::vector<DeviceSim>& fleet,
                    MockPolicy& policy) {
  async::AsyncConfig acfg;
  acfg.enabled = true;
  return async::AsyncEngine(cfg, acfg, &fleet).run(policy);
}

TEST(AsyncEngine, HappyPathSequencing) {
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  RunResult r = run_async(mock_config(2, 3), fleet, policy);

  EXPECT_EQ(r.algorithm, "Mock+Async");
  // No begin_round(): every arrival frees its client, which the top-up
  // redispatches before the next event; three arrivals fill the buffer.
  const std::vector<std::string> want = {
      "init",       "accepted:0", "accepted:1", "accepted:2", "commit:0",
      "accepted:0", "commit:1",   "accepted:1", "commit:2",   "aggregate:1",
      "accepted:2", "commit:0",   "accepted:0", "commit:1",   "accepted:1",
      "commit:2",   "aggregate:2"};
  EXPECT_EQ(policy.log_, want);
  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_EQ(r.comm.params_sent(), 800u);  // two dispatches still in flight
  EXPECT_EQ(r.comm.params_returned(), 360u);
  EXPECT_EQ(policy.executions_.load(), 6u);
  ASSERT_EQ(r.round_metrics.size(), 2u);
  for (const RoundMetrics& m : r.round_metrics) {
    EXPECT_EQ(m.clients_ok, 3u);
    EXPECT_EQ(m.clients_failed, 0u);
  }
  ASSERT_EQ(r.curve.size(), 2u);
  EXPECT_EQ(r.curve[0].round, 1u);
  EXPECT_EQ(r.curve[1].round, 2u);
  EXPECT_DOUBLE_EQ(r.curve[1].full_acc, 0.5);
}

TEST(AsyncEngine, EmptySelectionEndsRunWithOneWindowAndFinalPoint) {
  MockPolicy policy(4);
  policy.stop_selection_ = true;
  auto fleet = mock_fleet(4, 1000, 1.0);
  RunResult r = run_async(mock_config(2, 4), fleet, policy);

  // Nothing in flight and nothing dispatchable: the run ends without a
  // flush, closing its one open window and evaluating the final global.
  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_EQ(r.comm.params_sent(), 0u);
  const std::vector<std::string> want = {"init"};
  EXPECT_EQ(policy.log_, want);
  ASSERT_EQ(r.round_metrics.size(), 1u);
  EXPECT_EQ(r.round_metrics[0].round, 1u);
  ASSERT_EQ(r.curve.size(), 1u);
  EXPECT_EQ(r.curve[0].round, 2u);
}

TEST(AsyncEngine, EvalEveryZeroStillProducesFinalPoint) {
  MockPolicy policy(2);
  auto fleet = mock_fleet(2, 1000, 1.0);
  FlRunConfig cfg = mock_config(3, 2);
  cfg.eval_every = 0;
  RunResult r = run_async(cfg, fleet, policy);

  std::vector<std::string> aggregates;
  for (const std::string& s : policy.log_) {
    if (s.rfind("aggregate:", 0) == 0) aggregates.push_back(s);
  }
  const std::vector<std::string> want = {"aggregate:1", "aggregate:2", "aggregate:3"};
  EXPECT_EQ(aggregates, want);
  EXPECT_EQ(r.round_metrics.size(), 3u);
  ASSERT_EQ(r.curve.size(), 1u);
  EXPECT_EQ(r.curve[0].round, 3u);
}

TEST(AsyncEngine, UnavailableFleetClosesEmptyWindows) {
  // Nobody ever replies, so no window can fill its buffer. Each closes empty
  // once `concurrency` of its dispatches have failed: the run ends after its
  // flushes instead of redispatching forever.
  MockPolicy policy(12);
  auto fleet = mock_fleet(12, 1000, 0.0);
  async::AsyncConfig acfg;
  acfg.enabled = true;
  async::AsyncEngine engine(mock_config(3, 4), acfg, &fleet);
  const std::size_t concurrency = engine.async_config().concurrency;
  ASSERT_EQ(concurrency, 8u);  // 2 x the buffer of clients_per_round
  RunResult r = engine.run(policy);

  ASSERT_EQ(r.round_metrics.size(), 3u);
  for (const RoundMetrics& m : r.round_metrics) {
    EXPECT_EQ(m.clients_ok, 0u);
    EXPECT_EQ(m.clients_failed, concurrency);
  }
  EXPECT_EQ(r.failed_trainings, 3 * concurrency);
  EXPECT_EQ(policy.executions_.load(), 0u);
  EXPECT_EQ(r.comm.params_returned(), 0u);
  ASSERT_EQ(r.curve.size(), 3u);
  EXPECT_EQ(r.curve.back().round, 3u);
}

TEST(AsyncEngine, ChannelThatLosesEveryFrameClosesEmptyWindows) {
  // Every device answers, but its channel loses every frame, so no update
  // can arrive: each window closes empty once `concurrency` of its
  // dispatches have failed, instead of redispatching forever.
  MockPolicy policy(12);
  auto fleet = mock_fleet(12, 1000, 1.0);
  FlRunConfig cfg = mock_config(2, 4);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;
  cfg.net->channel.loss_prob = 1.0;
  async::AsyncConfig acfg;
  acfg.enabled = true;
  async::AsyncEngine engine(cfg, acfg, &fleet);
  const std::size_t concurrency = engine.async_config().concurrency;
  RunResult r = engine.run(policy);

  ASSERT_EQ(r.round_metrics.size(), 2u);
  EXPECT_EQ(r.failed_trainings, 2 * concurrency);
  EXPECT_EQ(r.comm.drops(), 2 * concurrency);
  EXPECT_EQ(policy.executions_.load(), 0u);
}

TEST(AsyncEngine, PartlyAvailableFleetFillsEveryWindow) {
  // Half the dispatches fail and are booked after the 0.5 s failure timeout,
  // while an accepted one uploads only after 6 s of compute: the run books
  // more than `concurrency` failures per window, many while a window's
  // buffer is still empty. An update can still arrive, so the stop rule
  // closes no window early and each waits for a full buffer.
  for (const std::size_t buffer : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("buffer " + std::to_string(buffer));
    MockPolicy policy(12);
    auto fleet = mock_fleet(12, 1000, 0.5);
    FlRunConfig cfg = mock_config(6, 4);
    cfg.net = net::NetConfig{};
    cfg.net->enabled = true;
    cfg.net->compute_s_per_kparam = 100.0;  // 60 trained scalars: 6 s
    async::AsyncConfig acfg;
    acfg.enabled = true;
    acfg.buffer_size = buffer;  // 0: clients_per_round, concurrency 8
    async::AsyncEngine engine(cfg, acfg, &fleet);
    RunResult r = engine.run(policy);

    EXPECT_GT(r.failed_trainings, 6 * engine.async_config().concurrency);
    ASSERT_EQ(r.round_metrics.size(), 6u);
    for (const RoundMetrics& m : r.round_metrics) {
      EXPECT_EQ(m.clients_ok, engine.async_config().buffer_size);
    }
  }
}

TEST(AsyncEngine, FleetThatNeverFitsClosesEmptyWindows) {
  // Every device answers, but none can ever hold what the policy adapts a
  // dispatch to, so no update can arrive: each window closes empty once
  // `concurrency` of its dispatches have failed adaptation, instead of
  // redispatching forever.
  MockPolicy policy(12);
  policy.required_capacity_ = 1001;
  auto fleet = mock_fleet(12, 1000, 1.0);
  async::AsyncConfig acfg;
  acfg.enabled = true;
  async::AsyncEngine engine(mock_config(2, 4), acfg, &fleet);
  const std::size_t concurrency = engine.async_config().concurrency;
  RunResult r = engine.run(policy);

  ASSERT_EQ(r.round_metrics.size(), 2u);
  for (const RoundMetrics& m : r.round_metrics) {
    EXPECT_EQ(m.clients_ok, 0u);
    EXPECT_EQ(m.clients_failed, concurrency);
  }
  EXPECT_EQ(r.failed_trainings, 2 * concurrency);
  EXPECT_EQ(policy.executions_.load(), 0u);
}

TEST(AsyncEngine, FleetThatFitsOnlyWhenJitteredFillsEveryWindow) {
  // Every base capacity falls short of what the policy needs, but one draw
  // in eight, jittered upward, reaches it. An update can still arrive, so
  // the stop rule closes no window early, although each books far more than
  // `concurrency` failures, and each waits for a full buffer.
  MockPolicy policy(12);
  policy.required_capacity_ = 1150;
  auto fleet = mock_fleet(12, 1000, 1.0);
  for (DeviceSim& d : fleet) d.jitter = 0.2;  // draws up to 1200
  async::AsyncConfig acfg;
  acfg.enabled = true;
  async::AsyncEngine engine(mock_config(3, 4), acfg, &fleet);
  RunResult r = engine.run(policy);

  EXPECT_GT(r.failed_trainings, 3 * engine.async_config().concurrency);
  ASSERT_EQ(r.round_metrics.size(), 3u);
  for (const RoundMetrics& m : r.round_metrics) {
    EXPECT_EQ(m.clients_ok, engine.async_config().buffer_size);
  }
}

// ---------------------------------------------------------------------------
// RoundEngine + simulated transport
// ---------------------------------------------------------------------------

/// On-wire bytes of one mock frame (100 scalars down, 60 up) on an fp32
/// channel; rounds and clients below 128 take one varint byte each.
std::size_t mock_frame_bytes(net::FrameKind kind) {
  const std::size_t numel = kind == net::FrameKind::kDispatch ? 100 : 60;
  return net::encode_frame({kind, net::Codec::kFp32, 1, 0}, mock_params(numel)).size();
}

TEST(RoundEngine, TransportChargesRealFrameBytes) {
  // The downlink ships dispatch_params() and the uplink the trained update,
  // each as one real frame whose bytes the channel charges.
  MockPolicy policy(3);
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(2, 3);
  cfg.net = net::NetConfig{};
  cfg.net->enabled = true;  // perfect channel, fp32
  RoundEngine engine(cfg, &fleet);
  RunResult r = engine.run(policy);

  EXPECT_EQ(r.failed_trainings, 0u);
  const std::size_t down = mock_frame_bytes(net::FrameKind::kDispatch);
  const std::size_t up = mock_frame_bytes(net::FrameKind::kReturn);
  EXPECT_GT(down, 100 * sizeof(float));
  EXPECT_GT(up, 60 * sizeof(float));
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
  EXPECT_EQ(r.comm.bytes_sent(), 3 * mock_frame_bytes(net::FrameKind::kDispatch));
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

// ---------------------------------------------------------------------------
// Admission: the engine's population decides presence before availability
// ---------------------------------------------------------------------------

/// Admits trainable dispatches through a bare Dispatcher (transport and
/// compression off) and returns what admit() books for each.
class AdmissionHarness {
 public:
  AdmissionHarness(const std::vector<DeviceSim>& fleet, const pop::Population* population)
      : policy_(fleet.size()),
        dispatcher_{"test",      policy_,    &fleet,  population, transport_,
                    compressor_, lifecycle_, result_, telemetry_} {}

  std::optional<engine::DispatchFailure> admit(std::size_t client, std::size_t round,
                                               Rng& rng) {
    engine::Dispatch d;
    d.slot.round = round;
    d.slot.client = client;
    d.slot.trainable = true;
    return dispatcher_.admit(d, rng, round).failure;
  }

 private:
  MockPolicy policy_;
  const net::Transport transport_;  // disabled
  compress::Compressor compressor_;  // disabled
  engine::LifecycleTracker lifecycle_{/*active=*/false};
  RunResult result_;
  std::optional<RoundTelemetry> telemetry_;
  engine::Dispatcher dispatcher_;
};

TEST(Population, AttachInstallsPresenceSchedules) {
  // The engine's population is the only source of presence: with a rotating,
  // sometimes-dark population over a fully available fleet, admission books
  // exactly what Population::state says for every client and round.
  pop::PopConfig cfg;
  cfg.enabled = true;
  cfg.active_frac = 0.75;
  cfg.rotate_every = 5;
  cfg.rotate_frac = 0.3;
  cfg.dark_prob = 0.2;
  const auto population = pop::Population::create(cfg, 12, 17);
  ASSERT_NE(population, nullptr);
  const auto fleet = mock_fleet(12, 1000, 1.0);
  AdmissionHarness harness(fleet, population.get());
  Rng rng(5), reference(5);
  std::size_t absent = 0, dark = 0;
  for (std::size_t round = 0; round < 15; ++round) {
    for (std::size_t c = 0; c < fleet.size(); ++c) {
      const auto failure = harness.admit(c, round, rng);
      switch (population->state(c, round)) {
        case pop::Presence::kAbsent:
          ++absent;
          EXPECT_EQ(failure, engine::DispatchFailure::kDeparted) << round << ":" << c;
          break;
        case pop::Presence::kDark:
          ++dark;
          EXPECT_EQ(failure, engine::DispatchFailure::kWentDark) << round << ":" << c;
          break;
        case pop::Presence::kPresent:
          EXPECT_FALSE(failure.has_value()) << round << ":" << c;
          break;
      }
    }
  }
  EXPECT_GT(absent, 0u);  // the population did churn
  EXPECT_GT(dark, 0u);
  EXPECT_EQ(rng.next_u64(), reference.next_u64());  // availability 1 draws nothing
}

TEST(DeviceSimPresence, NullScheduleKeepsLegacyStreams) {
  // Without a population every client is present, and each admission draws
  // exactly what DeviceSim::responds draws (none at availability 1), so
  // churn-free runs keep their RNG streams.
  for (const double availability : {1.0, 0.5}) {
    SCOPED_TRACE(availability);
    const auto fleet = mock_fleet(4, 1000, availability);
    AdmissionHarness harness(fleet, nullptr);
    Rng rng(7), reference(7);
    for (std::size_t round = 0; round < 8; ++round) {
      for (std::size_t c = 0; c < fleet.size(); ++c) {
        const auto failure = harness.admit(c, round, rng);
        if (fleet[c].responds(reference)) {
          EXPECT_FALSE(failure.has_value()) << round << ":" << c;
        } else {
          EXPECT_EQ(failure, engine::DispatchFailure::kNoResponse) << round << ":" << c;
        }
      }
    }
    EXPECT_EQ(rng.next_u64(), reference.next_u64());  // in lockstep to the end
  }
}

TEST(DeviceSimPresence, AbsentAndDarkClientsNeverRespondAndDrawNothing) {
  // Scripted churn: client 1 departs at round 0, client 2 is dark in rounds
  // 3 and 4. An absent or dark client fails without drawing from the RNG; a
  // present client draws exactly what DeviceSim::responds draws.
  const std::string trace = ::testing::TempDir() + "engine_test_presence.txt";
  std::ofstream(trace) << "leave 1 0\ndark 2 3 2\n";
  pop::PopConfig pc;
  pc.enabled = true;
  pc.trace_path = trace;
  const auto population = pop::Population::create(pc, 4, 42);
  std::remove(trace.c_str());
  ASSERT_NE(population, nullptr);
  const auto fleet = mock_fleet(4, 1000, 0.5);  // would draw if presence did not come first
  AdmissionHarness harness(fleet, population.get());
  Rng rng(7), reference(7);
  std::size_t departed = 0, dark = 0;
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t c = 0; c < fleet.size(); ++c) {
      const auto failure = harness.admit(c, round, rng);
      if (c == 1) {
        departed += failure == engine::DispatchFailure::kDeparted;
      } else if (c == 2 && (round == 3 || round == 4)) {
        dark += failure == engine::DispatchFailure::kWentDark;
      } else if (fleet[c].responds(reference)) {
        EXPECT_FALSE(failure.has_value()) << round << ":" << c;
      } else {
        EXPECT_EQ(failure, engine::DispatchFailure::kNoResponse) << round << ":" << c;
      }
    }
  }
  EXPECT_EQ(departed, 6u);
  EXPECT_EQ(dark, 2u);
  EXPECT_EQ(rng.next_u64(), reference.next_u64());  // in lockstep to the end
}

// ---------------------------------------------------------------------------
// Failure routing: both engines book a failed dispatch through one path
// ---------------------------------------------------------------------------

enum class Failure { kNoResponse, kAdaptFailure, kDownlinkDrop, kUplinkDrop };

/// Fails client 1 of a 3-client fleet one way and runs one round (or one
/// async flush). Only the targeted client fails: with every device
/// unavailable the async flush would close empty, with no commits to count.
RunResult run_failing_client(Failure failure, bool async_engine, MockPolicy& policy) {
  auto fleet = mock_fleet(3, 1000, 1.0);
  FlRunConfig cfg = mock_config(1, 3);
  if (failure == Failure::kNoResponse) fleet[1].availability = 0.0;
  if (failure == Failure::kAdaptFailure) {
    policy.required_capacity_ = 500;
    fleet[1].base_capacity = 100;
  }
  if (failure == Failure::kDownlinkDrop || failure == Failure::kUplinkDrop) {
    cfg.net = net::NetConfig{};
    cfg.net->enabled = true;  // perfect channel: every instant stays 0
    cfg.net->max_retries = 0;
    // Faults key on (round, client); an async "round" is the dispatch id,
    // and client 1 gets the second dispatch.
    const std::string at = async_engine ? "@2:1" : "@1:1";
    cfg.net->faults = net::parse_fault_plan(
        (failure == Failure::kUplinkDrop ? "up.drop" : "drop") + at);
  }
  if (!async_engine) return RoundEngine(cfg, &fleet).run(policy);
  // Clients 0 and 2 fill the buffer; with a zero failure timeout client 1's
  // failure is booked before that flush.
  async::AsyncConfig acfg;
  acfg.enabled = true;
  acfg.buffer_size = 2;
  acfg.concurrency = 3;
  acfg.failure_timeout_s = 0.0;
  acfg.max_reuploads = 0;
  return async::AsyncEngine(cfg, acfg, &fleet).run(policy);
}

TEST(FailureRouting, BothEnginesBookAFailedDispatchTheSameWay) {
  const struct {
    Failure failure;
    const char* name;
    const char* hook;
    bool lost_frame;
  } cases[] = {
      {Failure::kNoResponse, "no response", "no_response:1", false},
      {Failure::kAdaptFailure, "adapt failure", "adapt_failure:1", false},
      {Failure::kDownlinkDrop, "downlink drop", "transport_failure:1", true},
      {Failure::kUplinkDrop, "uplink drop", "transport_failure:1", true},
  };
  for (const auto& c : cases) {
    for (const bool async_engine : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (async_engine ? " (async)" : " (round)"));
      MockPolicy policy(3);
      const RunResult r = run_failing_client(c.failure, async_engine, policy);
      EXPECT_EQ(r.failed_trainings, 1u);
      EXPECT_EQ(r.comm.drops(), c.lost_frame ? 1u : 0u);
      EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(), std::string(c.hook)), 1);
      EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(), std::string("commit:1")), 0);
      EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(), std::string("commit:0")), 1);
      EXPECT_EQ(std::count(policy.log_.begin(), policy.log_.end(), std::string("commit:2")), 1);
    }
  }
}

}  // namespace
}  // namespace afl
