#include <gtest/gtest.h>

#include "core/adaptivefl.hpp"
#include "core/experiment.hpp"

namespace afl {
namespace {

/// Tiny environment: fast enough for unit tests, real enough to exercise the
/// whole Algorithm-1 loop.
ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.task = TaskKind::kCifar10Like;
  cfg.model = ModelKind::kMiniVgg;
  cfg.num_clients = 8;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 10;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 2;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  return cfg;
}

TEST(AdaptiveFl, RunsAndProducesCurve) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_EQ(r.algorithm, "AdaptiveFL+CS");
  ASSERT_EQ(r.curve.size(), 2u);
  EXPECT_EQ(r.curve.back().round, 2u);
  EXPECT_GT(r.final_full_acc, 0.0);
  EXPECT_LE(r.final_full_acc, 1.0);
  // L1/M1/S1 level accuracies are all reported.
  EXPECT_EQ(r.level_acc.size(), 3u);
  EXPECT_TRUE(r.level_acc.count("L1"));
  EXPECT_TRUE(r.level_acc.count("M1"));
  EXPECT_TRUE(r.level_acc.count("S1"));
}

TEST(AdaptiveFl, DeterministicGivenSeed) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult a = run_algorithm(Algorithm::kAdaptiveFl, env);
  RunResult b = run_algorithm(Algorithm::kAdaptiveFl, env);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].full_acc, b.curve[i].full_acc);
    EXPECT_DOUBLE_EQ(a.curve[i].avg_acc, b.curve[i].avg_acc);
  }
  EXPECT_EQ(a.comm.params_sent(), b.comm.params_sent());
}

TEST(AdaptiveFl, CommunicationAccounted) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.comm.params_sent(), 0u);
  EXPECT_GT(r.comm.params_returned(), 0u);
  EXPECT_LE(r.comm.params_returned(), r.comm.params_sent());
  EXPECT_GE(r.comm.waste_rate(), 0.0);
  EXPECT_LT(r.comm.waste_rate(), 1.0);
}

TEST(AdaptiveFl, GreedyDispatchWastesMore) {
  // +Greed always ships L1; weak/medium clients prune it, so its waste rate
  // must exceed +CS's (the paper's Figure 5a).
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 6;
  const ExperimentEnv env = make_env(cfg);
  RunResult cs = run_algorithm(Algorithm::kAdaptiveFl, env);
  RunResult greed = run_algorithm(Algorithm::kAdaptiveFlGreed, env);
  EXPECT_EQ(greed.algorithm, "AdaptiveFL+Greed");
  EXPECT_GT(greed.comm.waste_rate(), cs.comm.waste_rate());
}

TEST(AdaptiveFl, VariantNamesAndRuns) {
  const ExperimentEnv env = make_env(tiny_config());
  EXPECT_EQ(run_algorithm(Algorithm::kAdaptiveFlC, env).algorithm, "AdaptiveFL+C");
  EXPECT_EQ(run_algorithm(Algorithm::kAdaptiveFlS, env).algorithm, "AdaptiveFL+S");
  EXPECT_EQ(run_algorithm(Algorithm::kAdaptiveFlRandom, env).algorithm,
            "AdaptiveFL+Random");
}

TEST(AdaptiveFl, CoarseGrainedPoolP1) {
  ExperimentConfig cfg = tiny_config();
  cfg.pool_p = 1;
  const ExperimentEnv env = make_env(cfg);
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.final_full_acc, 0.0);
}

TEST(AdaptiveFl, WorksOnAllMiniArchitectures) {
  for (ModelKind m : {ModelKind::kMiniVgg, ModelKind::kMiniResnet,
                      ModelKind::kMiniMobilenet}) {
    ExperimentConfig cfg = tiny_config();
    cfg.model = m;
    cfg.rounds = 1;
    const ExperimentEnv env = make_env(cfg);
    RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
    EXPECT_GT(r.final_full_acc, 0.0) << model_name(m);
  }
}

TEST(AdaptiveFl, NonIidPartitionsRun) {
  for (Partition p : {Partition::kDirichlet, Partition::kNatural}) {
    ExperimentConfig cfg = tiny_config();
    cfg.partition = p;
    cfg.alpha = 0.3;
    cfg.rounds = 1;
    const ExperimentEnv env = make_env(cfg);
    EXPECT_GT(run_algorithm(Algorithm::kAdaptiveFl, env).final_full_acc, 0.0);
  }
}

TEST(AdaptiveFl, CapacityJitterTriggersAdaptivePruning) {
  // With jitter, even strong clients occasionally prune: the waste rate must
  // be strictly positive yet the run must complete.
  ExperimentConfig cfg = tiny_config();
  cfg.capacity_jitter = 0.3;
  cfg.rounds = 5;
  const ExperimentEnv env = make_env(cfg);
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.comm.waste_rate(), 0.0);
  EXPECT_EQ(r.curve.size(), 5u);
}

TEST(AdaptiveFl, RequiresDevicePerClient) {
  ExperimentEnv env = make_env(tiny_config());
  std::vector<DeviceSim> wrong(env.devices.begin(), env.devices.end() - 1);
  EXPECT_THROW(
      AdaptiveFl(env.spec, env.pool_config, env.data, wrong, env.run, {}),
      std::invalid_argument);
}

TEST(AdaptiveFl, FleetThatNeverFitsEndsOnEitherEngine) {
  // No device can hold even the smallest pool entry, so every dispatch fails
  // adaptation. The sync run books each slot as a failure; the async run
  // closes each window empty once `concurrency` dispatches have failed.
  ExperimentConfig cfg = tiny_config();
  cfg.num_clients = 12;
  ExperimentEnv env = make_env(cfg);
  for (DeviceSim& d : env.devices) d.base_capacity = 0;
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    FlRunConfig run = env.run;
    run.async = async::AsyncConfig{};
    run.async->enabled = async;
    AdaptiveFl alg(env.spec, env.pool_config, env.data, env.devices, run, {});
    const RunResult r = alg.run();
    const std::size_t per_window = async ? 2 * cfg.clients_per_round : cfg.clients_per_round;
    EXPECT_EQ(r.failed_trainings, cfg.rounds * per_window);
    EXPECT_EQ(r.comm.params_returned(), 0u);
  }
}

TEST(AdaptiveFl, RlTablesLearnTierStructure) {
  // After several rounds, the selector should assign higher L1-selection
  // probability mass to strong clients than to weak clients.
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 10;
  cfg.num_clients = 10;
  cfg.clients_per_round = 5;
  const ExperimentEnv env = make_env(cfg);
  AdaptiveFl alg(env.spec, env.pool_config, env.data, env.devices, env.run, {});
  alg.run();
  const ModelPool& pool = alg.pool();
  std::vector<bool> taken(env.devices.size(), false);
  const auto probs = alg.selector().probabilities(pool.largest_index(), taken);
  double strong_mass = 0.0, weak_mass = 0.0;
  std::size_t n_strong = 0, n_weak = 0;
  for (std::size_t c = 0; c < env.devices.size(); ++c) {
    if (env.devices[c].tier == DeviceTier::kStrong) {
      strong_mass += probs[c];
      ++n_strong;
    } else if (env.devices[c].tier == DeviceTier::kWeak) {
      weak_mass += probs[c];
      ++n_weak;
    }
  }
  ASSERT_GT(n_strong, 0u);
  ASSERT_GT(n_weak, 0u);
  EXPECT_GT(strong_mass / n_strong, weak_mass / n_weak);
}

}  // namespace
}  // namespace afl
