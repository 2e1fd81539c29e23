#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "core/rolling_fl.hpp"

namespace afl {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
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

TEST(AllLarge, RunsAndReportsFullOnly) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kAllLarge, env);
  EXPECT_EQ(r.algorithm, "All-Large");
  EXPECT_EQ(r.curve.size(), 2u);
  EXPECT_GT(r.final_full_acc, 0.0);
  // FedAvg returns everything it sends: zero communication waste.
  EXPECT_DOUBLE_EQ(r.comm.waste_rate(), 0.0);
  EXPECT_EQ(r.level_acc.size(), 1u);
}

TEST(AllLarge, ImprovesOverTrainingOnEasyTask) {
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 8;
  cfg.samples_per_client = 20;
  cfg.local_epochs = 2;
  const ExperimentEnv env = make_env(cfg);
  RunResult r = run_algorithm(Algorithm::kAllLarge, env);
  // Accuracy after training must clearly beat the 10-class chance level.
  EXPECT_GT(r.final_full_acc, 0.15);
}

TEST(Decoupled, RunsWithThreeLevels) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kDecoupled, env);
  EXPECT_EQ(r.algorithm, "Decoupled");
  EXPECT_EQ(r.level_acc.size(), 3u);
  EXPECT_TRUE(r.level_acc.count("L1"));
  EXPECT_TRUE(r.level_acc.count("S1"));
  EXPECT_GT(r.final_avg_acc, 0.0);
}

TEST(Decoupled, NoFailuresWithStandardTiers) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kDecoupled, env);
  EXPECT_EQ(r.failed_trainings, 0u);
}

TEST(HeteroFl, RunsWithUniformLevels) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kHeteroFl, env);
  EXPECT_EQ(r.algorithm, "HeteroFL");
  EXPECT_EQ(r.level_acc.size(), 3u);
  EXPECT_TRUE(r.level_acc.count("1.00x"));
  EXPECT_TRUE(r.level_acc.count("0.66x"));
  EXPECT_TRUE(r.level_acc.count("0.40x"));
}

TEST(HeteroFl, UniformSubmodelsFitTierBudgets) {
  // The uniform 0.66 / 0.40 submodels must fit the medium / weak budgets the
  // pool's deep plans define, otherwise the static assignment would fail.
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kHeteroFl, env);
  EXPECT_EQ(r.failed_trainings, 0u);
  EXPECT_DOUBLE_EQ(r.comm.waste_rate(), 0.0);  // static matching wastes nothing
}

TEST(Baselines, DeterministicGivenSeed) {
  const ExperimentEnv env = make_env(tiny_config());
  for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kDecoupled,
                      Algorithm::kHeteroFl}) {
    RunResult r1 = run_algorithm(a, env);
    RunResult r2 = run_algorithm(a, env);
    EXPECT_DOUBLE_EQ(r1.final_full_acc, r2.final_full_acc) << algorithm_name(a);
  }
}

TEST(Baselines, RunOnAllArchitectures) {
  for (ModelKind m : {ModelKind::kMiniResnet, ModelKind::kMiniMobilenet}) {
    ExperimentConfig cfg = tiny_config();
    cfg.model = m;
    cfg.rounds = 1;
    const ExperimentEnv env = make_env(cfg);
    for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kDecoupled,
                        Algorithm::kHeteroFl}) {
      EXPECT_GT(run_algorithm(a, env).final_full_acc, 0.0)
          << algorithm_name(a) << " on " << model_name(m);
    }
  }
}

TEST(Baselines, EveryAlgorithmWithAFleetRunsUnderThePopulation) {
  // The engine builds the population the run config names for any fleet. A
  // scripted trace departs every client at round 0, so each baseline books
  // every dispatch as a churn failure; All-Large has no fleet and stays
  // idealized.
  ExperimentEnv env = make_env(tiny_config());
  const std::string trace = ::testing::TempDir() + "baselines_all_depart.txt";
  {
    std::ofstream out(trace);
    for (std::size_t c = 0; c < env.devices.size(); ++c) out << "leave " << c << " 0\n";
  }
  env.run.pop = pop::PopConfig{};
  env.run.pop->enabled = true;
  env.run.pop->trace_path = trace;
  const std::size_t dispatches = env.run.rounds * env.run.clients_per_round;
  for (Algorithm a : {Algorithm::kDecoupled, Algorithm::kHeteroFl, Algorithm::kScaleFl}) {
    EXPECT_EQ(run_algorithm(a, env).failed_trainings, dispatches) << algorithm_name(a);
  }
  EXPECT_EQ(RollingFl(env.spec, env.pool_config, env.data, env.devices, env.run)
                .run()
                .failed_trainings,
            dispatches);
  EXPECT_EQ(run_algorithm(Algorithm::kAllLarge, env).failed_trainings, 0u);
  std::remove(trace.c_str());
}

TEST(Baselines, AsyncOrHierarchicalRunThrowsNamingTheAlgorithm) {
  // Only AdaptiveFL implements the async and sharded policy seams; a
  // baseline asked for either refuses before training, naming itself.
  ExperimentEnv async_env = make_env(tiny_config());
  async_env.run.async = async::AsyncConfig{};
  async_env.run.async->enabled = true;
  ExperimentEnv hier_env = make_env(tiny_config());
  hier_env.run.hier = hier::HierConfig{};
  hier_env.run.hier->enabled = true;
  for (const ExperimentEnv* env : {&async_env, &hier_env}) {
    for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kDecoupled, Algorithm::kHeteroFl,
                        Algorithm::kScaleFl}) {
      try {
        run_algorithm(a, *env);
        ADD_FAILURE() << algorithm_name(a) << " ran";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(algorithm_name(a)), std::string::npos) << e.what();
      }
    }
    EXPECT_THROW(RollingFl(env->spec, env->pool_config, env->data, env->devices, env->run).run(),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace afl
