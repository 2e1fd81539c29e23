#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/scalefl.hpp"
#include "fl/local_train.hpp"

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

TEST(ScaleFl, LevelsDescendAndFitBudgets) {
  const ExperimentEnv env = make_env(tiny_config());
  ScaleFl alg(env.spec, env.scalefl_budgets, env.data, env.devices, env.run);
  const auto& levels = alg.levels();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].depth, env.spec.num_units());
  EXPECT_GT(levels[0].depth, levels[1].depth);
  EXPECT_GT(levels[1].depth, levels[2].depth);
  for (int l = 0; l < 3; ++l) {
    EXPECT_LE(levels[l].params, env.scalefl_budgets[l]) << levels[l].label;
    EXPECT_GT(levels[l].params, 0u);
  }
  // Sizes descend with level.
  EXPECT_GT(levels[0].params, levels[1].params);
  EXPECT_GT(levels[1].params, levels[2].params);
}

TEST(ScaleFl, FullLevelHasBothExits) {
  const ExperimentEnv env = make_env(tiny_config());
  ScaleFl alg(env.spec, env.scalefl_budgets, env.data, env.devices, env.run);
  EXPECT_EQ(alg.levels()[0].options.exits.size(), 2u);
  EXPECT_EQ(alg.levels()[1].options.exits.size(), 1u);
  EXPECT_TRUE(alg.levels()[2].options.exits.empty());
}

TEST(ScaleFl, RunsEndToEnd) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult r = run_algorithm(Algorithm::kScaleFl, env);
  EXPECT_EQ(r.algorithm, "ScaleFL");
  EXPECT_EQ(r.curve.size(), 2u);
  EXPECT_EQ(r.level_acc.size(), 3u);
  EXPECT_GT(r.final_full_acc, 0.0);
  EXPECT_EQ(r.failed_trainings, 0u);
}

TEST(ScaleFl, Deterministic) {
  const ExperimentEnv env = make_env(tiny_config());
  RunResult a = run_algorithm(Algorithm::kScaleFl, env);
  RunResult b = run_algorithm(Algorithm::kScaleFl, env);
  EXPECT_DOUBLE_EQ(a.final_full_acc, b.final_full_acc);
  EXPECT_DOUBLE_EQ(a.final_avg_acc, b.final_avg_acc);
}

TEST(ScaleFl, MultiExitTrainingDecreasesLoss) {
  // Self-distillation local training must actually optimize: run several
  // epochs on one client's data and require the mean loss to drop.
  const ExperimentEnv env = make_env(tiny_config());
  ScaleFl alg(env.spec, env.scalefl_budgets, env.data, env.devices, env.run);
  const ScaleFlLevel& level = alg.levels()[0];
  Rng rng(1);
  Model model = build_model(env.spec, level.plan, &rng, level.options);
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 10;
  cfg.distill_weight = 1.0;
  Rng trng(2);
  const double first = local_train(model, env.data.clients[0], cfg, trng).mean_loss;
  double last = first;
  for (int e = 0; e < 6; ++e) {
    last = local_train(model, env.data.clients[0], cfg, trng).mean_loss;
  }
  EXPECT_LT(last, first);
}

TEST(ScaleFl, ValidatesInputs) {
  const ExperimentEnv env = make_env(tiny_config());
  std::vector<std::size_t> two_budgets = {1000, 500};
  EXPECT_THROW(ScaleFl(env.spec, two_budgets, env.data, env.devices, env.run),
               std::invalid_argument);
  std::vector<DeviceSim> wrong(env.devices.begin(), env.devices.end() - 1);
  EXPECT_THROW(ScaleFl(env.spec, env.scalefl_budgets, env.data, wrong, env.run),
               std::invalid_argument);
}

TEST(ScaleFl, RunsOnResnetAndMobilenet) {
  for (ModelKind m : {ModelKind::kMiniResnet, ModelKind::kMiniMobilenet}) {
    ExperimentConfig cfg = tiny_config();
    cfg.model = m;
    cfg.rounds = 1;
    const ExperimentEnv env = make_env(cfg);
    EXPECT_GT(run_algorithm(Algorithm::kScaleFl, env).final_full_acc, 0.0)
        << model_name(m);
  }
}

}  // namespace
}  // namespace afl
