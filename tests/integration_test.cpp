// Cross-module integration tests: whole-system learning behaviour and
// invariants that only emerge when pruning, RL selection, training and
// aggregation run together.

#include <gtest/gtest.h>

#include "arch/zoo.hpp"
#include "core/experiment.hpp"
#include "fl/local_train.hpp"
#include "prune/model_pool.hpp"
#include "sim/testbed.hpp"

namespace afl {
namespace {

/// Test accuracy of `model`'s current parameters, built on (spec, plan).
double accuracy(const ArchSpec& spec, const WidthPlan& plan, Model& model,
                const Dataset& test) {
  ThreadPool pool(1);
  return eval_params(spec, plan, {}, model.export_params(), test, FlRunConfig{}.eval_batch,
                     pool);
}

TEST(Integration, SingleModelLearnsSyntheticTask) {
  // Sanity anchor for every other experiment: plain centralized SGD on the
  // synthetic task must reach well above chance quickly.
  Rng rng(1);
  SyntheticConfig scfg = SyntheticConfig::cifar10_like(8);
  SyntheticTask task(scfg, rng);
  Dataset train = task.generate(300, rng);
  Dataset test = task.generate(150, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  Model model = build_full_model(spec, &rng);
  LocalTrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 20;
  local_train(model, train, cfg, rng);
  const double acc = accuracy(spec, WidthPlan(spec.num_units(), 1.0), model, test);
  EXPECT_GT(acc, 0.5) << "centralized sanity accuracy too low: " << acc;
}

TEST(Integration, PrunedSubmodelOfTrainedModelStaysAboveChance) {
  // The shared-shallow-layer design means an S-level prune of a trained
  // global model should retain useful features (well above 10% chance).
  Rng rng(2);
  SyntheticConfig scfg = SyntheticConfig::cifar10_like(8);
  SyntheticTask task(scfg, rng);
  Dataset train = task.generate(300, rng);
  Dataset test = task.generate(150, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  ModelPool pool(spec, PoolConfig::defaults_for(spec));

  Model model = build_full_model(spec, &rng);
  LocalTrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 20;
  local_train(model, train, cfg, rng);
  ParamSet global = model.export_params();

  // Fine-tune the pruned S1 model briefly (it loses its deep tail).
  const std::size_t s1 = pool.level_head_index(Level::kSmall);
  Model small = pool.build(s1);
  small.import_params(pool.split(global, s1));
  LocalTrainConfig ft;
  ft.epochs = 2;
  ft.batch_size = 20;
  local_train(small, train, ft, rng);
  EXPECT_GT(accuracy(spec, pool.entry(s1).plan, small, test), 0.3);
}

TEST(Integration, AdaptiveFlBeatsRandomInitByMargin) {
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 25;
  cfg.test_samples = 100;
  cfg.image_hw = 8;
  cfg.rounds = 30;
  cfg.local_epochs = 2;
  cfg.batch_size = 25;
  cfg.eval_every = 10;
  const ExperimentEnv env = make_env(cfg);
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.best_full_acc(), 0.18);  // chance is 0.1
}

TEST(Integration, AllFiveAlgorithmsOnOneEnv) {
  ExperimentConfig cfg;
  cfg.num_clients = 8;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 10;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 1;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  const ExperimentEnv env = make_env(cfg);
  for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kDecoupled,
                      Algorithm::kHeteroFl, Algorithm::kScaleFl,
                      Algorithm::kAdaptiveFl}) {
    RunResult r = run_algorithm(a, env);
    EXPECT_GT(r.final_full_acc, 0.0) << algorithm_name(a);
    EXPECT_EQ(r.curve.size(), 1u) << algorithm_name(a);
  }
}

TEST(Integration, TestbedEnvironmentRuns) {
  // The Figure-6 setting: 17 devices in the Table-5 mix, Widar-like data,
  // MobileNetV2-style model, natural non-IID.
  ExperimentConfig cfg;
  cfg.task = TaskKind::kWidarLike;
  cfg.model = ModelKind::kMiniMobilenet;
  cfg.partition = Partition::kNatural;
  cfg.num_clients = 17;
  cfg.clients_per_round = 10;
  cfg.samples_per_client = 10;
  cfg.test_samples = 44;
  cfg.image_hw = 8;
  cfg.rounds = 2;
  cfg.local_epochs = 1;
  cfg.batch_size = 10;
  cfg.eval_every = 1;
  ExperimentEnv env = make_env(cfg);
  // Replace the proportion-derived devices with the exact Table-5 profile.
  {
    ModelPool pool(env.spec, env.pool_config);
    Rng rng(3);
    env.devices = make_testbed_devices(pool, rng);
  }
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.final_full_acc, 0.0);
  EXPECT_EQ(r.failed_trainings, 0u);
}

TEST(Integration, FailureInjectionDropouts) {
  // Shrink every device's capacity below the smallest pool entry: every
  // dispatch fails, no updates flow, yet the run terminates cleanly and the
  // global model is simply unchanged (accuracy ~ chance).
  ExperimentConfig cfg;
  cfg.num_clients = 6;
  cfg.clients_per_round = 3;
  cfg.samples_per_client = 8;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 2;
  cfg.local_epochs = 1;
  cfg.batch_size = 8;
  cfg.eval_every = 1;
  ExperimentEnv env = make_env(cfg);
  for (DeviceSim& d : env.devices) d.base_capacity = 1;
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_EQ(r.failed_trainings, 2u * 3u);
  EXPECT_EQ(r.comm.params_returned(), 0u);
}

TEST(Integration, UncertainEnvironmentStillLearns) {
  // Dynamic capacities (the paper's motivating uncertainty) must not break
  // learning: AdaptiveFL adapts on the fly via on-device pruning.
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 6;
  cfg.samples_per_client = 25;
  cfg.test_samples = 100;
  cfg.image_hw = 8;
  cfg.rounds = 30;
  cfg.local_epochs = 2;
  cfg.batch_size = 25;
  cfg.eval_every = 10;
  cfg.capacity_jitter = 0.25;
  const ExperimentEnv env = make_env(cfg);
  RunResult r = run_algorithm(Algorithm::kAdaptiveFl, env);
  EXPECT_GT(r.best_full_acc(), 0.15);
}

}  // namespace
}  // namespace afl
