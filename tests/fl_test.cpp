// Tests for the FL engine pieces not covered elsewhere: evaluation and local
// training semantics (including warm-started AdaptiveFL).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "arch/zoo.hpp"
#include "core/experiment.hpp"
#include "fl/evaluate.hpp"
#include "fl/local_train.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "tensor/ops.hpp"

namespace afl {
namespace {

/// Flatten + Linear(in -> classes) with the given weight diagonal.
Model linear_model(std::size_t in, std::size_t classes, float diagonal) {
  Model m;
  m.append("flat", std::make_unique<Flatten>());
  auto lin = std::make_unique<Linear>(in, classes);
  for (std::size_t i = 0; i < std::min(in, classes); ++i) lin->weight()[i * in + i] = diagonal;
  m.append("cls", std::move(lin));
  return m;
}

TEST(Evaluate, PerfectModelScoresOne) {
  // A linear model with a huge diagonal weight on a one-hot-ish task.
  Dataset ds(1, 1, 3, 3);
  for (int label = 0; label < 3; ++label) {
    Tensor img({1, 1, 3});
    img[static_cast<std::size_t>(label)] = 10.0f;
    ds.add(img, label);
  }
  ThreadPool pool(1);
  const EvalResult r = evaluate([] { return linear_model(3, 3, 1.0f); }, ds, 16, pool);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_EQ(r.samples, 3u);
  EXPECT_LT(r.mean_loss, 0.01);
}

TEST(Evaluate, EmptyDataset) {
  Dataset ds(1, 2, 2, 2);
  ThreadPool pool(1);
  const EvalResult r = evaluate([] { return linear_model(4, 2, 0.0f); }, ds, 16, pool);
  EXPECT_EQ(r.samples, 0u);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.0);
}

TEST(Evaluate, BatchSizeDoesNotChangeResult) {
  Rng rng(1);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  Dataset ds = task.generate(37, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  const ParamSet params = build_full_model(spec, &rng).export_params();
  const auto make_model = [&] {
    Model m = build_full_model(spec);
    m.import_params(params);
    return m;
  };
  ThreadPool pool(1);
  const EvalResult a = evaluate(make_model, ds, 8, pool);
  const EvalResult b = evaluate(make_model, ds, 64, pool);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_NEAR(a.mean_loss, b.mean_loss, 1e-5);
}

TEST(Evaluate, ZeroBatchSizeThrows) {
  // A zero chunk size would never advance the chunk loop.
  Dataset ds(1, 2, 2, 2);
  ds.add(Tensor({1, 2, 2}), 0);
  ThreadPool pool(1);
  try {
    evaluate([] { return linear_model(4, 2, 1.0f); }, ds, 0, pool);
    FAIL() << "batch size 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch_size must be >= 1, got 0"), std::string::npos)
        << e.what();
  }
}

TEST(LocalTrain, CountsSamplesAcrossEpochs) {
  Rng rng(2);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  Dataset ds = task.generate(23, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  Model m = build_full_model(spec, &rng);
  LocalTrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 10;
  const LocalTrainResult r = local_train(m, ds, cfg, rng);
  EXPECT_EQ(r.samples_seen, 3u * 23u);
  EXPECT_GT(r.mean_loss, 0.0);
}

TEST(LocalTrain, EmptyDatasetIsNoop) {
  Rng rng(3);
  Dataset empty(3, 8, 8, 10);
  ArchSpec spec = mini_vgg(10, 3, 8);
  Model m = build_full_model(spec, &rng);
  const ParamSet before = m.export_params();
  LocalTrainConfig cfg;
  const LocalTrainResult r = local_train(m, empty, cfg, rng);
  EXPECT_EQ(r.samples_seen, 0u);
  EXPECT_EQ(max_abs_diff(m.export_params(), before), 0.0);
}

TEST(LocalTrain, ChangesOnlyWithData) {
  Rng rng(4);
  SyntheticTask task(SyntheticConfig::cifar10_like(8), rng);
  Dataset ds = task.generate(10, rng);
  ArchSpec spec = mini_vgg(10, 3, 8);
  Model m = build_full_model(spec, &rng);
  const ParamSet before = m.export_params();
  LocalTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 10;
  local_train(m, ds, cfg, rng);
  EXPECT_GT(max_abs_diff(m.export_params(), before), 0.0);
}

TEST(WarmStart, ResumesFromCheckpointedParams) {
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
  const ExperimentEnv env = make_env(cfg);

  AdaptiveFl phase1(env.spec, env.pool_config, env.data, env.devices, env.run, {});
  phase1.run();
  const ParamSet snapshot = phase1.global_params();

  AdaptiveFl phase2(env.spec, env.pool_config, env.data, env.devices, env.run, {});
  phase2.set_initial_params(snapshot);
  // Before any training, the warm-started global equals the snapshot.
  EXPECT_EQ(max_abs_diff(phase2.global_params(), snapshot), 0.0);
  phase2.run();
  // After training it moved.
  EXPECT_GT(max_abs_diff(phase2.global_params(), snapshot), 0.0);
}

TEST(WarmStart, RejectsWrongStructure) {
  ExperimentConfig cfg;
  cfg.num_clients = 4;
  cfg.clients_per_round = 2;
  cfg.samples_per_client = 4;
  cfg.test_samples = 10;
  cfg.image_hw = 8;
  cfg.rounds = 1;
  const ExperimentEnv env = make_env(cfg);
  AdaptiveFl alg(env.spec, env.pool_config, env.data, env.devices, env.run, {});
  ParamSet wrong;
  wrong.emplace("bogus.w", Tensor({2, 2}));
  EXPECT_THROW(alg.set_initial_params(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace afl
