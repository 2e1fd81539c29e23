// Chunked evaluation (fl/evaluate.hpp, docs/ENGINE.md): every model's test
// set is cut into fixed eval_batch chunks that run on the engine's thread
// pool, each on its own model instance, and the per-chunk tallies are summed
// in chunk order. Chunk boundaries depend only on the test-set size, so the
// result must be bit-identical at every pool size, and because a sample's
// logits do not depend on its chunk-mates the accuracy must equal one
// whole-set forward pass. The engines must also keep the observability
// contract the benchmark checks: one afl.fl.evaluate.seconds sample and one
// `evaluate` trace record per evaluated model.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "arch/zoo.hpp"
#include "core/experiment.hpp"
#include "fl/evaluate.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

ArchSpec make_arch(const std::string& name, std::size_t px) {
  if (name == "mini_vgg") return mini_vgg(10, 3, px);
  if (name == "mini_resnet") return mini_resnet(10, 3, px);
  if (name == "mini_mobilenet") return mini_mobilenet(10, 3, px);
  throw std::invalid_argument("unknown arch " + name);
}

using ArchCase = std::tuple<std::string, std::size_t>;  // (arch, image px)

class ChunkedEvaluate : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ChunkedEvaluate, ExactAtAnyPoolSize) {
  const auto& [arch, px] = GetParam();
  Rng rng(px);
  const ArchSpec spec = make_arch(arch, px);
  const ParamSet params = build_full_model(spec, &rng).export_params();
  const auto make_model = [&] {
    Model m = build_full_model(spec);
    m.import_params(params);
    return m;
  };
  SyntheticTask task(SyntheticConfig::cifar10_like(px), rng);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (std::size_t threads : {1, 2, 3, 8}) pools.push_back(std::make_unique<ThreadPool>(threads));

  // Sizes below, at and just past one chunk, and a long ragged tail.
  for (std::size_t n : {1, 15, 16, 17, 263}) {
    const Dataset test = task.generate(n, rng);
    const Batch all = test.all();
    Model whole = make_model();
    const double whole_acc =
        static_cast<double>(count_correct(whole.forward(all.images, /*train=*/false), all.labels)) /
        static_cast<double>(n);
    std::optional<EvalResult> first;
    for (const std::unique_ptr<ThreadPool>& pool : pools) {
      const EvalResult r = evaluate(make_model, test, FlRunConfig{}.eval_batch, *pool);
      SCOPED_TRACE(arch + " " + std::to_string(px) + "px, " + std::to_string(n) +
                   " samples, " + std::to_string(pool->size()) + " threads");
      EXPECT_EQ(r.samples, n);
      EXPECT_EQ(r.accuracy, whole_acc);
      if (!first) {
        first = r;
        continue;
      }
      // Bit-identical, not approximately equal.
      EXPECT_EQ(r.accuracy, first->accuracy);
      EXPECT_EQ(r.samples, first->samples);
      EXPECT_EQ(r.mean_loss, first->mean_loss);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MiniArchs, ChunkedEvaluate,
    ::testing::Combine(::testing::Values("mini_vgg", "mini_resnet", "mini_mobilenet"),
                       ::testing::Values(std::size_t{8}, std::size_t{12})),
    [](const ::testing::TestParamInfo<ArchCase>& info) {
      return std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param)) + "px";
    });

enum class EngineKind { kSync, kAsync, kHier };

ExperimentEnv tiny_env(EngineKind engine, std::size_t threads) {
  ExperimentConfig cfg;
  cfg.num_clients = 12;
  cfg.clients_per_round = 4;
  cfg.samples_per_client = 12;
  cfg.test_samples = 40;
  cfg.image_hw = 8;
  cfg.rounds = 3;
  cfg.local_epochs = 1;
  cfg.batch_size = 12;
  cfg.eval_every = 1;
  ExperimentEnv env = make_env(cfg);
  env.run.threads = threads;
  env.run.net = net::NetConfig{};
  env.run.pop = pop::PopConfig{};
  env.run.async = async::AsyncConfig{};
  env.run.hier = hier::HierConfig{};
  if (engine == EngineKind::kAsync) {
    env.run.async->enabled = true;
    env.run.async->buffer_size = 2;
    env.run.async->concurrency = 4;
  } else if (engine == EngineKind::kHier) {
    env.run.hier->enabled = true;
    env.run.hier->shards = 2;
  }
  return env;
}

std::size_t evaluate_records(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"evaluate\"") != std::string::npos) ++n;
  }
  return n;
}

using RecordCase = std::tuple<EngineKind, std::size_t>;  // (engine, threads)

class EvaluationRecords : public ::testing::TestWithParam<RecordCase> {};

TEST_P(EvaluationRecords, OnePerModel) {
  const auto& [engine, threads] = GetParam();
  const ExperimentEnv env = tiny_env(engine, threads);
  const std::string path = ::testing::TempDir() + "evaluate_records_" +
                           std::to_string(static_cast<int>(engine)) + "_" +
                           std::to_string(threads) + ".jsonl";
  const obs::Histogram& hist = obs::metrics().histogram("afl.fl.evaluate.seconds");
  const std::uint64_t before = hist.count();
  obs::set_trace_path(path);
  const RunResult r = run_algorithm(
      engine == EngineKind::kAsync ? Algorithm::kAdaptiveFlAsync : Algorithm::kAdaptiveFl, env);
  obs::set_trace_path("");

  // Every round (flush) evaluates, and every evaluation scores L1, M1 and S1.
  ASSERT_EQ(r.curve.size(), env.config.rounds);
  EXPECT_EQ(r.level_acc.size(), 3u);
  EXPECT_EQ(hist.count() - before, 3 * r.curve.size());
  EXPECT_EQ(evaluate_records(path), 3 * r.curve.size());
  std::remove(path.c_str());
}

std::string record_case_name(const ::testing::TestParamInfo<RecordCase>& info) {
  const char* const names[] = {"sync", "async", "hier"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param)) + "threads";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EvaluationRecords,
    ::testing::Combine(::testing::Values(EngineKind::kSync, EngineKind::kAsync,
                                         EngineKind::kHier),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    record_case_name);

TEST(RunConfig, ZeroBatchSizesFailTheRun) {
  // Either zero would otherwise hang the run: a zero step never advances
  // evaluation's chunk loop or local training's batch split. The training
  // throw happens on a worker thread, so this also checks the pool hands it
  // back to the engine.
  ExperimentEnv env = tiny_env(EngineKind::kSync, 2);
  env.run.eval_batch = 0;
  EXPECT_THROW(run_algorithm(Algorithm::kAdaptiveFl, env), std::invalid_argument);
  env.run.eval_batch = FlRunConfig{}.eval_batch;
  env.run.local.batch_size = 0;
  EXPECT_THROW(run_algorithm(Algorithm::kAdaptiveFl, env), std::invalid_argument);
}

}  // namespace
}  // namespace afl
