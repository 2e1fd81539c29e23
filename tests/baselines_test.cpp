#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "obs/trace.hpp"

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

/// The unsigned number after `"key":` in a trace line.
std::uint64_t trace_u64(const std::string& line, const std::string& key) {
  return std::stoull(line.substr(line.find("\"" + key + "\":") + key.size() + 3));
}

/// (round, client) of every dispatch of a traced run with a transport, in
/// the order the engine planned them: by lifecycle id.
std::vector<std::pair<std::uint64_t, std::uint64_t>> planned_dispatches(const std::string& path) {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> by_id;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"phase\":\"select\"") == std::string::npos) continue;
    by_id[trace_u64(line, "dispatch")] = {trace_u64(line, "round"), trace_u64(line, "client")};
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> plan;
  for (const auto& [id, dispatch] : by_id) plan.push_back(dispatch);
  return plan;
}

TEST(Baselines, OneCohortScheduleUnderOneSeed) {
  // After init_global() every baseline with a fleet leaves the root RNG in
  // the same state (ScaleFL's exit heads draw from a stream of their own),
  // so under one seed the cohorts, capacity draws and availability draws
  // match: each dispatches the same client in every (round, slot).
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 3;
  cfg.capacity_jitter = 0.25;
  cfg.availability = 0.7;
  ExperimentEnv env = make_env(cfg);
  env.run.net = net::NetConfig{};
  env.run.net->enabled = true;  // lifecycle ids number the dispatches in slot order
  const std::string path = ::testing::TempDir() + "baselines_cohorts.jsonl";
  const auto schedule = [&](const auto& run) {
    obs::set_trace_path(path);
    run();
    obs::set_trace_path("");
    return planned_dispatches(path);
  };
  const auto decoupled = schedule([&] { run_algorithm(Algorithm::kDecoupled, env); });
  ASSERT_EQ(decoupled.size(), cfg.rounds * cfg.clients_per_round);
  for (Algorithm a : {Algorithm::kHeteroFl, Algorithm::kScaleFl}) {
    EXPECT_EQ(schedule([&] { run_algorithm(a, env); }), decoupled) << algorithm_name(a);
  }
  EXPECT_EQ(schedule([&] {
              RollingFl(env.spec, env.pool_config, env.data, env.devices, env.run).run();
            }),
            decoupled)
      << "FedRolex*";
  std::remove(path.c_str());
}

/// Every RunResult field a run's wall clock does not touch, bit for bit.
void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.failed_trainings, b.failed_trainings);
  EXPECT_EQ(a.comm.params_sent(), b.comm.params_sent());
  EXPECT_EQ(a.comm.params_returned(), b.comm.params_returned());
  EXPECT_EQ(a.level_acc, b.level_acc);
  EXPECT_EQ(a.final_full_acc, b.final_full_acc);
  EXPECT_EQ(a.final_avg_acc, b.final_avg_acc);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round);
    EXPECT_EQ(a.curve[i].full_acc, b.curve[i].full_acc) << "point " << i;
    EXPECT_EQ(a.curve[i].avg_acc, b.curve[i].avg_acc) << "point " << i;
    EXPECT_EQ(a.curve[i].comm_waste, b.curve[i].comm_waste) << "point " << i;
  }
  ASSERT_EQ(a.round_metrics.size(), b.round_metrics.size());
  for (std::size_t i = 0; i < a.round_metrics.size(); ++i) {
    EXPECT_EQ(a.round_metrics[i].clients_ok, b.round_metrics[i].clients_ok) << "round " << i;
    EXPECT_EQ(a.round_metrics[i].clients_failed, b.round_metrics[i].clients_failed)
        << "round " << i;
  }
}

ExperimentEnv sharded(ExperimentEnv env, std::size_t shards, std::size_t sync_every) {
  env.run.hier = hier::HierConfig{};
  env.run.hier->enabled = true;
  env.run.hier->shards = shards;
  env.run.hier->sync_every = sync_every;
  return env;
}

TEST(Baselines, ShardedAtSyncEveryOneMatchesFlat) {
  // The root folds every edge's updates by exact integer addition, so a
  // sharded run that syncs every round is the flat run, whatever the shard
  // and thread counts.
  ExperimentConfig cfg = tiny_config();
  cfg.rounds = 3;
  cfg.capacity_jitter = 0.25;  // the stochastic paths draw from the round RNG
  cfg.availability = 0.8;
  ExperimentEnv env = make_env(cfg);
  for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kHeteroFl, Algorithm::kScaleFl}) {
    env.run.threads = 1;
    const RunResult flat = run_algorithm(a, env);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(std::string(algorithm_name(a)) + ", " + std::to_string(shards) +
                     " shards, " + std::to_string(threads) + " threads");
        env.run.threads = threads;
        expect_same_result(run_algorithm(a, sharded(env, shards, 1)), flat);
      }
    }
  }
}

TEST(Baselines, AsyncOrHierarchicalRunThrowsNamingTheAlgorithm) {
  // Only AdaptiveFL implements the async policy seam, so a baseline asked to
  // run asynchronously refuses before training, naming itself. Decoupled's
  // three globals cannot share one root, and FedRolex*'s divergent edge
  // models would keep a stale channel frame, so both refuse sharded runs.
  ExperimentEnv async_env = make_env(tiny_config());
  async_env.run.async = async::AsyncConfig{};
  async_env.run.async->enabled = true;
  ExperimentEnv hier_env = sharded(make_env(tiny_config()), 2, 1);
  const auto expect_refusal = [](const std::string& name, const auto& run) {
    try {
      run();
      ADD_FAILURE() << name << " ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  };
  for (Algorithm a : {Algorithm::kAllLarge, Algorithm::kDecoupled, Algorithm::kHeteroFl,
                      Algorithm::kScaleFl}) {
    expect_refusal(algorithm_name(a), [&] { run_algorithm(a, async_env); });
  }
  expect_refusal("Decoupled", [&] { run_algorithm(Algorithm::kDecoupled, hier_env); });
  for (const ExperimentEnv* env : {&async_env, &hier_env}) {
    expect_refusal("FedRolex*", [&] {
      RollingFl(env->spec, env->pool_config, env->data, env->devices, env->run).run();
    });
  }
}

}  // namespace
}  // namespace afl
