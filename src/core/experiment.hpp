#pragma once
// High-level experiment harness: builds a synthetic federated environment
// (task analogue, partition, device tiers) and runs any of the paper's
// algorithms on it. Every bench binary and example is a thin wrapper over
// this header.

#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptivefl.hpp"
#include "core/baselines.hpp"
#include "core/run.hpp"
#include "core/scalefl.hpp"
#include "data/federated.hpp"
#include "sim/device.hpp"

namespace afl {

enum class Algorithm {
  kAllLarge,
  kDecoupled,
  kHeteroFl,
  kScaleFl,
  kAdaptiveFl,         // +CS (the full method)
  kAdaptiveFlC,        // curiosity-only selection
  kAdaptiveFlS,        // resource-only selection
  kAdaptiveFlRandom,   // random selection
  kAdaptiveFlGreed,    // always dispatch L1
  kAdaptiveFlAsync,    // full method under the buffered async engine
};
const char* algorithm_name(Algorithm a);

enum class TaskKind { kCifar10Like, kCifar100Like, kFemnistLike, kWidarLike };
const char* task_name(TaskKind t);

enum class ModelKind { kMiniVgg, kMiniResnet, kMiniMobilenet };
const char* model_name(ModelKind m);

struct ExperimentConfig {
  TaskKind task = TaskKind::kCifar10Like;
  ModelKind model = ModelKind::kMiniVgg;
  Partition partition = Partition::kIid;
  double alpha = 0.6;                 // Dirichlet concentration
  std::size_t num_clients = 100;      // paper: 100 (CIFAR) / 180 (FEMNIST)
  std::size_t clients_per_round = 10; // paper: 10% per round
  std::size_t samples_per_client = 40;
  std::size_t test_samples = 600;
  std::size_t image_hw = 12;
  std::size_t rounds = 20;
  std::size_t local_epochs = 2;       // paper: 5 (scaled for the CPU substrate)
  std::size_t batch_size = 20;        // paper: 50
  /// Paper uses SGD lr = 0.01 at full scale; the miniature substrate uses a
  /// proportionally larger step (applied identically to every algorithm).
  double lr = 0.05;
  double momentum = 0.5;              // paper: 0.5
  TierProportions proportions;        // paper default 4:3:3
  double capacity_jitter = 0.0;       // uncertain-environment extension
  double availability = 1.0;          // device dropout extension (1 = always up)
  std::size_t pool_p = 3;             // fine-grained (3) vs coarse (1)
  std::uint64_t seed = 7;
  std::size_t eval_every = 0;         // 0 = auto (≈10 curve points)
};

/// A fully materialized environment; run multiple algorithms against the
/// *same* data/devices for a fair comparison.
struct ExperimentEnv {
  ExperimentConfig config;
  ArchSpec spec;
  PoolConfig pool_config;
  FederatedDataset data;
  std::vector<DeviceSim> devices;
  FlRunConfig run;
  std::vector<std::size_t> scalefl_budgets;  // strong / medium / weak
};

ExperimentEnv make_env(const ExperimentConfig& config);

RunResult run_algorithm(Algorithm algorithm, const ExperimentEnv& env);

/// Prints an end-of-run telemetry summary (phase timings, per-round comm,
/// selector entropy) to stderr, keeping
/// stdout free for experiment tables. Called by run_algorithm after every
/// run; silenced when the log threshold is above kInfo.
void print_run_summary(const RunResult& result);

}  // namespace afl
