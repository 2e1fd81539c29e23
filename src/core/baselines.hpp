#pragma once
// Comparison baselines from §4.2:
//  - AllLarge: classic FedAvg training the full L1 model on every selected
//    client (idealized — ignores resource limits).
//  - Decoupled: an independent FedAvg per level (L1/M1/S1); each client
//    trains the largest level model its capacity affords, and levels never
//    exchange parameters.
//  - HeteroFL: coarse width-heterogeneous FL — uniform width ratios applied
//    to *every* layer (including shallow ones), statically matched to client
//    resources, aggregated heterogeneously.

#include "core/run.hpp"
#include "prune/model_pool.hpp"
#include "sim/device.hpp"

namespace afl {

class AllLarge {
 public:
  AllLarge(const ArchSpec& spec, const FederatedDataset& data, FlRunConfig run_config);
  RunResult run();

 private:
  ArchSpec spec_;
  const FederatedDataset& data_;
  FlRunConfig config_;
};

class Decoupled {
 public:
  /// Uses the pool's level heads (L1/M1/S1 plans) as the three independent
  /// model families, and the devices' capacities to pick a family per client.
  Decoupled(const ArchSpec& spec, const PoolConfig& pool_config,
            const FederatedDataset& data, const std::vector<DeviceSim>& devices,
            FlRunConfig run_config);
  RunResult run();

 private:
  ArchSpec spec_;
  ModelPool pool_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
};

class HeteroFl {
 public:
  /// Width ratios follow the pool's level ratios (1.0 / r_medium / r_small)
  /// but applied uniformly from the first layer (the coarse scheme).
  HeteroFl(const ArchSpec& spec, const PoolConfig& pool_config,
           const FederatedDataset& data, const std::vector<DeviceSim>& devices,
           FlRunConfig run_config);
  RunResult run();

 private:
  ArchSpec spec_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
  std::vector<WidthPlan> level_plans_;      // descending size: full, medium, small
  std::vector<std::string> level_labels_;   // "1.00x", "0.66x", "0.40x"
  std::vector<std::size_t> level_params_;
};

}  // namespace afl
