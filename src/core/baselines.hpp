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
//  - RollingFl (FedRolex*): HeteroFL whose channel window rolls by one index
//    per round instead of always being the prefix (prune/rolling.hpp).

#include <string>
#include <vector>

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

/// One of HeteroFL's uniform width levels.
struct HeteroFlLevel {
  std::string label;  // "1.00x", "0.66x", "0.40x"
  WidthPlan plan;
  std::size_t params = 0;
  ShapeMap shapes;  // the level's prefix of the global, computed once
};

class HeteroFl {
 public:
  /// Width ratios follow the pool's level ratios (1.0 / r_medium / r_small)
  /// but applied uniformly from the first layer (the coarse scheme).
  HeteroFl(const ArchSpec& spec, const PoolConfig& pool_config,
           const FederatedDataset& data, const std::vector<DeviceSim>& devices,
           FlRunConfig run_config);
  RunResult run();

 protected:
  /// `rolling`: FedRolex* (RollingFl).
  HeteroFl(const ArchSpec& spec, const PoolConfig& pool_config,
           const FederatedDataset& data, const std::vector<DeviceSim>& devices,
           FlRunConfig run_config, bool rolling);

 private:
  ArchSpec spec_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
  bool rolling_;
  std::vector<HeteroFlLevel> levels_;  // descending size: full, medium, small
};

/// FedRolex-style baseline (Alam et al., NeurIPS'22): HeteroFL's static
/// uniform levels, but the round-r window of each unit keeps its channels
/// starting at index r, wrapping around. That window is the prefix of the
/// global rolled left by r, so RollingFl is HeteroFL on a global rolled one
/// step per round (prune/rolling.hpp); its global and its snapshot section
/// live in the current round's frame. Design-choice ablation for the
/// paper's fixed-prefix scheme (bench/bench_ablation_rolling.cpp).
/// Conv/dense architectures only. A sharded run throws
/// std::invalid_argument: a divergent edge's model would keep a stale frame.
class RollingFl : public HeteroFl {
 public:
  RollingFl(const ArchSpec& spec, const PoolConfig& pool_config,
            const FederatedDataset& data, const std::vector<DeviceSim>& devices,
            FlRunConfig run_config)
      : HeteroFl(spec, pool_config, data, devices, std::move(run_config),
                 /*rolling=*/true) {}
};

}  // namespace afl
