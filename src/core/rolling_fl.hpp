#pragma once
// FedRolex-style baseline: HeteroFL's static uniform width levels, but the
// channel window *rolls* by one index per round instead of always being the
// prefix. Design-choice ablation for the paper's fixed-prefix scheme
// (bench/bench_ablation_rolling.cpp). Conv/dense architectures only.

#include "core/run.hpp"
#include "prune/model_pool.hpp"
#include "sim/device.hpp"

namespace afl {

class RollingFl {
 public:
  RollingFl(const ArchSpec& spec, const PoolConfig& pool_config,
            const FederatedDataset& data, const std::vector<DeviceSim>& devices,
            FlRunConfig run_config);

  RunResult run();

 private:
  ArchSpec spec_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
  std::vector<double> level_ratios_;        // 1.0 / r_medium / r_small
  std::vector<std::size_t> level_params_;
};

}  // namespace afl
