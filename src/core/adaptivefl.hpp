#pragma once
// AdaptiveFL (Algorithm 1): the paper's primary contribution.
//
// Per round: split the global model into the pool R (fine-grained width-wise
// pruning, §3.2); for each of K slots, randomly pick a pool model, select a
// client with the RL strategy (§3.3), let the device adaptively prune the
// received model to its available capacity, train locally, and update the
// curiosity/resource tables from what came back; finally aggregate all
// returned submodels into the global model (Algorithm 2, §3.4).
//
// Options cover every ablation variant of §4.4: selection strategies
// (+CS/+C/+S/+Random), greedy dispatch (+Greed), and coarse pruning (p = 1).

#include "core/run.hpp"
#include "prune/model_pool.hpp"
#include "rl/selector.hpp"
#include "sim/device.hpp"

namespace afl {

struct AdaptiveFlOptions {
  SelectionStrategy strategy = SelectionStrategy::kResourceCuriosity;
  /// +Greed: always dispatch the largest model (L1) to each selected client.
  bool greedy_dispatch = false;
};

class AdaptiveFl {
 public:
  /// `data` and `devices` are held by reference and must outlive the object.
  AdaptiveFl(const ArchSpec& spec, const PoolConfig& pool_config,
             const FederatedDataset& data, const std::vector<DeviceSim>& devices,
             FlRunConfig run_config, AdaptiveFlOptions options = {});

  /// Runs on the engine config.async and config.hier select (run_policy()).
  RunResult run();

  /// Warm start: seeds the global model from `params` (e.g. a checkpoint)
  /// instead of a fresh Kaiming init. Must match the full model's structure.
  void set_initial_params(ParamSet params);

  const ModelPool& pool() const { return pool_; }
  /// Tables after run() (for inspection in tests / examples).
  const ClientSelector& selector() const { return selector_; }
  /// Global parameters after the last run() (for checkpointing).
  const ParamSet& global_params() const { return global_; }

 private:
  ArchSpec spec_;
  ModelPool pool_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
  AdaptiveFlOptions options_;
  ClientSelector selector_;
  ParamSet global_;
  bool has_initial_ = false;
};

}  // namespace afl
