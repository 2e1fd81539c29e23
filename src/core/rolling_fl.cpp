#include "core/rolling_fl.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "arch/stats.hpp"
#include "async/engine.hpp"
#include "core/cohort_policy.hpp"
#include "prune/rolling.hpp"

namespace afl {
namespace {

/// FedRolex* as a RoundPolicy: HeteroFL's static levels, but the channel
/// window rolls by one index per round. The rolling plan is a pure function
/// of (spec, ratio, round), so workers and the commit path recompute it
/// instead of sharing state.
class RollingFlPolicy final : public CohortPolicy {
 public:
  RollingFlPolicy(const ArchSpec& spec, const FederatedDataset& data,
                  const FlRunConfig& config, const std::vector<double>& ratios,
                  const std::vector<std::size_t>& params)
      : CohortPolicy(data, config, params), spec_(spec), level_ratios_(ratios) {}

  std::string algorithm_name() const override { return "FedRolex*"; }

  void init_global(Rng& rng) override {
    Model full_model = build_full_model(spec_, &rng);
    global_ = full_model.export_params();
  }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    // The rolling window is a pure function of (ratio, round).
    const RollingPlan plan =
        make_rolling_plan(spec_, level_ratios_[s.sent_index], s.round);
    return rolling_extract(global_, spec_, plan);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    const WidthPlan plan = uniform_plan(spec_, level_ratios_[s.back_index]);
    return train_client(build_model(spec_, plan), local_view(s), data_, s.client,
                        config_.local, rng);
  }

  void commit(const ClientSlot& s, TrainOutcome outcome) override {
    updates_.push_back({make_rolling_plan(spec_, level_ratios_[s.back_index], s.round),
                        std::move(outcome.params), outcome.samples});
  }

  void aggregate(std::size_t) override {
    global_ = rolling_aggregate(global_, spec_, updates_);
    updates_.clear();
  }

  // The rolling window is derived from the round index, so the global model
  // is the policy's entire persistent state.
  void snapshot_state(SnapshotWriter& w) const override { w.params(global_); }
  void restore_state(SnapshotReader& r) override { global_ = r.params(); }

  void evaluate(std::size_t round, RunResult& result, ThreadPool& workers) override {
    double sum = 0.0;
    for (std::size_t l = 0; l < level_ratios_.size(); ++l) {
      // Evaluate the level submodels through the *current* round's window.
      const RollingPlan plan = make_rolling_plan(spec_, level_ratios_[l], round);
      const double acc =
          eval_params(spec_, uniform_plan(spec_, level_ratios_[l]), {},
                      rolling_extract(global_, spec_, plan), data_.test,
                      config_.eval_batch, workers);
      char label[16];
      std::snprintf(label, sizeof(label), "%.2fx", level_ratios_[l]);
      result.level_acc[label] = acc;
      sum += acc;
      if (l == 0) result.final_full_acc = acc;
    }
    result.final_avg_acc = sum / 3.0;
  }

 private:
  const ArchSpec& spec_;
  const std::vector<double>& level_ratios_;  // 1.0 / r_medium / r_small

  ParamSet global_;
  std::vector<RollingUpdate> updates_;
};

}  // namespace

RollingFl::RollingFl(const ArchSpec& spec, const PoolConfig& pool_config,
                     const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                     FlRunConfig run_config)
    : spec_(spec), data_(data), devices_(devices), config_(run_config) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument("RollingFl: one device profile per client required");
  }
  for (double r : {1.0, pool_config.r_medium, pool_config.r_small}) {
    level_ratios_.push_back(r);
    level_params_.push_back(arch_stats(spec_, uniform_plan(spec_, r)).params);
  }
}

RunResult RollingFl::run() {
  RollingFlPolicy policy(spec_, data_, config_, level_ratios_, level_params_);
  return run_policy(config_, &devices_, policy);
}

}  // namespace afl
