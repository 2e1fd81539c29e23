#include "core/baselines.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "arch/stats.hpp"
#include "async/engine.hpp"
#include "core/cohort_policy.hpp"
#include "fl/aggregate.hpp"
#include "fl/evaluate.hpp"
#include "prune/width_prune.hpp"

namespace afl {
namespace {

// ---------------------------------------------------------------------------
// AllLarge (FedAvg)
// ---------------------------------------------------------------------------

class AllLargePolicy final : public CohortPolicy {
 public:
  // Idealized baseline: one level, the full model, which every client trains
  // (without a fleet every capacity is SIZE_MAX).
  AllLargePolicy(const ArchSpec& spec, const FederatedDataset& data,
                 const FlRunConfig& config)
      : CohortPolicy(data, config, {arch_stats(spec).params}),
        spec_(spec),
        full_plan_(spec.num_units(), 1.0) {}

  std::string algorithm_name() const override { return "All-Large"; }

  void init_global(Rng& rng) override {
    Model model = build_full_model(spec_, &rng);
    global_ = model.export_params();
  }

  ParamSet dispatch_params(const ClientSlot&) const override { return global_; }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(build_full_model(spec_), local_view(s), data_, s.client,
                        config_.local, rng);
  }

  void commit(const ClientSlot&, TrainOutcome outcome) override {
    updates_.push_back({std::move(outcome.params), outcome.samples});
  }

  void aggregate(std::size_t) override {
    global_ = fedavg_aggregate(global_, updates_);
    updates_.clear();
  }

  void snapshot_state(SnapshotWriter& w) const override { w.params(global_); }
  void restore_state(SnapshotReader& r) override { global_ = r.params(); }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    const double acc =
        eval_params(spec_, full_plan_, {}, global_, data_.test, config_.eval_batch, workers);
    result.level_acc["L1"] = acc;
    result.final_full_acc = acc;
    result.final_avg_acc = acc;  // All-Large has no submodels; avg == full
  }

 private:
  const ArchSpec& spec_;
  WidthPlan full_plan_;
  ParamSet global_;
  std::vector<ClientUpdate> updates_;
};

// ---------------------------------------------------------------------------
// Decoupled
// ---------------------------------------------------------------------------

class DecoupledPolicy final : public CohortPolicy {
 public:
  DecoupledPolicy(const ArchSpec& spec, const ModelPool& pool,
                  const FederatedDataset& data, const FlRunConfig& config)
      : CohortPolicy(data, config,
                     {pool.entry(pool.level_head_index(Level::kLarge)).params,
                      pool.entry(pool.level_head_index(Level::kMedium)).params,
                      pool.entry(pool.level_head_index(Level::kSmall)).params}),
        spec_(spec),
        pool_(pool),
        heads_{pool.level_head_index(Level::kLarge),
               pool.level_head_index(Level::kMedium),
               pool.level_head_index(Level::kSmall)} {}

  std::string algorithm_name() const override { return "Decoupled"; }

  void init_global(Rng& rng) override {
    // Three independent model families seeded from one full init so every
    // family starts from the same shared shallow weights.
    Model seed_model = build_full_model(spec_, &rng);
    const ParamSet seed = seed_model.export_params();
    for (int l = 0; l < 3; ++l) globals_[l] = pool_.split(seed, heads_[l]);
  }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    return globals_[s.sent_index];
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(pool_.build(heads_[s.back_index]), local_view(s), data_,
                        s.client, config_.local, rng);
  }

  void commit(const ClientSlot& s, TrainOutcome outcome) override {
    updates_[s.back_index].push_back({std::move(outcome.params), outcome.samples});
  }

  void aggregate(std::size_t) override {
    for (int l = 0; l < 3; ++l) {
      globals_[l] = fedavg_aggregate(globals_[l], updates_[l]);
      updates_[l].clear();
    }
  }

  void snapshot_state(SnapshotWriter& w) const override {
    for (const ParamSet& g : globals_) w.params(g);
  }
  void restore_state(SnapshotReader& r) override {
    for (ParamSet& g : globals_) g = r.params();
  }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    double sum = 0.0;
    for (int l = 0; l < 3; ++l) {
      const PoolEntry& e = pool_.entry(heads_[l]);
      const double acc = eval_params(spec_, e.plan, {}, globals_[l], data_.test,
                                     config_.eval_batch, workers);
      result.level_acc[e.label()] = acc;
      sum += acc;
      if (l == 0) result.final_full_acc = acc;
    }
    result.final_avg_acc = sum / 3.0;
  }

 private:
  const ArchSpec& spec_;
  const ModelPool& pool_;
  std::size_t heads_[3];
  ParamSet globals_[3];
  std::vector<ClientUpdate> updates_[3];
};

// ---------------------------------------------------------------------------
// HeteroFL
// ---------------------------------------------------------------------------

class HeteroFlPolicy final : public CohortPolicy {
 public:
  HeteroFlPolicy(const ArchSpec& spec, const FederatedDataset& data,
                 const FlRunConfig& config, const std::vector<WidthPlan>& plans,
                 const std::vector<std::string>& labels,
                 const std::vector<std::size_t>& params)
      : CohortPolicy(data, config, params),
        spec_(spec),
        level_plans_(plans),
        level_labels_(labels) {}

  std::string algorithm_name() const override { return "HeteroFL"; }

  void init_global(Rng& rng) override {
    Model full_model = build_full_model(spec_, &rng);
    global_ = full_model.export_params();
  }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    return prune_params(global_, spec_, level_plans_[s.sent_index]);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(build_model(spec_, level_plans_[s.back_index]), local_view(s),
                        data_, s.client, config_.local, rng);
  }

  void commit(const ClientSlot&, TrainOutcome outcome) override {
    updates_.push_back({std::move(outcome.params), outcome.samples});
  }

  void aggregate(std::size_t) override {
    global_ = hetero_aggregate(global_, updates_);
    updates_.clear();
  }

  void snapshot_state(SnapshotWriter& w) const override { w.params(global_); }
  void restore_state(SnapshotReader& r) override { global_ = r.params(); }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    double sum = 0.0;
    for (std::size_t l = 0; l < level_plans_.size(); ++l) {
      const double acc =
          eval_params(spec_, level_plans_[l], {},
                      prune_params(global_, spec_, level_plans_[l]), data_.test,
                      config_.eval_batch, workers);
      result.level_acc[level_labels_[l]] = acc;
      sum += acc;
      if (l == 0) result.final_full_acc = acc;
    }
    result.final_avg_acc = sum / 3.0;
  }

 private:
  const ArchSpec& spec_;
  const std::vector<WidthPlan>& level_plans_;
  const std::vector<std::string>& level_labels_;
  ParamSet global_;
  std::vector<ClientUpdate> updates_;
};

}  // namespace

AllLarge::AllLarge(const ArchSpec& spec, const FederatedDataset& data,
                   FlRunConfig run_config)
    : spec_(spec), data_(data), config_(run_config) {}

RunResult AllLarge::run() {
  AllLargePolicy policy(spec_, data_, config_);
  return run_policy(config_, /*devices=*/nullptr, policy);
}

Decoupled::Decoupled(const ArchSpec& spec, const PoolConfig& pool_config,
                     const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                     FlRunConfig run_config)
    : spec_(spec),
      pool_(spec, pool_config),
      data_(data),
      devices_(devices),
      config_(run_config) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument("Decoupled: one device profile per client required");
  }
}

RunResult Decoupled::run() {
  DecoupledPolicy policy(spec_, pool_, data_, config_);
  return run_policy(config_, &devices_, policy);
}

HeteroFl::HeteroFl(const ArchSpec& spec, const PoolConfig& pool_config,
                   const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                   FlRunConfig run_config)
    : spec_(spec), data_(data), devices_(devices), config_(run_config) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument("HeteroFl: one device profile per client required");
  }
  const double ratios[3] = {1.0, pool_config.r_medium, pool_config.r_small};
  for (double r : ratios) {
    WidthPlan plan = uniform_plan(spec_, r);
    level_params_.push_back(arch_stats(spec_, plan).params);
    level_plans_.push_back(std::move(plan));
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2fx", r);
    level_labels_.emplace_back(buf);
  }
}

RunResult HeteroFl::run() {
  HeteroFlPolicy policy(spec_, data_, config_, level_plans_, level_labels_,
                        level_params_);
  return run_policy(config_, &devices_, policy);
}

}  // namespace afl
