#include "core/baselines.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "arch/stats.hpp"
#include "async/engine.hpp"
#include "core/cohort_policy.hpp"
#include "fl/evaluate.hpp"
#include "prune/rolling.hpp"
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

  std::vector<ParamSet*> globals() override { return {&global_}; }

  ParamSet dispatch_params(const ClientSlot& s) const override { return *s.source; }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(build_full_model(spec_), local_view(s), data_, s.client,
                        config_.local, rng);
  }

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

  // Each level family aggregates on its own: a client's update folds into
  // the family it trained.
  std::vector<ParamSet*> globals() override {
    return {&globals_[0], &globals_[1], &globals_[2]};
  }
  std::size_t global_of(const ClientSlot& s) const override { return s.back_index; }

  ParamSet dispatch_params(const ClientSlot& s) const override { return *s.source; }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(pool_.build(heads_[s.back_index]), local_view(s), data_,
                        s.client, config_.local, rng);
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
};

// ---------------------------------------------------------------------------
// HeteroFL, and FedRolex* as HeteroFL on a rolled global
// ---------------------------------------------------------------------------

std::vector<std::size_t> level_sizes(const std::vector<HeteroFlLevel>& levels) {
  std::vector<std::size_t> sizes;
  for (const HeteroFlLevel& level : levels) sizes.push_back(level.params);
  return sizes;
}

class HeteroFlPolicy final : public CohortPolicy {
 public:
  HeteroFlPolicy(const ArchSpec& spec, const FederatedDataset& data,
                 const FlRunConfig& config, const std::vector<HeteroFlLevel>& levels,
                 bool rolling)
      : CohortPolicy(data, config, level_sizes(levels)),
        spec_(spec),
        levels_(levels),
        rolling_(rolling) {}

  std::string algorithm_name() const override {
    return rolling_ ? "FedRolex*" : "HeteroFL";
  }

  void init_global(Rng& rng) override {
    Model full_model = build_full_model(spec_, &rng);
    global_ = full_model.export_params();
  }

  std::vector<ParamSet*> globals() override { return {&global_}; }

  void begin_round(std::size_t round, Rng& rng) override {
    CohortPolicy::begin_round(round, rng);
    // FedRolex*: round r's window is the prefix of the global rolled left by
    // r, so the global moves into round r's frame before anything reads it.
    if (rolling_) roll_channels(global_, spec_, 1);
  }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    return prune_to_shapes(*s.source, levels_[s.sent_index].shapes);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    return train_client(build_model(spec_, levels_[s.back_index].plan), local_view(s),
                        data_, s.client, config_.local, rng);
  }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    double sum = 0.0;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const HeteroFlLevel& level = levels_[l];
      const double acc =
          eval_params(spec_, level.plan, {}, prune_to_shapes(global_, level.shapes),
                      data_.test, config_.eval_batch, workers);
      result.level_acc[level.label] = acc;
      sum += acc;
      if (l == 0) result.final_full_acc = acc;
    }
    result.final_avg_acc = sum / 3.0;
  }

 private:
  const ArchSpec& spec_;
  const std::vector<HeteroFlLevel>& levels_;
  bool rolling_;
  ParamSet global_;  // FedRolex*: in the current round's frame
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
    : HeteroFl(spec, pool_config, data, devices, std::move(run_config),
               /*rolling=*/false) {}

HeteroFl::HeteroFl(const ArchSpec& spec, const PoolConfig& pool_config,
                   const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                   FlRunConfig run_config, bool rolling)
    : spec_(spec), data_(data), devices_(devices), config_(run_config), rolling_(rolling) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument(std::string(rolling ? "RollingFl" : "HeteroFl") +
                                ": one device profile per client required");
  }
  for (double r : {1.0, pool_config.r_medium, pool_config.r_small}) {
    HeteroFlLevel level;
    char label[16];
    std::snprintf(label, sizeof(label), "%.2fx", r);
    level.label = label;
    level.plan = uniform_plan(spec_, r);
    level.params = arch_stats(spec_, level.plan).params;
    level.shapes = model_shapes(spec_, level.plan);
    levels_.push_back(std::move(level));
  }
}

RunResult HeteroFl::run() {
  if (rolling_ && (config_.hier ? *config_.hier : hier::HierConfig::from_env()).enabled) {
    throw std::invalid_argument(
        "FedRolex* cannot run sharded (hierarchical) rounds: a divergent edge's "
        "model would keep a stale channel frame");
  }
  HeteroFlPolicy policy(spec_, data_, config_, levels_, rolling_);
  return run_policy(config_, &devices_, policy);
}

}  // namespace afl
