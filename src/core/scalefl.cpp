#include "core/scalefl.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "async/engine.hpp"
#include "core/cohort_policy.hpp"
#include "prune/width_prune.hpp"

namespace afl {
namespace {

/// Stream tag of the exit heads' init (Rng::derive's second word).
constexpr std::uint64_t kExitHeadStream = 0x5ca1ef1e;

std::size_t params_of(const ArchSpec& spec, const WidthPlan& plan,
                      const BuildOptions& options) {
  Model m = build_model(spec, plan, /*init_rng=*/nullptr, options);
  return m.param_count();
}

std::string width_label(double w) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2fx", w);
  return buf;
}

/// The level sizes, largest first: CohortPolicy's capacity ladder.
std::vector<std::size_t> level_sizes(const std::vector<ScaleFlLevel>& levels) {
  std::vector<std::size_t> sizes;
  for (const ScaleFlLevel& level : levels) sizes.push_back(level.params);
  return sizes;
}

/// ScaleFL as a RoundPolicy: random cohort, level matched to the device's
/// instantaneous capacity, multi-exit local training with self-distillation;
/// the run core aggregates its global heterogeneously.
class ScaleFlPolicy final : public CohortPolicy {
 public:
  ScaleFlPolicy(const ArchSpec& spec, const FederatedDataset& data,
                const FlRunConfig& config, const BuildOptions& global_options,
                const std::vector<ScaleFlLevel>& levels, double distill_weight)
      : CohortPolicy(data, config, level_sizes(levels)),
        spec_(spec),
        global_options_(global_options),
        levels_(levels),
        local_(config.local) {
    local_.distill_weight = distill_weight;
  }

  std::string algorithm_name() const override { return "ScaleFL"; }

  void init_global(Rng& rng) override {
    // The body draws from the root RNG exactly as the other baselines' full
    // init does, so under one seed their cohorts, capacity draws and
    // availability draws match; the exit heads come from a stream derived
    // from the seed (Model::params() lists them after the body).
    global_ = build_full_model(spec_, &rng).export_params();
    Rng heads_rng = Rng::derive(config_.seed, kExitHeadStream, 0, 0);
    global_.merge(build_model(spec_, WidthPlan(spec_.num_units(), 1.0), &heads_rng,
                              global_options_)
                      .export_params());
  }

  std::vector<ParamSet*> globals() override { return {&global_}; }

  ParamSet dispatch_params(const ClientSlot& s) const override {
    return prune_to_shapes(*s.source, levels_[s.sent_index].shapes);
  }

  TrainOutcome execute(const ClientSlot& s, Rng& rng) const override {
    const ScaleFlLevel& level = levels_[s.back_index];
    return train_client(build_model(spec_, level.plan, nullptr, level.options),
                        local_view(s), data_, s.client, local_, rng);
  }

  void snapshot_state(SnapshotWriter& w) const override { w.params(global_); }
  void restore_state(SnapshotReader& r) override { global_ = r.params(); }

  void evaluate(std::size_t, RunResult& result, ThreadPool& workers) override {
    double sum = 0.0;
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      const ScaleFlLevel& level = levels_[l];
      // Evaluate the level submodel through its own (deepest) classifier;
      // the model ignores the attached heads' tensors.
      BuildOptions eval_options = level.options;
      eval_options.exits.clear();  // attached heads don't affect forward()
      const double acc =
          eval_params(spec_, level.plan, eval_options, prune_to_shapes(global_, level.shapes),
                      data_.test, config_.eval_batch, workers);
      result.level_acc[level.label] = acc;
      sum += acc;
      if (l == 0) result.final_full_acc = acc;
    }
    result.final_avg_acc = sum / static_cast<double>(levels_.size());
  }

 private:
  const ArchSpec& spec_;
  const BuildOptions& global_options_;
  const std::vector<ScaleFlLevel>& levels_;  // descending size; [0] = full
  LocalTrainConfig local_;

  ParamSet global_;
};

}  // namespace

ScaleFl::ScaleFl(const ArchSpec& spec, const std::vector<std::size_t>& capacity_budgets,
                 const FederatedDataset& data, const std::vector<DeviceSim>& devices,
                 FlRunConfig run_config, double distill_weight)
    : spec_(spec),
      data_(data),
      devices_(devices),
      config_(run_config),
      distill_weight_(distill_weight) {
  if (devices_.size() != data_.num_clients()) {
    throw std::invalid_argument("ScaleFl: one device profile per client required");
  }
  if (capacity_budgets.size() != 3) {
    throw std::invalid_argument("ScaleFl: exactly three capacity budgets required");
  }
  const std::size_t n = spec_.num_units();
  // Depth cut points: ~55% and ~80% of the units for the small / medium
  // levels (ScaleFL splits depth roughly evenly across exits). Both must be
  // deep enough to leave a spatial feature map (>= 2 units here).
  const std::size_t d_small =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(0.55 * n)));
  const std::size_t d_medium = std::max<std::size_t>(
      d_small + 1, static_cast<std::size_t>(std::lround(0.8 * n)));
  if (d_medium >= n) {
    throw std::invalid_argument("ScaleFl: architecture too shallow for 2-D scaling");
  }

  global_options_.exits = {d_small, d_medium};

  struct LevelDef {
    std::size_t depth;
    std::vector<std::size_t> exits;
  };
  const LevelDef defs[3] = {
      {n, {d_small, d_medium}},  // L: full depth, both exits
      {d_medium, {d_small}},     // M
      {d_small, {}},             // S
  };
  for (int l = 0; l < 3; ++l) {
    ScaleFlLevel level;
    level.depth = defs[l].depth;
    level.options.depth_units = defs[l].depth == n ? 0 : defs[l].depth;
    level.options.exits = defs[l].exits;
    // Fit the largest uniform width whose submodel fits the budget.
    double chosen = 0.0;
    for (double w = 1.0; w >= 0.099; w -= 0.05) {
      WidthPlan plan = uniform_plan(spec_, w);
      if (params_of(spec_, plan, level.options) <= capacity_budgets[l]) {
        chosen = w;
        break;
      }
    }
    if (chosen == 0.0) {
      throw std::invalid_argument("ScaleFl: no width fits level budget");
    }
    level.width = chosen;
    level.plan = uniform_plan(spec_, chosen);
    level.params = params_of(spec_, level.plan, level.options);
    level.shapes = model_shapes(spec_, level.plan, level.options);
    // Width + depth make the label unique even when two levels share a width.
    level.label = width_label(chosen) + "/d" + std::to_string(level.depth);
    levels_.push_back(std::move(level));
  }
}

RunResult ScaleFl::run() {
  ScaleFlPolicy policy(spec_, data_, config_, global_options_, levels_, distill_weight_);
  return run_policy(config_, &devices_, policy);
}

}  // namespace afl
