#pragma once
// ScaleFL baseline (Ilhan et al., CVPR'23): two-dimensional (width x depth)
// submodel scaling with early-exit classifiers and self-distillation.
//
// The global model carries early-exit heads at two depth cut points. Level
// submodels are built by truncating depth at a cut point and shrinking width
// uniformly until the submodel fits the level's capacity budget; during local
// training every available exit optimizes cross-entropy and earlier exits
// distill from the deepest available exit (temperature-scaled KL).

#include "core/run.hpp"
#include "sim/device.hpp"

namespace afl {

struct ScaleFlLevel {
  std::string label;       // "1.00x", "0.50x", ...
  double width = 1.0;      // uniform width ratio
  std::size_t depth = 0;   // units kept (== num_units for the full model)
  BuildOptions options;    // depth + exits for this level's submodel
  WidthPlan plan;
  std::size_t params = 0;
};

class ScaleFl {
 public:
  /// `capacity_budgets` = parameter budgets for the three levels, descending
  /// (strong / medium / weak). Width ratios are fitted per level so the
  /// submodel (with its exit heads) fits the budget.
  ScaleFl(const ArchSpec& spec, const std::vector<std::size_t>& capacity_budgets,
          const FederatedDataset& data, const std::vector<DeviceSim>& devices,
          FlRunConfig run_config, double distill_weight = 1.0);

  RunResult run();

  const std::vector<ScaleFlLevel>& levels() const { return levels_; }

 private:
  ArchSpec spec_;
  const FederatedDataset& data_;
  const std::vector<DeviceSim>& devices_;
  FlRunConfig config_;
  double distill_weight_;
  std::vector<ScaleFlLevel> levels_;  // descending size; [0] is the full model
  BuildOptions global_options_;
};

}  // namespace afl
