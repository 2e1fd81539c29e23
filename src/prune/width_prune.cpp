#include "prune/width_prune.hpp"

#include <stdexcept>

#include "obs/prof/prof.hpp"

namespace afl {

ShapeMap shapes_of(Model& model) {
  ShapeMap shapes;
  for (const ParamRef& p : model.params()) shapes.emplace(p.name, p.value->shape());
  return shapes;
}

ShapeMap model_shapes(const ArchSpec& spec, const WidthPlan& plan,
                      const BuildOptions& options) {
  Model m = build_model(spec, plan, /*init_rng=*/nullptr, options);
  return shapes_of(m);
}

ParamSet prune_to_shapes(const ParamSet& full, const ShapeMap& shapes) {
  static obs::Histogram& hist =
      obs::metrics().histogram("afl.prune.prune_to_shapes.seconds");
  AFL_PROF_SPAN("prune.prune_to_shapes", &hist);
  ParamSet out;
  for (const auto& [name, shape] : shapes) {
    auto it = full.find(name);
    if (it == full.end()) {
      throw std::invalid_argument("prune_to_shapes: missing parameter " + name);
    }
    out.emplace(name, it->second.prefix_slice(shape));
  }
  return out;
}

ParamSet prune_params(const ParamSet& full, const ArchSpec& spec, const WidthPlan& plan,
                      const BuildOptions& options) {
  return prune_to_shapes(full, model_shapes(spec, plan, options));
}

}  // namespace afl
