#pragma once
// Model: a named pipeline of layers with optional early-exit heads.
//
// - Plain models (VGG / ResNet / MobileNet variants) use the layer pipeline
//   only; forward() returns the final logits.
// - Multi-exit models (the ScaleFL baseline) attach exit heads after chosen
//   layers; forward_all_exits() returns every exit's logits with the final
//   classifier last, and backward_multi() propagates a gradient per exit.
//
// Parameters are exposed as ParamRefs with names "<layer>.<param>"; names are
// stable across width-pruned instances of the same architecture, which is the
// contract the heterogeneous aggregation (§3.4) relies on.

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/param.hpp"
#include "nn/sequential.hpp"

namespace afl {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a named layer; returns its index in the pipeline.
  std::size_t append(std::string name, std::unique_ptr<Layer> layer);

  /// Attaches an exit head after the layer at `after_index`. Heads are
  /// evaluated in forward_all_exits() in attachment order.
  void attach_exit(std::string name, std::size_t after_index,
                   std::unique_ptr<Sequential> head);

  std::size_t num_layers() const { return layers_.size(); }
  std::size_t num_exits() const { return exits_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i).layer; }

  /// Final logits. Caches activations for backward when train == true.
  Tensor forward(const Tensor& x, bool train);

  /// All exit logits (attachment order) followed by the final logits.
  std::vector<Tensor> forward_all_exits(const Tensor& x, bool train);

  /// Backward for forward(); grad_final is dLoss/dLogits.
  void backward(const Tensor& grad_final);

  /// Backward for forward_all_exits(); one gradient per returned logits
  /// tensor (exits first, final last). Pass an empty Tensor to skip an exit.
  void backward_multi(const std::vector<Tensor>& grads);

  /// Mutable parameter references (order: pipeline layers, then exit heads).
  std::vector<ParamRef> params();

  /// Deep copy of all parameters as a name -> tensor map.
  ParamSet export_params();

  /// Loads parameters by name. Every model parameter must be present with an
  /// identical shape; extra entries in `ps` are ignored (a full-model ParamSet
  /// can thus not be loaded into a pruned model — prune it first).
  void import_params(const ParamSet& ps);

  void zero_grads();

  /// Total scalar parameter count.
  std::size_t param_count();

 private:
  struct NamedLayer {
    std::string name;
    std::unique_ptr<Layer> layer;
  };
  struct ExitHead {
    std::string name;
    std::size_t after_index;
    std::unique_ptr<Sequential> head;
  };

  std::vector<NamedLayer> layers_;
  std::vector<ExitHead> exits_;
};

}  // namespace afl
