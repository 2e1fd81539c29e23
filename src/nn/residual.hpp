#pragma once
// Residual blocks.
//
// BasicBlock (ResNet-18 style): out = relu(conv2(relu(conv1(x))) + sc(x)).
// The shortcut sc is either a 1x1 projection conv (stride != 1 or a channel
// change present in the *unpruned* architecture) or a "sliced identity":
// when width pruning shrinks out_c below in_c at the full/pruned boundary,
// the shortcut forwards the first out_c input channels. A sliced identity has
// zero parameters, which preserves the paper's claim that pruned models train
// directly "without additional parameters or adapters" (§3.2).
//
// InvertedResidualBlock (MobileNetV2 style): expand 1x1 -> ReLU -> depthwise
// 3x3 -> ReLU -> project 1x1, with a (sliced-)identity residual when
// stride == 1.

#include <memory>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv.hpp"
#include "nn/layer.hpp"

namespace afl {

/// Shortcut that forwards the first `out_c` channels of the input; zero
/// parameters. Used when pruning makes out_c < in_c on a former identity path.
Tensor sliced_identity_forward(const Tensor& x, std::size_t out_c);
/// Scatter of the shortcut gradient back into the (larger) input gradient.
void sliced_identity_backward(const Tensor& grad_out, Tensor& grad_in);

class BasicBlock final : public Layer {
 public:
  /// `projection` selects a 1x1 conv shortcut; otherwise a sliced identity is
  /// used (requires stride == 1 and out_c <= in_c).
  BasicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride, bool projection);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string kind() const override { return "basic_block"; }

 private:
  std::size_t in_c_, out_c_, stride_;
  Conv2D conv1_, conv2_;
  std::unique_ptr<Conv2D> proj_;  // null => sliced identity shortcut
  ReLU relu1_, relu2_;
  Shape input_shape_;
};

class InvertedResidualBlock final : public Layer {
 public:
  /// `residual` must reflect the *unpruned* architecture (stride == 1 and
  /// base in_c == base out_c); pruning may shrink out_c below in_c, in which
  /// case the residual becomes a sliced identity. Requires out_c <= in_c and
  /// stride == 1 when residual is set.
  InvertedResidualBlock(std::size_t in_c, std::size_t hidden_c, std::size_t out_c,
                        std::size_t stride, bool residual);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string kind() const override { return "inv_residual"; }

 private:
  std::size_t in_c_, hidden_c_, out_c_, stride_;
  bool use_residual_;
  Conv2D expand_, project_;
  DepthwiseConv2D dw_;
  ReLU relu1_, relu2_;
  Shape input_shape_;
};

}  // namespace afl
