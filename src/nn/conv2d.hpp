#pragma once
// 2-D convolution lowered to GEMM via im2col. Weight layout [OC, IC, K, K]
// so width-wise pruning is a prefix slice of the first two dimensions.

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace afl {

class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_c, std::size_t out_c, std::size_t kernel, std::size_t stride,
         std::size_t pad, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string kind() const override { return "conv2d"; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Tensor w_, b_, gw_, gb_;
  // Batched im2col buffer kept between forward(train) and backward; the
  // scratch buffer serves inference so eval doesn't thrash the cached one.
  std::vector<float> cached_cols_, scratch_cols_;
  ConvGeom cached_geom_{};
};

}  // namespace afl
