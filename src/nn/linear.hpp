#pragma once
// Fully-connected layer. Weight layout [OUT, IN] (PyTorch convention) so the
// width plan slices rows (output features) and columns (input features).

#include "nn/layer.hpp"

namespace afl {

class Linear final : public Layer {
 public:
  Linear(std::size_t in_f, std::size_t out_f, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(const std::string& prefix, std::vector<ParamRef>& out) override;
  std::string kind() const override { return "linear"; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_f_, out_f_;
  bool has_bias_;
  Tensor w_, b_, gw_, gb_;
  Tensor cached_input_;
};

}  // namespace afl
