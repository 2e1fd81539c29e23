#include "nn/activation.hpp"

namespace afl {

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out(x.shape());
  const std::size_t n = x.numel();
  // Two branch-free loops over raw pointers, so that both vectorize: the sign
  // of an activation is close to random, so a per-element branch mispredicts.
  const float* in = x.data();
  float* o = out.data();
  for (std::size_t i = 0; i < n; ++i) o[i] = in[i] > 0.0f ? in[i] : 0.0f;
  if (train) {
    mask_.resize(n);
    unsigned char* m = mask_.data();
    for (std::size_t i = 0; i < n; ++i) m[i] = in[i] > 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  const std::size_t n = grad_out.numel();
  for (std::size_t i = 0; i < n; ++i) {
    grad_in[i] = mask_[i] ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

}  // namespace afl
