#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace afl {

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {}

Tensor MaxPool2D::forward(const Tensor& x, bool train) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2D: rank-4 input required");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h < kernel_ || w < kernel_) {
    throw std::invalid_argument("MaxPool2D: " + std::to_string(kernel_) + "x" +
                                std::to_string(kernel_) + " kernel does not fit input " +
                                shape_to_string(x.shape()));
  }
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({n, c, oh, ow});
  if (train) {
    input_shape_ = x.shape();
    argmax_.assign(out.numel(), 0);
  }
  std::size_t oi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      const std::size_t plane_off = (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_off + iy * w + ix;
              }
            }
          }
          out[oi] = best;
          if (train) argmax_[oi] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  Tensor grad_in(input_shape_);
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[argmax_[i]] += grad_out[i];
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  if (x.rank() != 4) throw std::invalid_argument("GlobalAvgPool: rank-4 input required");
  const std::size_t n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  Tensor out({n, c});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * spatial;
      float acc = 0.0f;
      for (std::size_t p = 0; p < spatial; ++p) acc += plane[p];
      out[i * c + ch] = acc / static_cast<float>(spatial);
    }
  }
  if (train) input_shape_ = x.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  Tensor grad_in(input_shape_);
  const std::size_t n = input_shape_[0], c = input_shape_[1],
                    spatial = input_shape_[2] * input_shape_[3];
  const float inv = 1.0f / static_cast<float>(spatial);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_out[i * c + ch] * inv;
      float* plane = grad_in.data() + (i * c + ch) * spatial;
      for (std::size_t p = 0; p < spatial; ++p) plane[p] = g;
    }
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) input_shape_ = x.shape();
  Tensor out = x;
  out.reshape({x.dim(0), x.numel() / x.dim(0)});
  return out;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.reshape(input_shape_);
  return grad_in;
}

}  // namespace afl
