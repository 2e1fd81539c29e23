#include "nn/conv2d.hpp"

#include <stdexcept>
#include <vector>

#include "tensor/gemm.hpp"

namespace afl {

// The whole batch is lowered into one column matrix cols[CKK, B*S] so each
// pass is a single large GEMM rather than B small ones: the hot path of local
// training, which each engine worker runs on its own layers. The column
// matrix is cached between forward and backward in train mode.

Conv2D::Conv2D(std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, bool bias)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      w_({out_c, in_c, kernel, kernel}),
      b_(has_bias_ ? Tensor({out_c}) : Tensor()),
      gw_({out_c, in_c, kernel, kernel}),
      gb_(has_bias_ ? Tensor({out_c}) : Tensor()) {}

Tensor Conv2D::forward(const Tensor& x, bool train) {
  if (x.rank() != 4 || x.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2D: bad input shape " + shape_to_string(x.shape()) +
                                " for in_c=" + std::to_string(in_c_));
  }
  if (x.dim(2) + 2 * pad_ < kernel_ || x.dim(3) + 2 * pad_ < kernel_) {
    throw std::invalid_argument("Conv2D: " + std::to_string(kernel_) + "x" +
                                std::to_string(kernel_) + " kernel with pad " +
                                std::to_string(pad_) + " does not fit input " +
                                shape_to_string(x.shape()));
  }
  const std::size_t n = x.dim(0);
  const ConvGeom g{in_c_, x.dim(2), x.dim(3), kernel_, stride_, pad_};
  const std::size_t spatial = g.col_cols();
  const std::size_t ckk = g.col_rows();
  const std::size_t wide = n * spatial;
  Tensor out({n, out_c_, g.out_h(), g.out_w()});

  std::vector<float>& cols = train ? cached_cols_ : scratch_cols_;
  cols.resize(ckk * wide);
  const std::size_t in_plane = in_c_ * g.height * g.width;
  for (std::size_t i = 0; i < n; ++i) {
    im2col_strided(x.data() + i * in_plane, g, cols.data(), wide, i * spatial);
  }
  // out_all[OC, B*S] = W[OC, CKK] * cols[CKK, B*S]
  std::vector<float> out_all(out_c_ * wide);
  gemm(w_.data(), cols.data(), out_all.data(), out_c_, ckk, wide);
  // Scatter [OC, B*S] -> [B, OC, S] and add bias.
  for (std::size_t i = 0; i < n; ++i) {
    float* dst = out.data() + i * out_c_ * spatial;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* src = out_all.data() + oc * wide + i * spatial;
      const float bv = has_bias_ ? b_[oc] : 0.0f;
      float* drow = dst + oc * spatial;
      for (std::size_t p = 0; p < spatial; ++p) drow[p] = src[p] + bv;
    }
  }
  if (train) cached_geom_ = g;
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const ConvGeom& g = cached_geom_;
  const std::size_t spatial = g.col_cols();
  const std::size_t ckk = g.col_rows();
  const std::size_t n = grad_out.dim(0);
  const std::size_t wide = n * spatial;
  if (cached_cols_.size() != ckk * wide) {
    throw std::logic_error("Conv2D::backward without matching forward");
  }
  // Gather grad_out [B, OC, S] -> gout_all [OC, B*S].
  std::vector<float> gout_all(out_c_ * wide);
  for (std::size_t i = 0; i < n; ++i) {
    const float* src = grad_out.data() + i * out_c_ * spatial;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      float* dst = gout_all.data() + oc * wide + i * spatial;
      const float* srow = src + oc * spatial;
      for (std::size_t p = 0; p < spatial; ++p) dst[p] = srow[p];
    }
  }
  // gW[OC, CKK] += gout_all[OC, B*S] * cols[CKK, B*S]^T
  gemm_bt(gout_all.data(), cached_cols_.data(), gw_.data(), out_c_, wide, ckk,
          /*accumulate=*/true);
  if (has_bias_) {
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* row = gout_all.data() + oc * wide;
      float acc = 0.0f;
      for (std::size_t p = 0; p < wide; ++p) acc += row[p];
      gb_[oc] += acc;
    }
  }
  // grad_cols[CKK, B*S] = W^T[CKK, OC] * gout_all[OC, B*S]; reuse the cached
  // column buffer as the destination (gemm_bt above was its last reader).
  std::vector<float>& grad_cols = cached_cols_;
  gemm_at(w_.data(), gout_all.data(), grad_cols.data(), ckk, out_c_, wide);
  Tensor grad_in({n, in_c_, g.height, g.width});
  const std::size_t in_plane = in_c_ * g.height * g.width;
  for (std::size_t i = 0; i < n; ++i) {
    col2im_strided(grad_cols.data(), g, grad_in.data() + i * in_plane, wide,
                   i * spatial);
  }
  cached_cols_.clear();
  return grad_in;
}

void Conv2D::collect_params(const std::string& prefix, std::vector<ParamRef>& out) {
  out.push_back({prefix + ".w", &w_, &gw_});
  if (has_bias_) out.push_back({prefix + ".b", &b_, &gb_});
}

}  // namespace afl
