#pragma once
// im2col / col2im transforms for convolution lowering to GEMM.
//
// Layout: images are CHW (single sample); the column buffer is
// [C*KH*KW, OH*OW] row-major so conv forward is gemm(W[OC, C*KH*KW], cols).
// The strided variants write/read a sample's columns into a wider matrix
// [C*KH*KW, B*OH*OW] at a column offset, so a whole batch lowers into one
// GEMM (the hot path of training).

#include <cstddef>

namespace afl {

struct ConvGeom {
  std::size_t channels;
  std::size_t height;
  std::size_t width;
  std::size_t kernel;   // square kernels
  std::size_t stride;
  std::size_t pad;

  std::size_t out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  std::size_t col_rows() const { return channels * kernel * kernel; }
  std::size_t col_cols() const { return out_h() * out_w(); }

  bool operator==(const ConvGeom&) const = default;
};

/// Expand image [C, H, W] into columns [C*KH*KW, OH*OW].
void im2col(const float* image, const ConvGeom& g, float* cols);

/// Add columns back into an image buffer (used for input gradients).
/// `image` must be zeroed by the caller (or hold values to accumulate into).
/// Order contract: each pixel adds the entries that read it in row order
/// (c, ky, kx), one after another onto the caller's value, so the result is
/// that of the plain scatter loop over rows, then outputs, bit for bit
/// (gemm_test's LoweringProperty pins it against that loop).
void col2im(const float* cols, const ConvGeom& g, float* image);

/// As im2col, but row r of the output lands at cols[r * row_stride + col0].
void im2col_strided(const float* image, const ConvGeom& g, float* cols,
                    std::size_t row_stride, std::size_t col0);

/// As col2im, reading row r from cols[r * row_stride + col0].
void col2im_strided(const float* cols, const ConvGeom& g, float* image,
                    std::size_t row_stride, std::size_t col0);

}  // namespace afl
