#include "tensor/im2col.hpp"

#include "obs/prof/prof.hpp"

namespace afl {

void im2col_strided(const float* image, const ConvGeom& g, float* cols,
                    std::size_t row_stride, std::size_t col0) {
  AFL_PROF_SPAN("tensor.im2col");
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t plane = g.height * g.width;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* src = image + c * plane;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* dst = cols + row * row_stride + col0;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long iy = static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) {
            for (std::size_t ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = 0.0f;
            continue;
          }
          const float* srow = src + static_cast<std::size_t>(iy) * g.width;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long ix =
                static_cast<long>(ox * g.stride + kx) - static_cast<long>(g.pad);
            dst[oy * ow + ox] = (ix < 0 || ix >= static_cast<long>(g.width))
                                    ? 0.0f
                                    : srow[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void im2col(const float* image, const ConvGeom& g, float* cols) {
  im2col_strided(image, g, cols, g.col_cols(), 0);
}

void col2im_strided(const float* cols, const ConvGeom& g, float* image,
                    std::size_t row_stride, std::size_t col0) {
  AFL_PROF_SPAN("tensor.col2im");
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t plane = g.height * g.width;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* dst = image + c * plane;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* src = cols + row * row_stride + col0;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long iy = static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.height)) continue;
          float* drow = dst + static_cast<std::size_t>(iy) * g.width;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long ix =
                static_cast<long>(ox * g.stride + kx) - static_cast<long>(g.pad);
            if (ix < 0 || ix >= static_cast<long>(g.width)) continue;
            drow[static_cast<std::size_t>(ix)] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* image) {
  col2im_strided(cols, g, image, g.col_cols(), 0);
}

}  // namespace afl
