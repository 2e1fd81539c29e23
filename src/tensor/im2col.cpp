#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/prof/prof.hpp"

namespace afl {
namespace {

// im2col writes a stride-1 'same' geometry's planes of at least this many
// pixels as shifted copies; a smaller plane (6 x 6 and below in MiniVGG's
// pools) costs more in per-copy overhead than in elements, and goes through
// the padded plane instead.
constexpr std::size_t kShiftMinPlane = 64;

// The outputs o in [0, out) whose tap reads input o * stride + tap - pad
// inside [0, in): [lo, hi), with lo == hi when there is none.
struct Span {
  std::size_t lo, hi;
};

Span valid_outputs(std::size_t in, std::size_t out, std::size_t stride, std::size_t tap,
                   std::size_t pad) {
  const std::size_t lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
  const std::size_t hi =
      tap >= in + pad ? 0 : std::min(out, (in + pad - tap + stride - 1) / stride);
  return {std::min(lo, hi), hi};
}

// Stride 1 with 'same' padding: tap (ky, kx)'s column row is the plane
// shifted by d = dy * W + dx (dy = ky - pad, dx = kx - pad). One copy, then
// zeros where the shift runs past the top or bottom, and in the |dx| columns
// of each row that the shift wrapped into the neighbouring row.
void im2col_shifted(const float* image, const ConvGeom& g, float* cols,
                    std::size_t row_stride, std::size_t col0) {
  const std::size_t plane = g.height * g.width;
  const auto w = static_cast<std::ptrdiff_t>(g.width);
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* src = image + c * plane;
    for (std::ptrdiff_t ky = 0; ky < static_cast<std::ptrdiff_t>(g.kernel); ++ky) {
      for (std::ptrdiff_t kx = 0; kx < static_cast<std::ptrdiff_t>(g.kernel); ++kx, ++row) {
        float* dst = cols + row * row_stride + col0;
        const std::ptrdiff_t dx = kx - pad;
        const std::ptrdiff_t d = (ky - pad) * w + dx;
        // A shift past the whole plane (a thin plane) leaves only zeros.
        const std::size_t head = std::min<std::size_t>(d < 0 ? -d : 0, plane);
        const std::size_t tail = std::min<std::size_t>(d > 0 ? d : 0, plane - head);
        std::fill(dst, dst + head, 0.0f);
        std::memcpy(dst + head, src + tail, (plane - head - tail) * sizeof(float));
        std::fill(dst + plane - tail, dst + plane, 0.0f);
        const std::size_t wrapped = std::min<std::size_t>(dx < 0 ? -dx : dx, g.width);
        for (std::size_t y = 0; y < g.height && wrapped > 0; ++y) {
          float* r = dst + y * g.width;
          if (dx < 0) {
            std::fill(r, r + wrapped, 0.0f);
          } else {
            std::fill(r + g.width - wrapped, r + g.width, 0.0f);
          }
        }
      }
    }
  }
}

// kernel <= stride: no two taps read one pixel, so each column entry is
// read where it lies, or zero where its tap reads the padding.
void im2col_one_tap(const float* image, const ConvGeom& g, float* cols,
                    std::size_t row_stride, std::size_t col0) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t kk = g.kernel * g.kernel;
  for (std::size_t ky = 0; ky < g.kernel; ++ky) {
    const Span ys = valid_outputs(g.height, oh, g.stride, ky, g.pad);
    for (std::size_t kx = 0; kx < g.kernel; ++kx) {
      const Span xs = valid_outputs(g.width, ow, g.stride, kx, g.pad);
      for (std::size_t c = 0; c < g.channels; ++c) {
        const float* src = image + c * g.height * g.width;
        float* dst = cols + (c * kk + ky * g.kernel + kx) * row_stride + col0;
        std::fill(dst, dst + ys.lo * ow, 0.0f);
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* drow = dst + oy * ow;
          const float* srow = src + (oy * g.stride + ky - g.pad) * g.width;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            drow[ox] = ox >= xs.lo && ox < xs.hi ? srow[ox * g.stride + kx - g.pad] : 0.0f;
          }
        }
        std::fill(dst + ys.hi * ow, dst + oh * ow, 0.0f);
      }
    }
  }
}

// Every other geometry reads each channel through a zero-padded plane,
// (H + 2 pad) x (W + 2 pad) (the image's own plane when pad is 0), where tap
// (ky, kx) of output q sits at ky * Wp + kx + offset[q], offset[oy * OW +
// ox] = (oy * Wp + ox) * stride being the same for every tap and channel: a
// gather with no bounds test.
void im2col_padded(const float* image, const ConvGeom& g, float* cols,
                   std::size_t row_stride, std::size_t col0) {
  thread_local std::vector<float> padded;
  thread_local std::vector<std::uint32_t> offset;
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t wp = g.width + 2 * g.pad;
  if (g.pad > 0) padded.assign((g.height + 2 * g.pad) * wp, 0.0f);
  offset.resize(oh * ow);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      offset[oy * ow + ox] = static_cast<std::uint32_t>((oy * wp + ox) * g.stride);
    }
  }
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* src = image + c * g.height * g.width;
    if (g.pad > 0) {
      for (std::size_t y = 0; y < g.height; ++y) {
        std::memcpy(padded.data() + (y + g.pad) * wp + g.pad, src + y * g.width,
                    g.width * sizeof(float));
      }
      src = padded.data();
    }
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* tap = src + ky * wp + kx;
        float* dst = cols + row * row_stride + col0;
        for (std::size_t q = 0; q < oh * ow; ++q) dst[q] = tap[offset[q]];
      }
    }
  }
}

// For each pixel of a channel, in pixel order, the column entries it
// receives in row order (ky, kx): entry tap * row_stride + (oy * OW + ox)
// from the channel's first column row, for every output (oy, ox) whose tap
// (ky, kx) reads the pixel. Pixel p's entries are offset[first[p] ..
// first[p + 1]). Built once per geometry and row stride (a batch lowers
// sample by sample with both fixed).
struct GatherTable {
  ConvGeom geom{};  // channels 0: the table is one channel's
  std::size_t row_stride = 0;
  std::vector<std::uint32_t> first, offset;
};

const GatherTable& gather_table(const ConvGeom& g, std::size_t row_stride) {
  thread_local GatherTable t;
  ConvGeom plane = g;
  plane.channels = 0;
  if (t.row_stride == row_stride && t.geom == plane) return t;
  t.geom = plane;
  t.row_stride = row_stride;
  t.first.assign(1, 0);
  t.offset.clear();
  const std::size_t oh = g.out_h(), ow = g.out_w();
  for (std::size_t iy = 0; iy < g.height; ++iy) {
    for (std::size_t ix = 0; ix < g.width; ++ix) {
      for (std::size_t ky = 0; ky < g.kernel; ++ky) {
        // Output row oy reads this pixel through tap row ky when
        // oy * stride + ky - pad == iy.
        const std::size_t ty = iy + g.pad - ky;
        if (iy + g.pad < ky || ty % g.stride != 0 || ty / g.stride >= oh) continue;
        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
          const std::size_t tx = ix + g.pad - kx;
          if (ix + g.pad < kx || tx % g.stride != 0 || tx / g.stride >= ow) continue;
          t.offset.push_back(static_cast<std::uint32_t>(
              (ky * g.kernel + kx) * row_stride + ty / g.stride * ow + tx / g.stride));
        }
      }
      t.first.push_back(static_cast<std::uint32_t>(t.offset.size()));
    }
  }
  return t;
}

// kernel <= stride: no two taps read one pixel, so each pixel receives at
// most one entry, added where it lies.
void col2im_one_tap(const float* cols, const ConvGeom& g, float* image,
                    std::size_t row_stride, std::size_t col0) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t kk = g.kernel * g.kernel;
  for (std::size_t ky = 0; ky < g.kernel; ++ky) {
    const Span ys = valid_outputs(g.height, oh, g.stride, ky, g.pad);
    for (std::size_t kx = 0; kx < g.kernel; ++kx) {
      const Span xs = valid_outputs(g.width, ow, g.stride, kx, g.pad);
      for (std::size_t c = 0; c < g.channels; ++c) {
        const float* src = cols + (c * kk + ky * g.kernel + kx) * row_stride + col0;
        float* dst = image + c * g.height * g.width;
        for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* drow = dst + (oy * g.stride + ky - g.pad) * g.width;
          const float* srow = src + oy * ow;
          for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
            drow[ox * g.stride + kx - g.pad] += srow[ox];
          }
        }
      }
    }
  }
}

}  // namespace

void im2col_strided(const float* image, const ConvGeom& g, float* cols,
                    std::size_t row_stride, std::size_t col0) {
  AFL_PROF_SPAN("tensor.im2col");
  if (g.stride == 1 && 2 * g.pad + 1 == g.kernel && g.height * g.width >= kShiftMinPlane) {
    im2col_shifted(image, g, cols, row_stride, col0);
  } else if (g.kernel <= g.stride) {
    im2col_one_tap(image, g, cols, row_stride, col0);
  } else {
    im2col_padded(image, g, cols, row_stride, col0);
  }
}

void im2col(const float* image, const ConvGeom& g, float* cols) {
  im2col_strided(image, g, cols, g.col_cols(), 0);
}

void col2im_strided(const float* cols, const ConvGeom& g, float* image,
                    std::size_t row_stride, std::size_t col0) {
  AFL_PROF_SPAN("tensor.col2im");
  if (g.kernel <= g.stride) {
    col2im_one_tap(cols, g, image, row_stride, col0);
    return;
  }
  const GatherTable& t = gather_table(g, row_stride);
  const std::size_t plane = g.height * g.width;
  const std::uint32_t* first = t.first.data();
  const std::uint32_t* offset = t.offset.data();
  for (std::size_t c = 0; c < g.channels; ++c) {
    const float* src = cols + c * g.kernel * g.kernel * row_stride + col0;
    float* dst = image + c * plane;
    for (std::size_t p = 0; p < plane; ++p) {
      float acc = dst[p];
      for (std::uint32_t j = first[p]; j < first[p + 1]; ++j) acc += src[offset[j]];
      dst[p] = acc;
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* image) {
  col2im_strided(cols, g, image, g.col_cols(), 0);
}

}  // namespace afl
