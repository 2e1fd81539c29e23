#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

std::vector<float> random_matrix(std::size_t n, Rng& rng) {
  std::vector<float> m(n);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

void reference_gemm(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& c, std::size_t m, std::size_t k,
                    std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += double(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

struct Dims {
  std::size_t m, k, n;
};

class GemmShapes : public ::testing::TestWithParam<Dims> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  auto a = random_matrix(m * k, rng);
  auto b = random_matrix(k * n, rng);
  std::vector<float> ref(m * n), got(m * n);
  reference_gemm(a, b, ref, m, k, n);
  gemm(a.data(), b.data(), got.data(), m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-3f) << "at " << i;
  }
}

TEST_P(GemmShapes, TransposedAMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(7 * m + k + n);
  auto at = random_matrix(k * m, rng);  // stored [k x m]
  auto b = random_matrix(k * n, rng);
  // Build the untransposed A for the reference.
  std::vector<float> a(m * k);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t i = 0; i < m; ++i) a[i * k + p] = at[p * m + i];
  std::vector<float> ref(m * n), got(m * n);
  reference_gemm(a, b, ref, m, k, n);
  gemm_at(at.data(), b.data(), got.data(), m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(got[i], ref[i], 1e-3f);
}

TEST_P(GemmShapes, TransposedBMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + 13 * k + n);
  auto a = random_matrix(m * k, rng);
  auto bt = random_matrix(n * k, rng);  // stored [n x k]
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = 0; p < k; ++p) b[p * n + j] = bt[j * k + p];
  std::vector<float> ref(m * n), got(m * n);
  reference_gemm(a, b, ref, m, k, n);
  gemm_bt(a.data(), bt.data(), got.data(), m, k, n);
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(got[i], ref[i], 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(Dims{1, 1, 1}, Dims{3, 5, 7}, Dims{4, 4, 4}, Dims{5, 9, 2},
                      Dims{8, 27, 33}, Dims{16, 144, 50}, Dims{17, 31, 19},
                      Dims{2, 64, 128}, Dims{64, 16, 3}));

TEST(Gemm, AccumulateAddsToExisting) {
  Rng rng(4);
  auto a = random_matrix(4 * 3, rng);
  auto b = random_matrix(3 * 5, rng);
  std::vector<float> base(4 * 5, 1.0f), once(4 * 5);
  gemm(a.data(), b.data(), once.data(), 4, 3, 5);
  gemm(a.data(), b.data(), base.data(), 4, 3, 5, /*accumulate=*/true);
  for (std::size_t i = 0; i < once.size(); ++i) EXPECT_NEAR(base[i], once[i] + 1.0f, 1e-4f);
}

// The three kernels share one rounding rule: every C element is one
// multiply-add chain over p in order, wherever it falls in the tiling (a
// whole 4 x 32 tile, a tile of the last m mod 4 rows, or a zero-padded copy
// of the last n mod 32 columns). So gemm_at on A^T and gemm_bt on B^T equal
// gemm bit for bit, and a block of C computed on its own equals the same
// block of the full product, which keeps chunked evaluation equal to a
// whole-batch forward.
void check_rounding_rule(std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                         Rng& rng) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n
                                    << " accumulate=" << accumulate);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  const auto c0 = accumulate ? random_matrix(m * n, rng) : std::vector<float>(m * n);
  std::vector<float> at(k * m), bt(n * k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];

  auto want = c0, got_at = c0, got_bt = c0;
  gemm(a.data(), b.data(), want.data(), m, k, n, accumulate);
  gemm_at(at.data(), b.data(), got_at.data(), m, k, n, accumulate);
  gemm_bt(a.data(), bt.data(), got_bt.data(), m, k, n, accumulate);
  ASSERT_EQ(std::memcmp(got_bt.data(), want.data(), m * n * sizeof(float)), 0)
      << "gemm_bt(A, B^T) != gemm(A, B)";
  ASSERT_EQ(std::memcmp(got_at.data(), want.data(), m * n * sizeof(float)), 0)
      << "gemm_at(A^T, B) != gemm(A, B)";

  // Rows [i0, i1) x columns [j0, j1) on their own, through gemm and gemm_bt.
  const std::size_t i0 = rng.uniform_index(m), i1 = i0 + 1 + rng.uniform_index(m - i0);
  const std::size_t j0 = rng.uniform_index(n), j1 = j0 + 1 + rng.uniform_index(n - j0);
  const std::size_t bm = i1 - i0, bn = j1 - j0;
  const float* a_rows = a.data() + i0 * k;
  const float* bt_rows = bt.data() + j0 * k;
  std::vector<float> b_cols(k * bn), c_block(bm * bn);
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < bn; ++j) b_cols[p * bn + j] = b[p * n + j0 + j];
  for (std::size_t i = 0; i < bm; ++i)
    for (std::size_t j = 0; j < bn; ++j) c_block[i * bn + j] = c0[(i0 + i) * n + j0 + j];
  auto block = c_block, block_bt = c_block;
  gemm(a_rows, b_cols.data(), block.data(), bm, k, bn, accumulate);
  gemm_bt(a_rows, bt_rows, block_bt.data(), bm, k, bn, accumulate);
  for (std::size_t i = 0; i < bm; ++i)
    for (std::size_t j = 0; j < bn; ++j) {
      const float whole = want[(i0 + i) * n + j0 + j];
      ASSERT_EQ(std::memcmp(&block[i * bn + j], &whole, sizeof(float)), 0)
          << "gemm block element (" << i0 + i << ", " << j0 + j << ")";
      ASSERT_EQ(std::memcmp(&block_bt[i * bn + j], &whole, sizeof(float)), 0)
          << "gemm_bt block element (" << i0 + i << ", " << j0 + j << ")";
    }

  // Within float summation error of the double-precision product, which
  // bounds all three kernels since they agree bit for bit: (k + 1) terms,
  // each off by at most one rounding of the running sum.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double exact = c0[i * n + j];
      double mag = std::fabs(exact);
      for (std::size_t p = 0; p < k; ++p) {
        const double term = double(a[i * k + p]) * b[p * n + j];
        exact += term;
        mag += std::fabs(term);
      }
      const double tol = double(k + 1) * FLT_EPSILON * mag + FLT_MIN;
      ASSERT_NEAR(want[i * n + j], exact, tol) << "at (" << i << ", " << j << ")";
    }
}

// 10 seeds x 100 random shapes: n crosses the 32-column tile, and every tenth
// case has k up to 2000 so gemm_bt's packed B^T spans several panels. Then
// every edge shape, m 1..9 x n 1..66 (each seed takes the n of its residue
// mod 10) at k 1, 7 and 300 (300 crosses gemm_bt's panel blocks at these n),
// both accumulate modes.
class GemmRoundingProperty : public ::testing::TestWithParam<int> {};

TEST_P(GemmRoundingProperty, OneRoundingRuleForAllKernels) {
  Rng rng(0x6E33A000u + static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t m = 1 + rng.uniform_index(70);
    const std::size_t n = 1 + rng.uniform_index(100);
    const std::size_t k = 1 + rng.uniform_index(iter % 10 == 0 ? 2000 : 90);
    check_rounding_rule(m, k, n, iter % 2 == 1, rng);
    if (HasFatalFailure()) return;
  }
  for (std::size_t m = 1; m <= 9; ++m)
    for (std::size_t n = 1 + static_cast<std::size_t>(GetParam()); n <= 66; n += 10)
      for (std::size_t k : {1, 7, 300})
        for (bool accumulate : {false, true}) {
          check_rounding_rule(m, k, n, accumulate, rng);
          if (HasFatalFailure()) return;
        }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmRoundingProperty, ::testing::Range(0, 10));

TEST(Im2Col, IdentityKernelIsCopy) {
  // 1x1 kernel, stride 1, no pad: cols == image.
  const ConvGeom g{2, 3, 3, 1, 1, 0};
  std::vector<float> img(2 * 9);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(img.data(), g, cols.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  const ConvGeom g{1, 2, 2, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(img.data(), g, cols.data());
  // Top-left kernel position over output (0,0) reads the padded corner.
  EXPECT_EQ(cols[0], 0.0f);
  // Center kernel tap (row 4) over output (0,0) is img(0,0).
  EXPECT_EQ(cols[4 * g.col_cols() + 0], 1.0f);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property ensures
  // conv backward is the true gradient of forward.
  const ConvGeom g{3, 5, 4, 3, 2, 1};
  Rng rng(9);
  std::vector<float> x(3 * 5 * 4), y(g.col_rows() * g.col_cols());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> cols(y.size());
  im2col(x.data(), g, cols.data());
  std::vector<float> xt(x.size(), 0.0f);
  col2im(y.data(), g, xt.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += double(cols[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2Col, StridedMatchesDense) {
  const ConvGeom g{2, 4, 4, 3, 1, 1};
  Rng rng(11);
  std::vector<float> img(2 * 16);
  for (auto& v : img) v = static_cast<float>(rng.normal());
  const std::size_t s = g.col_cols();
  std::vector<float> dense(g.col_rows() * s);
  im2col(img.data(), g, dense.data());
  // Write into a 3-sample-wide buffer at offset of "sample 1".
  std::vector<float> widebuf(g.col_rows() * 3 * s, -1.0f);
  im2col_strided(img.data(), g, widebuf.data(), 3 * s, s);
  for (std::size_t r = 0; r < g.col_rows(); ++r)
    for (std::size_t c = 0; c < s; ++c)
      EXPECT_EQ(widebuf[r * 3 * s + s + c], dense[r * s + c]);
}

// The loops im2col_strided and col2im_strided replaced, kept as the
// reference: every column entry read, and every pixel's sum taken in row
// order (c, ky, kx), element by element.
void reference_im2col(const float* image, const ConvGeom& g, float* cols,
                      std::size_t row_stride, std::size_t col0) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), plane = g.height * g.width;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t ky = 0; ky < g.kernel; ++ky)
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long iy = long(oy * g.stride + ky) - long(g.pad);
            const long ix = long(ox * g.stride + kx) - long(g.pad);
            const bool inside = iy >= 0 && iy < long(g.height) && ix >= 0 && ix < long(g.width);
            cols[row * row_stride + col0 + oy * ow + ox] =
                inside ? image[c * plane + std::size_t(iy) * g.width + std::size_t(ix)] : 0.0f;
          }
}

void reference_col2im(const float* cols, const ConvGeom& g, float* image,
                      std::size_t row_stride, std::size_t col0) {
  const std::size_t oh = g.out_h(), ow = g.out_w(), plane = g.height * g.width;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.channels; ++c)
    for (std::size_t ky = 0; ky < g.kernel; ++ky)
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long iy = long(oy * g.stride + ky) - long(g.pad);
            const long ix = long(ox * g.stride + kx) - long(g.pad);
            if (iy < 0 || iy >= long(g.height) || ix < 0 || ix >= long(g.width)) continue;
            image[c * plane + std::size_t(iy) * g.width + std::size_t(ix)] +=
                cols[row * row_stride + col0 + oy * ow + ox];
          }
}

// Random geometries (channels 1-6, planes 1-14 on a side, which covers
// MiniVGG's 12/6/3 and 8/4/2/1, kernels 1 and 3, strides 1 and 2, pads 0-2
// where the kernel fits) written at a random column offset of a wider
// matrix: both transforms equal the reference loops bit for bit, untouched
// entries included, and col2im adds onto a random nonzero image.
class LoweringProperty : public ::testing::TestWithParam<int> {};

TEST_P(LoweringProperty, MatchesTheReferenceLoopsBitForBit) {
  Rng rng(0x10E3A000u + static_cast<std::uint64_t>(GetParam()));
  const auto check = [&rng](const ConvGeom& g) {
    const std::size_t spatial = g.col_cols();
    const std::size_t row_stride = spatial + rng.uniform_index(3 * spatial + 5);
    const std::size_t col0 = rng.uniform_index(row_stride - spatial + 1);
    SCOPED_TRACE(::testing::Message()
                 << "C=" << g.channels << " H=" << g.height << " W=" << g.width
                 << " K=" << g.kernel << " stride=" << g.stride << " pad=" << g.pad
                 << " row_stride=" << row_stride << " col0=" << col0);
    const auto image = random_matrix(g.channels * g.height * g.width, rng);
    const auto filler = random_matrix(g.col_rows() * row_stride, rng);
    auto want = filler, got = filler;
    reference_im2col(image.data(), g, want.data(), row_stride, col0);
    im2col_strided(image.data(), g, got.data(), row_stride, col0);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
        << "im2col_strided";

    const auto base = random_matrix(image.size(), rng);
    auto sum_want = base, sum_got = base;
    reference_col2im(filler.data(), g, sum_want.data(), row_stride, col0);
    col2im_strided(filler.data(), g, sum_got.data(), row_stride, col0);
    ASSERT_EQ(std::memcmp(sum_got.data(), sum_want.data(), base.size() * sizeof(float)), 0)
        << "col2im_strided";
  };
  for (int iter = 0; iter < 60; ++iter) {
    ConvGeom g{};
    do {
      g = ConvGeom{1 + rng.uniform_index(6), 1 + rng.uniform_index(14),
                   1 + rng.uniform_index(14),  rng.uniform_index(2) == 0 ? 1u : 3u,
                   1 + rng.uniform_index(2),   rng.uniform_index(3)};
    } while (g.height + 2 * g.pad < g.kernel || g.width + 2 * g.pad < g.kernel);
    check(g);
    if (HasFatalFailure()) return;
  }
  // Thin planes of 64 pixels or more, where a 'same' tap's shift spans more
  // than a row or the whole plane.
  for (const ConvGeom& g : {ConvGeom{2, 1, 70, 3, 1, 1}, ConvGeom{2, 70, 1, 3, 1, 1},
                            ConvGeom{1, 1, 64, 5, 1, 2}, ConvGeom{1, 65, 1, 5, 1, 2},
                            ConvGeom{1, 2, 40, 5, 1, 2}}) {
    check(g);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringProperty, ::testing::Range(0, 10));

TEST(Im2Col, OutputDims) {
  const ConvGeom g{1, 32, 32, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 16u);
  EXPECT_EQ(g.out_w(), 16u);
  const ConvGeom g2{1, 5, 5, 3, 1, 0};
  EXPECT_EQ(g2.out_h(), 3u);
}

}  // namespace
}  // namespace afl
