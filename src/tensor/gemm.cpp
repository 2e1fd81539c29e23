#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/prof/prof.hpp"

namespace afl {
namespace {

// The register tile is kTileRows rows of C by two vectors of kVec floats:
// eight accumulators that stay in registers for the whole p loop, so each
// loaded pair of B vectors is reused kTileRows times. Vector types never
// cross a function boundary (their ABI depends on -march).
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kVec = 16;
constexpr std::size_t kTileCols = 2 * kVec;
// gemm_bt packs B^T this many floats (64 KiB) at a time, or one padded row
// of it when that is longer.
constexpr std::size_t kPanelFloats = 16384;

using Vec = float __attribute__((vector_size(kVec * sizeof(float))));

// C[m x n] += A * B, where A(i, p) = a[i * a_row + p * a_col], B(p, j) =
// b[p * ldb + j] and C(i, j) = c[i * ldc + j]. Every element of C, in a tile
// or in the remainder loops, is the same chain c += A(i, p) * B(p, j) over
// p = 0..k-1 in order, so its value does not depend on where it falls.
void gemm_kernel(const float* a, std::size_t a_row, std::size_t a_col,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t m_tiled = m - m % kTileRows;
  const std::size_t n_tiled = n - n % kTileCols;
  for (std::size_t j = 0; j < n_tiled; j += kTileCols) {
    for (std::size_t i = 0; i < m_tiled; i += kTileRows) {
      Vec acc[kTileRows][2];
      for (std::size_t r = 0; r < kTileRows; ++r) {
        std::memcpy(&acc[r], c + (i + r) * ldc + j, sizeof(acc[r]));
      }
      const float* ai = a + i * a_row;
      for (std::size_t p = 0; p < k; ++p) {
        Vec b0, b1;
        std::memcpy(&b0, b + p * ldb + j, sizeof(b0));
        std::memcpy(&b1, b + p * ldb + j + kVec, sizeof(b1));
        for (std::size_t r = 0; r < kTileRows; ++r) {
          const float av = ai[r * a_row + p * a_col];
          acc[r][0] += av * b0;
          acc[r][1] += av * b1;
        }
      }
      for (std::size_t r = 0; r < kTileRows; ++r) {
        std::memcpy(c + (i + r) * ldc + j, &acc[r], sizeof(acc[r]));
      }
    }
  }
  // Rows [i0, i1) over columns [j0, n), one row at a time.
  const auto rows = [&](std::size_t i0, std::size_t i1, std::size_t j0) {
    for (std::size_t i = i0; i < i1; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[i * a_row + p * a_col];
        const float* brow = b + p * ldb;
        for (std::size_t j = j0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (n_tiled < n) rows(0, m_tiled, n_tiled);
  rows(m_tiled, m, 0);
}

}  // namespace

// The three variants are thin wrappers over gemm_kernel, so they round alike
// (gemm.hpp). This is not a BLAS — it is sized for the layer shapes in this
// repo (M = dozens of channels, N = batch * spatial positions in the
// thousands).

void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n, bool accumulate) {
  AFL_PROF_SPAN("tensor.gemm");
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  gemm_kernel(a, k, 1, b, n, c, n, m, k, n);
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate) {
  AFL_PROF_SPAN("tensor.gemm_at");
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  // A stored [k x m]; A(i, p) = a[p * m + i].
  gemm_kernel(a, 1, m, b, n, c, n, m, k, n);
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate) {
  AFL_PROF_SPAN("tensor.gemm_bt");
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (m == 0 || n == 0) return;
  // B stored [n x k]. Transpose it into a per-thread panel one block of
  // p-rows at a time, in p order, so each C element keeps gemm's chain
  // without a k x n copy of B. Panel rows are zero-padded to whole tiles, and
  // C's last tail_n < 32 columns are computed in a padded copy, `tail`.
  const std::size_t tail_n = n % kTileCols, nt = n - tail_n;
  const std::size_t np = tail_n ? nt + kTileCols : nt;
  const std::size_t block = std::max<std::size_t>(1, kPanelFloats / np);
  thread_local std::vector<float> panel, tail;
  panel.resize(std::min(block, k) * np);
  tail.assign(tail_n ? m * kTileCols : 0, 0.0f);
  for (std::size_t i = 0; i < m && tail_n; ++i) {
    std::memcpy(tail.data() + i * kTileCols, c + i * n + nt, tail_n * sizeof(float));
  }
  for (std::size_t p0 = 0; p0 < k; p0 += block) {
    const std::size_t rows = std::min(block, k - p0);
    for (std::size_t p = 0; p < rows; ++p) {
      float* dst = panel.data() + p * np;
      for (std::size_t j = 0; j < n; ++j) dst[j] = b[j * k + p0 + p];
      std::fill(dst + n, dst + np, 0.0f);
    }
    gemm_kernel(a + p0, k, 1, panel.data(), np, c, n, m, rows, nt);
    if (tail_n) {
      gemm_kernel(a + p0, k, 1, panel.data() + nt, np, tail.data(), kTileCols, m,
                  rows, kTileCols);
    }
  }
  for (std::size_t i = 0; i < m && tail_n; ++i) {
    std::memcpy(c + i * n + nt, tail.data() + i * kTileCols, tail_n * sizeof(float));
  }
}

}  // namespace afl
