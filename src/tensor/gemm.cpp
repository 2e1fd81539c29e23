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
// gemm_bt packs B^T this many floats (64 KiB) at a time, or one row of it
// when that is longer.
constexpr std::size_t kPanelFloats = 16384;
// gemm_bt's transposing pack moves kPackBlock x kPackBlock squares of B.
constexpr std::size_t kPackBlock = 8;

using Vec = float __attribute__((vector_size(kVec * sizeof(float))));

// C[R x kTileCols] += A * B over p = 0..k-1 in order, with A, B and C
// addressed as in gemm_kernel.
template <std::size_t R>
inline void tile(const float* a, std::size_t a_row, std::size_t a_col, const float* b,
                 std::size_t ldb, float* c, std::size_t ldc, std::size_t k) {
  Vec acc[R][2];
  for (std::size_t r = 0; r < R; ++r) {
    std::memcpy(&acc[r], c + r * ldc, sizeof(acc[r]));
  }
  for (std::size_t p = 0; p < k; ++p) {
    Vec b0, b1;
    std::memcpy(&b0, b + p * ldb, sizeof(b0));
    std::memcpy(&b1, b + p * ldb + kVec, sizeof(b1));
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[r * a_row + p * a_col];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    std::memcpy(c + r * ldc, &acc[r], sizeof(acc[r]));
  }
}

// The tile of `rows` (1..kTileRows) rows of C.
void tile_rows(std::size_t rows, const float* a, std::size_t a_row, std::size_t a_col,
               const float* b, std::size_t ldb, float* c, std::size_t ldc, std::size_t k) {
  switch (rows) {
    case 1: return tile<1>(a, a_row, a_col, b, ldb, c, ldc, k);
    case 2: return tile<2>(a, a_row, a_col, b, ldb, c, ldc, k);
    case 3: return tile<3>(a, a_row, a_col, b, ldb, c, ldc, k);
    default: return tile<kTileRows>(a, a_row, a_col, b, ldb, c, ldc, k);
  }
}

// C[m x n] += A * B, where A(i, p) = a[i * a_row + p * a_col], B(p, j) =
// b[p * ldb + j] and C(i, j) = c[i * ldc + j]. Every element of C runs
// through the register tile: the last m mod 4 rows in a tile of that many
// rows, and the last n mod 32 columns on zero-padded copies of B's columns
// and of C's block, of which only the live part is copied back. B's columns
// are read in place when its rows are already padded to a whole tile (ldb
// >= n rounded up to 32: gemm_bt's panel). Each element of C is the same
// chain c += A(i, p) * B(p, j) over p = 0..k-1 in order wherever it falls;
// the padded lanes never reach a live one.
void gemm_kernel(const float* a, std::size_t a_row, std::size_t a_col,
                 const float* b, std::size_t ldb, float* c, std::size_t ldc,
                 std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t m_tiled = m - m % kTileRows;
  const std::size_t n_tiled = n - n % kTileCols;
  for (std::size_t j = 0; j < n_tiled; j += kTileCols) {
    for (std::size_t i = 0; i < m_tiled; i += kTileRows) {
      tile<kTileRows>(a + i * a_row, a_row, a_col, b + j, ldb, c + i * ldc + j, ldc, k);
    }
    if (m_tiled < m) {
      tile_rows(m - m_tiled, a + m_tiled * a_row, a_row, a_col, b + j, ldb,
                c + m_tiled * ldc + j, ldc, k);
    }
  }
  if (n_tiled == n) return;
  const std::size_t cols = n - n_tiled;
  const float* b_edge = b + n_tiled;
  std::size_t ldb_edge = ldb;
  if (ldb < n_tiled + kTileCols) {
    thread_local std::vector<float> b_pad;
    b_pad.assign(k * kTileCols, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      std::memcpy(b_pad.data() + p * kTileCols, b + p * ldb + n_tiled, cols * sizeof(float));
    }
    b_edge = b_pad.data();
    ldb_edge = kTileCols;
  }
  for (std::size_t i = 0; i < m; i += kTileRows) {
    const std::size_t rows = std::min(kTileRows, m - i);
    float* cij = c + i * ldc + n_tiled;
    float c_pad[kTileRows * kTileCols] = {};
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(c_pad + r * kTileCols, cij + r * ldc, cols * sizeof(float));
    }
    tile_rows(rows, a + i * a_row, a_row, a_col, b_edge, ldb_edge, c_pad, kTileCols, k);
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(cij + r * ldc, c_pad + r * kTileCols, cols * sizeof(float));
    }
  }
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
  // without a k x n copy of B. Panel rows are zero-padded to whole tiles, so
  // the kernel reads B's last columns in place. The transpose moves 8 x 8
  // squares, so each cache line of B it reads is used eight times.
  const std::size_t np = (n + kTileCols - 1) / kTileCols * kTileCols;
  const std::size_t block = std::max<std::size_t>(1, kPanelFloats / np);
  thread_local std::vector<float> panel;
  panel.resize(std::min(block, k) * np);
  for (std::size_t q = 0; q < std::min(block, k); ++q) {
    std::fill(panel.data() + q * np + n, panel.data() + (q + 1) * np, 0.0f);
  }
  for (std::size_t p0 = 0; p0 < k; p0 += block) {
    const std::size_t rows = std::min(block, k - p0);
    for (std::size_t j0 = 0; j0 < n; j0 += kPackBlock) {
      const float* src = b + j0 * k + p0;
      float* dst = panel.data() + j0;
      std::size_t q0 = 0;
      if (j0 + kPackBlock <= n) {
        for (; q0 + kPackBlock <= rows; q0 += kPackBlock) {
          for (std::size_t q = q0; q < q0 + kPackBlock; ++q) {
            for (std::size_t j = 0; j < kPackBlock; ++j) dst[q * np + j] = src[j * k + q];
          }
        }
      }
      for (std::size_t j = 0; j < std::min(kPackBlock, n - j0); ++j) {
        for (std::size_t q = q0; q < rows; ++q) dst[q * np + j] = src[j * k + q];
      }
    }
    gemm_kernel(a + p0, k, 1, panel.data(), np, c, n, m, rows, n);
  }
}

}  // namespace afl
