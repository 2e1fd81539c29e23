#pragma once
// Small single-threaded GEMM used by conv (via im2col) and linear layers.
//
// All three variants run one register-tiled kernel (4 rows x 32 columns of C
// held in registers across the whole k loop); gemm_bt first packs B^T into a
// small per-thread panel, one block of k-rows at a time. Every element of C
// goes through that tile, edges included: the last m mod 4 rows in a tile of
// that many rows, the last n mod 32 columns on zero-padded copies of B's
// columns and C's block (pruned widths and batch-sized column counts make
// these the common case). They share one rounding rule: every element of C
// is one chain c += A(i, p) * B(p, j) over p = 0..k-1 in order (fused
// multiply-adds where the target has FMA), wherever it falls in the tiling.
// So gemm_at on A^T and gemm_bt on B^T equal gemm(A, B) bit for bit, and any
// block of C computed on its own equals the same block of the full product.

#include <cstddef>

namespace afl {

/// C[m x n] = A[m x k] * B[k x n] (+ C if accumulate). Row-major.
void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n, bool accumulate = false);

/// C[m x n] = A^T[k x m]^T * B ... i.e. A is stored [k x m] and used transposed.
void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate = false);

/// C[m x n] = A[m x k] * B^T where B is stored [n x k].
void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate = false);

}  // namespace afl
