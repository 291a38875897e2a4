#ifndef NETMAX_LINALG_BLAS_H_
#define NETMAX_LINALG_BLAS_H_

// Dense double-precision kernels on raw buffers: the compute substrate under
// Matrix and the model's forward/backward passes.
//
// Every kernel is bit-exact with the naive textbook loop it replaces: each
// output element is one left-to-right sum over the contraction index in
// ascending order. Speed comes from unrolling across *independent* output
// elements and contraction steps, contiguous vectorizable inner loops, and
// branch-free code — never from reassociating a sum. This is what lets
// the batched training path reproduce the per-sample seed results to the
// last bit (see tests/golden_reference_test.cc).
//
// Row-major matrices carry an explicit row stride (ld*), so callers can
// apply kernels to sub-blocks of larger buffers.
//
// Lane layout. The Lane* kernels work on one block of at most kLanes
// samples stored feature-major: a (units x kLanes) matrix whose row u holds
// unit u of every sample, sample v in lane v. One row is 64 bytes — one
// AVX-512 vector, two AVX2 or four SSE2 ones — so these kernels keep the
// sample axis innermost and accumulate each output row in vector registers
// of the widest kind the CPU has; the contraction still runs in the naive
// loop's order, one separately rounded multiply and add per step.

#include <cstddef>

namespace netmax::linalg {

// Samples per lane-layout block, and doubles per lane-layout row.
inline constexpr int kLanes = 8;

// C (m x n) = A (m x k) * B (k x n), all row-major:
// C[i][j] = sum_t A[i][t] * B[t][j], t ascending (i-k-j order, unrolled).
// Equivalent to GemmBias with a null bias.
void Gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc);

// Gemm with an optional bias row:
// C[i][j] = (bias ? bias[j] : 0) + sum_t A[i][t] * B[t][j], t ascending.
void GemmBias(int m, int n, int k, const double* a, int lda, const double* b,
              int ldb, const double* bias, double* c, int ldc);

// y (m) = A (m x n) * x (+ bias): y[i] = (bias ? bias[i] : 0) + dot(row i, x).
void Gemv(int m, int n, const double* a, int lda, const double* x,
          const double* bias, double* y);

// Lane GEMM: c (m x kLanes) from b (k x kLanes), both in lane layout:
//   c[i][v] = (seed ? seed[i] : 0.0) + sum_t A(i, t) * b[t][v], t ascending,
// with A(i, t) = a[i * a_row + t * a_col]. The two strides read a row-major
// weight matrix W (out x in) in place either way: A = W (a_row = in,
// a_col = 1) is a layer's forward, A = W^T (a_row = 1, a_col = in) carries
// deltas back through it. The seed is copied, not added, so a -0.0 seed
// stays -0.0.
void LaneGemm(int m, int k, const double* a, int a_row, int a_col,
              const double* seed, const double* b, double* c);

// Weight-gradient kernel, write form: C (m x n, row-major) with
//   C[i][j] = 0.0 + sum_{s < r} a[i][s] * b[s][j], s ascending,
// for a (m x kLanes) in lane layout and b (r x n) row-major, r <= kLanes.
// With a = a layer's deltas and b = its inputs this is the sample-ascending
// rank-1 accumulation delta^T * input. C is overwritten, never read: no
// fill goes ahead of it, and the explicit 0.0 start gives the bits a zero
// fill plus accumulation would (0.0 + -0.0 == +0.0).
void LaneGemmAtB(int r, int m, int n, const double* a, const double* b,
                 int ldb, double* c, int ldc);

// Bias-gradient kernel, write form: out[i] = 0.0 + sum_{s < r} a[i][s],
// s ascending, for a (m x kLanes) in lane layout, r <= kLanes.
void LaneRowSums(int r, int m, const double* a, double* out);

// Scaled tree sum over the rows of a (count x n) row-major matrix with row
// stride ld: out[j] = T[j] * scale, where T is the fixed-shape pairwise
// tree — adjacent rows add level by level (row 2i + row 2i+1 -> row i, an
// odd last row moving down unchanged) until one row is left — so every
// rounding step depends on count alone. Overwrites the rows; count >= 1.
void TreeSumScaled(int count, int n, double* rows, int ld, double scale,
                   double* out);

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_BLAS_H_
