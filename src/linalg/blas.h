#ifndef NETMAX_LINALG_BLAS_H_
#define NETMAX_LINALG_BLAS_H_

// Dense double-precision kernels on raw row-major buffers: the compute
// substrate under Matrix and the batched model forward/backward passes.
//
// Every kernel is bit-exact with the naive textbook loop it replaces: each
// output element is one left-to-right sum over the contraction index in
// ascending order. Speed comes from unrolling across *independent* output
// elements and contraction steps, contiguous vectorizable inner loops, and
// branch-free code — never from reassociating a sum. This is what lets
// the workspace/batched training path reproduce the per-sample seed results
// to the last bit (see tests/golden_reference_test.cc).
//
// All matrices are row-major with an explicit row stride (ld*), so callers
// can apply kernels to sub-blocks of larger buffers.

#include <cstddef>

namespace netmax::linalg {

// C (m x n) += A^T * B with A (r x m), B (r x n) row-major:
// C[i][j] += sum_s A[s][i] * B[s][j], s ascending (a sequence of rank-1
// updates). This is the weight-gradient kernel: delta rows (batch x out)
// against input rows (batch x in) accumulate sample contributions in batch
// order, exactly like the per-sample seed loop.
void GemmAtBAccumulate(int r, int m, int n, const double* a, int lda,
                       const double* b, int ldb, double* c, int ldc);

// C (m x n) = A (m x k) * B (k x n), all row-major:
// C[i][j] = sum_t A[i][t] * B[t][j], t ascending (i-k-j order, unrolled).
// Equivalent to GemmBias with a null bias.
void Gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc);

// Gemm with an optional bias row:
// C[i][j] = (bias ? bias[j] : 0) + sum_t A[i][t] * B[t][j], t ascending.
// With B = W^T (see Transpose) this is the batched layer forward in its
// vectorization-friendly form: the inner loop walks C and B rows
// contiguously, element order identical to the naive dot-product loop.
void GemmBias(int m, int n, int k, const double* a, int lda, const double* b,
              int ldb, const double* bias, double* c, int ldc);

// out (cols x rows) = in^T for in (rows x cols), both row-major.
void Transpose(int rows, int cols, const double* in, int ldin, double* out,
               int ldout);

// y (m) = A (m x n) * x (+ bias): y[i] = (bias ? bias[i] : 0) + dot(row i, x).
void Gemv(int m, int n, const double* a, int lda, const double* x,
          const double* bias, double* y);

// out (n) += column sums of A (r x n): out[j] += sum_s A[s][j], s ascending.
// The bias-gradient kernel.
void AddRowsAccumulate(int r, int n, const double* a, int lda, double* out);

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_BLAS_H_
