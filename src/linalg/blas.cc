#include "linalg/blas.h"

// Runtime ISA dispatch for the kernels whose inner loops are elementwise
// over contiguous memory (Gemm/GemmBias/GemmAtBAccumulate/AddRows): the
// binary stays portable (SSE2-baseline x86-64 "default" clone) and picks an
// AVX2 or AVX-512 clone on capable hardware. The wider clones only widen the
// vectorized loops (4/8 doubles) — FP contraction is disabled for this
// translation unit (see CMakeLists.txt: -ffp-contract=off), so no clone ever
// fuses a multiply-add: every element sees separate round-to-nearest multiply
// and add in the same order, and all clones produce bit-identical results.
// (Without that flag the AVX-512 clone WOULD contract to FMA and change
// low-order bits — verified empirically; do not drop the flag.) The
// dot-product-shaped Gemv stays single-version: its accumulator chains cannot
// widen without reassociating, and the wide codegen for it degrades into
// gather loads.
// ThreadSanitizer cannot execute ifunc resolvers (they run during dynamic
// relocation, before the TSan runtime initializes, and crash at startup), so
// multiversioning is disabled under TSan builds. No result changes: the
// baseline clone is bit-identical to the wide ones by construction.
#if defined(__SANITIZE_THREAD__)
#define NETMAX_KERNEL_ISA
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NETMAX_KERNEL_ISA
#endif
#endif
#ifndef NETMAX_KERNEL_ISA
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define NETMAX_KERNEL_ISA \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#endif
#ifndef NETMAX_KERNEL_ISA
#define NETMAX_KERNEL_ISA
#endif

namespace netmax::linalg {

NETMAX_KERNEL_ISA
void GemmAtBAccumulate(int r, int m, int n, const double* a, int lda,
                       const double* b, int ldb, double* c, int ldc) {
  // Rank-1 update order: sample s contributes before sample s+1 for every C
  // element, matching the per-sample accumulation of the seed backward pass.
  // Four samples per pass quarter the traffic over C; the four adds per
  // element stay sequential (s, s+1, s+2, s+3), so the order is untouched.
  int s = 0;
  for (; s + 4 <= r; s += 4) {
    const double* a0 = a + static_cast<size_t>(s) * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    const double* b0 = b + static_cast<size_t>(s) * ldb;
    const double* b1 = b0 + ldb;
    const double* b2 = b1 + ldb;
    const double* b3 = b2 + ldb;
    for (int i = 0; i < m; ++i) {
      const double d0 = a0[i];
      const double d1 = a1[i];
      const double d2 = a2[i];
      const double d3 = a3[i];
      double* ci = c + static_cast<size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) {
        double acc = ci[j];
        acc += d0 * b0[j];
        acc += d1 * b1[j];
        acc += d2 * b2[j];
        acc += d3 * b3[j];
        ci[j] = acc;
      }
    }
  }
  for (; s < r; ++s) {
    const double* as = a + static_cast<size_t>(s) * lda;
    const double* bs = b + static_cast<size_t>(s) * ldb;
    for (int i = 0; i < m; ++i) {
      const double d = as[i];
      double* ci = c + static_cast<size_t>(i) * ldc;
      for (int j = 0; j < n; ++j) ci[j] += d * bs[j];
    }
  }
}

void Gemm(int m, int n, int k, const double* a, int lda, const double* b,
          int ldb, double* c, int ldc) {
  GemmBias(m, n, k, a, lda, b, ldb, nullptr, c, ldc);
}

NETMAX_KERNEL_ISA
void GemmBias(int m, int n, int k, const double* a, int lda, const double* b,
              int ldb, const double* bias, double* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const double* ai = a + static_cast<size_t>(i) * lda;
    double* ci = c + static_cast<size_t>(i) * ldc;
    if (bias) {
      for (int j = 0; j < n; ++j) ci[j] = bias[j];
    } else {
      for (int j = 0; j < n; ++j) ci[j] = 0.0;
    }
    // i-k-j with k unrolled by 8: per element the eight adds are applied in
    // ascending-k sequence, so the sum order equals the naive triple loop.
    int t = 0;
    for (; t + 8 <= k; t += 8) {
      const double x0 = ai[t];
      const double x1 = ai[t + 1];
      const double x2 = ai[t + 2];
      const double x3 = ai[t + 3];
      const double x4 = ai[t + 4];
      const double x5 = ai[t + 5];
      const double x6 = ai[t + 6];
      const double x7 = ai[t + 7];
      const double* b0 = b + static_cast<size_t>(t) * ldb;
      const double* b1 = b0 + ldb;
      const double* b2 = b1 + ldb;
      const double* b3 = b2 + ldb;
      const double* b4 = b3 + ldb;
      const double* b5 = b4 + ldb;
      const double* b6 = b5 + ldb;
      const double* b7 = b6 + ldb;
      for (int j = 0; j < n; ++j) {
        double acc = ci[j];
        acc += x0 * b0[j];
        acc += x1 * b1[j];
        acc += x2 * b2[j];
        acc += x3 * b3[j];
        acc += x4 * b4[j];
        acc += x5 * b5[j];
        acc += x6 * b6[j];
        acc += x7 * b7[j];
        ci[j] = acc;
      }
    }
    for (; t < k; ++t) {
      const double x = ai[t];
      const double* bt = b + static_cast<size_t>(t) * ldb;
      for (int j = 0; j < n; ++j) ci[j] += x * bt[j];
    }
  }
}

void Transpose(int rows, int cols, const double* in, int ldin, double* out,
               int ldout) {
  for (int r = 0; r < rows; ++r) {
    const double* row = in + static_cast<size_t>(r) * ldin;
    for (int c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c) * ldout + r] = row[c];
    }
  }
}

void Gemv(int m, int n, const double* a, int lda, const double* x,
          const double* bias, double* y) {
  int i = 0;
  // Four rows at a time: four independent ascending-j chains.
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + static_cast<size_t>(i) * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    double s0 = bias ? bias[i] : 0.0;
    double s1 = bias ? bias[i + 1] : 0.0;
    double s2 = bias ? bias[i + 2] : 0.0;
    double s3 = bias ? bias[i + 3] : 0.0;
    for (int j = 0; j < n; ++j) {
      const double xj = x[j];
      s0 += a0[j] * xj;
      s1 += a1[j] * xj;
      s2 += a2[j] * xj;
      s3 += a3[j] * xj;
    }
    y[i] = s0;
    y[i + 1] = s1;
    y[i + 2] = s2;
    y[i + 3] = s3;
  }
  for (; i < m; ++i) {
    const double* ai = a + static_cast<size_t>(i) * lda;
    double s = bias ? bias[i] : 0.0;
    for (int j = 0; j < n; ++j) s += ai[j] * x[j];
    y[i] = s;
  }
}

NETMAX_KERNEL_ISA
void AddRowsAccumulate(int r, int n, const double* a, int lda, double* out) {
  for (int s = 0; s < r; ++s) {
    const double* as = a + static_cast<size_t>(s) * lda;
    for (int j = 0; j < n; ++j) out[j] += as[j];
  }
}

}  // namespace netmax::linalg
