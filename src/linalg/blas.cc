#include "linalg/blas.h"

#include <algorithm>

// Runtime ISA dispatch. GemmBias, whose inner loop is elementwise over
// contiguous memory, is compiled as target clones: the binary stays portable
// (SSE2-baseline x86-64 "default" clone) and picks an AVX2 or AVX-512 clone
// on capable hardware. The lane kernels (LaneGemm, LaneGemmAtB,
// TreeSumScaled) hold their accumulators in vector registers, so each ISA
// gets its own instantiation with that ISA's native vector width (8, 4 or 2
// doubles; see RunNative below): gcc keeps a vector wider than the target's
// registers in memory, and one body cloned for every target would run at
// memory speed on all but AVX-512. The wider code only widens the vectorized
// loops — FP contraction is disabled for this translation unit (see
// CMakeLists.txt: -ffp-contract=off), so no version ever fuses a
// multiply-add: every element sees separate round-to-nearest multiply and add
// in the same order, and all versions produce bit-identical results.
// (Without that flag the AVX-512 code WOULD contract to FMA and change
// low-order bits — verified empirically; do not drop the flag.) The
// dot-product-shaped Gemv stays single-version: its accumulator chains cannot
// widen without reassociating, and the wide codegen for it degrades into
// gather loads. LaneRowSums, one scalar chain per output, stays single too.
// ThreadSanitizer cannot execute ifunc resolvers (they run during dynamic
// relocation, before the TSan runtime initializes, and crash at startup), so
// multiversioning is disabled under TSan builds, and so is the lane kernels'
// dispatch with it; defining NETMAX_KERNEL_ISA empty does the same in any
// build. No result changes: the baseline code is bit-identical to the wide
// versions by construction.
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
#define NETMAX_LANE_DISPATCH 1
#endif
#endif
#endif
#ifndef NETMAX_KERNEL_ISA
#define NETMAX_KERNEL_ISA
#endif

namespace netmax::linalg {

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

namespace {

// The register and memory forms of a native vector of kW doubles: V is what
// the kernels compute on, U the unaligned, may-alias type they load and
// store through. + and * on V are the scalar IEEE-754 operations element by
// element, so a vector accumulator holds exactly the scalar loop's sum in
// every lane. A lane-layout row is kLanes / kW of them.
template <int kW>
struct Native {
  typedef double V __attribute__((vector_size(kW * sizeof(double))));
  typedef double U __attribute__((vector_size(kW * sizeof(double)),
                                  aligned(sizeof(double)), may_alias));
};

// kRows rows of LaneGemm's c from row i on. A block past the last row
// repeats that row in its spare accumulators and stores only the real ones.
// Per row the sum is the seed (copied, so -0.0 stays -0.0), then t
// ascending.
template <int kW, int kRows>
[[gnu::always_inline]] inline void LaneGemmRows(int i, int m, int k,
                                                const double* a, int a_row,
                                                int a_col, const double* seed,
                                                const double* b, double* c) {
  using V = typename Native<kW>::V;
  using U = typename Native<kW>::U;
  constexpr int kParts = kLanes / kW;
  const double* ar[kRows];
  // Row q's lane row is acc[q * kParts, +kParts). (Value-initialized before
  // the seed goes in: gcc 12 otherwise warns that it may be used
  // uninitialized.)
  V acc[kRows * kParts] = {};
  for (int q = 0; q < kRows; ++q) {
    const int row = std::min(i + q, m - 1);
    ar[q] = a + static_cast<ptrdiff_t>(row) * a_row;
    double lane_seed[kLanes];
    std::fill_n(lane_seed, kLanes, seed != nullptr ? seed[row] : 0.0);
    for (int p = 0; p < kParts; ++p) {
      acc[q * kParts + p] = *reinterpret_cast<const U*>(lane_seed + p * kW);
    }
  }
  for (int t = 0; t < k; ++t) {
    const U* bt = reinterpret_cast<const U*>(b + static_cast<ptrdiff_t>(t) *
                                                     kLanes);
    V bv[kParts];
    for (int p = 0; p < kParts; ++p) bv[p] = bt[p];
    const ptrdiff_t at = static_cast<ptrdiff_t>(t) * a_col;
    for (int q = 0; q < kRows; ++q) {
      const double w = ar[q][at];
      for (int p = 0; p < kParts; ++p) acc[q * kParts + p] += bv[p] * w;
    }
  }
  for (int q = 0; q < kRows; ++q) {
    if (i + q >= m) break;
    U* cq = reinterpret_cast<U*>(c + static_cast<ptrdiff_t>(i + q) * kLanes);
    for (int p = 0; p < kParts; ++p) cq[p] = acc[q * kParts + p];
  }
}

struct LaneGemmKernel {
  template <int kW>
  [[gnu::always_inline]] static void Run(int m, int k, const double* a,
                                         int a_row, int a_col,
                                         const double* seed, const double* b,
                                         double* c) {
    // Eight vector accumulators per block (8, 4 or 2 rows): enough chains
    // to hide the add latency. A tail of at most half a block goes in a
    // half block.
    constexpr int kRows = 8 * kW / kLanes;
    int i = 0;
    for (; m - i > kRows / 2; i += kRows) {
      LaneGemmRows<kW, kRows>(i, m, k, a, a_row, a_col, seed, b, c);
    }
    if (i < m) {
      LaneGemmRows<kW, (kRows > 1 ? kRows / 2 : 1)>(i, m, k, a, a_row, a_col,
                                                    seed, b, c);
    }
  }
};

struct LaneGemmAtBKernel {
  template <int kW>
  [[gnu::always_inline]] static void Run(int r, int m, int n,
                                         const double* a, const double* b,
                                         int ldb, double* c, int ldc) {
    // Rows go in pairs, each against four column vectors at a time: eight
    // accumulators share every loaded vector of b, and each starts at 0.0
    // and adds the samples in order. A pair past the last row repeats that
    // row and stores only the real one; columns past the last full vector
    // go one at a time in the same order.
    using V = typename Native<kW>::V;
    using U = typename Native<kW>::U;
    const int n_vec = n - n % kW;
    for (int i = 0; i < m; i += 2) {
      const double* ar[2];
      for (int q = 0; q < 2; ++q) {
        ar[q] = a + static_cast<ptrdiff_t>(std::min(i + q, m - 1)) * kLanes;
      }
      int j = 0;
      for (; j + 4 * kW <= n_vec; j += 4 * kW) {
        V acc[2][4] = {};
        for (int s = 0; s < r; ++s) {
          const U* bs =
              reinterpret_cast<const U*>(b + static_cast<ptrdiff_t>(s) * ldb + j);
          V bv[4];
          for (int v = 0; v < 4; ++v) bv[v] = bs[v];
          for (int q = 0; q < 2; ++q) {
            const double d = ar[q][s];
            for (int v = 0; v < 4; ++v) acc[q][v] += bv[v] * d;
          }
        }
        for (int q = 0; q < 2 && i + q < m; ++q) {
          U* cq =
              reinterpret_cast<U*>(c + static_cast<ptrdiff_t>(i + q) * ldc + j);
          for (int v = 0; v < 4; ++v) cq[v] = acc[q][v];
        }
      }
      for (; j < n_vec; j += kW) {
        V acc[2] = {};
        for (int s = 0; s < r; ++s) {
          const V bv = *reinterpret_cast<const U*>(
              b + static_cast<ptrdiff_t>(s) * ldb + j);
          for (int q = 0; q < 2; ++q) acc[q] += bv * ar[q][s];
        }
        for (int q = 0; q < 2 && i + q < m; ++q) {
          *reinterpret_cast<U*>(c + static_cast<ptrdiff_t>(i + q) * ldc + j) =
              acc[q];
        }
      }
      for (int q = 0; q < 2 && i + q < m; ++q) {
        double* ci = c + static_cast<ptrdiff_t>(i + q) * ldc;
        for (int jj = n_vec; jj < n; ++jj) {
          double acc = 0.0;
          for (int s = 0; s < r; ++s) {
            acc += ar[q][s] * b[static_cast<ptrdiff_t>(s) * ldb + jj];
          }
          ci[jj] = acc;
        }
      }
    }
  }
};

struct TreeSumScaledKernel {
  template <int kW>
  [[gnu::always_inline]] static void Run(int count, int n, double* rows,
                                         int ld, double scale, double* out) {
    // Column chunks small enough that a chunk of every row stays in L1
    // across the tree's levels; the last level's row is scaled into `out`
    // while it is still there.
    using U = typename Native<kW>::U;
    constexpr int kChunk = 512;
    for (int lo = 0; lo < n; lo += kChunk) {
      const int hi = std::min(n, lo + kChunk);
      const int hi_vec = hi - (hi - lo) % kW;
      int live = count;
      while (live > 1) {
        const int pairs = live / 2;
        for (int i = 0; i < pairs; ++i) {
          double* dst = rows + static_cast<ptrdiff_t>(i) * ld;
          const double* x = rows + static_cast<ptrdiff_t>(2 * i) * ld;
          const double* y = x + ld;
          int j = lo;
          for (; j < hi_vec; j += kW) {
            *reinterpret_cast<U*>(dst + j) = *reinterpret_cast<const U*>(x + j) +
                                             *reinterpret_cast<const U*>(y + j);
          }
          for (; j < hi; ++j) dst[j] = x[j] + y[j];
        }
        if (live % 2 == 1) {
          const double* last = rows + static_cast<ptrdiff_t>(live - 1) * ld;
          std::copy(last + lo, last + hi,
                    rows + static_cast<ptrdiff_t>(pairs) * ld + lo);
        }
        live = pairs + live % 2;
      }
      int j = lo;
      for (; j < hi_vec; j += kW) {
        *reinterpret_cast<U*>(out + j) =
            *reinterpret_cast<const U*>(rows + j) * scale;
      }
      for (; j < hi; ++j) out[j] = rows[j] * scale;
    }
  }
};

// Each kernel's instantiation for one native width, compiled for the ISA
// that has it. The kernels' Run is always inlined, so its vector code is
// generated under the caller's target.
#if defined(NETMAX_LANE_DISPATCH)
template <typename Kernel, typename... Args>
__attribute__((target("avx512f"))) void RunAvx512(Args... args) {
  Kernel::template Run<8>(args...);
}
template <typename Kernel, typename... Args>
__attribute__((target("avx2"))) void RunAvx2(Args... args) {
  Kernel::template Run<4>(args...);
}

// The widest native vector this CPU supports, in doubles; decided once.
int NativeWidth() {
  static const int width = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) return 8;
    if (__builtin_cpu_supports("avx2")) return 4;
    return 2;
  }();
  return width;
}
#endif

template <typename Kernel, typename... Args>
void RunNative(Args... args) {
#if defined(NETMAX_LANE_DISPATCH)
  switch (NativeWidth()) {
    case 8:
      return RunAvx512<Kernel>(args...);
    case 4:
      return RunAvx2<Kernel>(args...);
  }
#endif
  Kernel::template Run<2>(args...);
}

}  // namespace

void LaneGemm(int m, int k, const double* a, int a_row, int a_col,
              const double* seed, const double* b, double* c) {
  RunNative<LaneGemmKernel>(m, k, a, a_row, a_col, seed, b, c);
}

void LaneGemmAtB(int r, int m, int n, const double* a, const double* b,
                 int ldb, double* c, int ldc) {
  RunNative<LaneGemmAtBKernel>(r, m, n, a, b, ldb, c, ldc);
}

void LaneRowSums(int r, int m, const double* a, double* out) {
  for (int i = 0; i < m; ++i) {
    const double* ai = a + static_cast<ptrdiff_t>(i) * kLanes;
    double acc = 0.0;
    for (int s = 0; s < r; ++s) acc += ai[s];
    out[i] = acc;
  }
}

void TreeSumScaled(int count, int n, double* rows, int ld, double scale,
                   double* out) {
  RunNative<TreeSumScaledKernel>(count, n, rows, ld, scale, out);
}

}  // namespace netmax::linalg
