// Verifies the blocked linalg kernels against naive reference loops — exact
// equality, not tolerance: the kernels promise the same left-to-right
// summation order as the textbook loops (the property the workspace training
// path relies on for reproducibility).

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/blas.h"
#include "linalg/matrix.h"

namespace netmax::linalg {
namespace {

std::vector<double> RandomBuffer(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Gaussian();
  return out;
}

TEST(BlasTest, GemmMatchesNaive) {
  for (const auto& [m, n, k] : {std::array{1, 1, 1}, std::array{5, 7, 3},
                                std::array{16, 16, 16},
                                std::array{17, 13, 9}}) {
    const std::vector<double> a = RandomBuffer(static_cast<size_t>(m) * k, 9);
    const std::vector<double> b = RandomBuffer(static_cast<size_t>(k) * n, 10);
    std::vector<double> c(static_cast<size_t>(m) * n, -1.0);
    Gemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double want = 0.0;
        for (int t = 0; t < k; ++t) {
          want += a[static_cast<size_t>(i) * k + t] *
                  b[static_cast<size_t>(t) * n + j];
        }
        EXPECT_EQ(c[static_cast<size_t>(i) * n + j], want);
      }
    }
  }
}

TEST(BlasTest, GemvMatchesNaive) {
  for (const auto& [m, n] : {std::array{1, 1}, std::array{4, 8},
                             std::array{9, 17}, std::array{256, 64}}) {
    const std::vector<double> a = RandomBuffer(static_cast<size_t>(m) * n, 11);
    const std::vector<double> x = RandomBuffer(static_cast<size_t>(n), 12);
    const std::vector<double> bias = RandomBuffer(static_cast<size_t>(m), 13);
    std::vector<double> y(static_cast<size_t>(m), -1.0);
    Gemv(m, n, a.data(), n, x.data(), bias.data(), y.data());
    for (int i = 0; i < m; ++i) {
      double want = bias[static_cast<size_t>(i)];
      for (int j = 0; j < n; ++j) {
        want += a[static_cast<size_t>(i) * n + j] * x[static_cast<size_t>(j)];
      }
      EXPECT_EQ(y[static_cast<size_t>(i)], want);
    }
  }
}

// Gaussian entries with every fourth one a signed zero, so sums that start
// from a seed or 0.0 meet -0.0 products.
std::vector<double> RandomBufferWithZeros(size_t n, uint64_t seed) {
  std::vector<double> out = RandomBuffer(n, seed);
  for (size_t i = 0; i < n; i += 4) out[i] = i % 8 == 0 ? 0.0 : -0.0;
  return out;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(BlasTest, LaneGemmMatchesNaive) {
  // Rows 1-17 cover every block remainder; both stride forms read the same
  // row-major W (out x in) in place, as the layer forward (A = W) and as the
  // delta propagation (A = W^T).
  for (int m = 1; m <= 17; ++m) {
    for (const int k : {1, 7, 8, 33}) {
      for (const bool transposed : {false, true}) {
        for (const bool seeded : {false, true}) {
          const std::vector<double> w =
              RandomBufferWithZeros(static_cast<size_t>(m) * k, 20 + m);
          const std::vector<double> seed =
              RandomBufferWithZeros(static_cast<size_t>(m), 40 + k);
          const std::vector<double> b =
              RandomBufferWithZeros(static_cast<size_t>(k) * kLanes, 60 + k);
          // A (m x k): W stored (m x k), or W^T of a stored (k x m) W.
          const int a_row = transposed ? 1 : k;
          const int a_col = transposed ? m : 1;
          std::vector<double> c(static_cast<size_t>(m) * kLanes, -7.0);
          LaneGemm(m, k, w.data(), a_row, a_col,
                   seeded ? seed.data() : nullptr, b.data(), c.data());
          for (int i = 0; i < m; ++i) {
            for (int v = 0; v < kLanes; ++v) {
              double want = seeded ? seed[static_cast<size_t>(i)] : 0.0;
              for (int t = 0; t < k; ++t) {
                want += w[static_cast<size_t>(i * a_row + t * a_col)] *
                        b[static_cast<size_t>(t * kLanes + v)];
              }
              EXPECT_EQ(Bits(c[static_cast<size_t>(i * kLanes + v)]),
                        Bits(want))
                  << "m=" << m << " k=" << k << " transposed=" << transposed
                  << " seeded=" << seeded << " at (" << i << ", " << v << ")";
            }
          }
        }
      }
    }
  }
}

TEST(BlasTest, LaneGemmCopiesANegativeZeroSeed) {
  // A seed is copied, not added to 0.0: with no contraction terms a -0.0
  // seed stays -0.0, as the bias-first naive loop keeps it.
  const double seed[2] = {-0.0, 0.0};
  double c[2 * kLanes];
  LaneGemm(2, 0, nullptr, 0, 1, seed, nullptr, c);
  for (int v = 0; v < kLanes; ++v) {
    EXPECT_EQ(Bits(c[v]), Bits(-0.0));
    EXPECT_EQ(Bits(c[kLanes + v]), Bits(0.0));
  }
}

TEST(BlasTest, LaneGemmAtBMatchesNaive) {
  // Every sample count, rows 1-17, and column counts on and off the vector
  // width; C is a sub-block of a wider buffer, poisoned beforehand: every
  // element inside must be written, every element past n left alone.
  for (int r = 1; r <= kLanes; ++r) {
    for (int m = 1; m <= 17; ++m) {
      for (const int n : {1, 5, 8, 13, 16, 33}) {
        const int ldc = n + 3;
        const std::vector<double> a =
            RandomBufferWithZeros(static_cast<size_t>(m) * kLanes, 80 + m);
        const std::vector<double> b =
            RandomBufferWithZeros(static_cast<size_t>(r) * n, 100 + n);
        std::vector<double> c(static_cast<size_t>(m) * ldc, -7.0);
        LaneGemmAtB(r, m, n, a.data(), b.data(), n, c.data(), ldc);
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < ldc; ++j) {
            double want = -7.0;
            if (j < n) {
              want = 0.0;
              for (int s = 0; s < r; ++s) {
                want += a[static_cast<size_t>(i * kLanes + s)] *
                        b[static_cast<size_t>(s * n + j)];
              }
            }
            EXPECT_EQ(Bits(c[static_cast<size_t>(i * ldc + j)]), Bits(want))
                << "r=" << r << " m=" << m << " n=" << n << " at (" << i
                << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(BlasTest, LaneRowSumsMatchesNaive) {
  for (int r = 1; r <= kLanes; ++r) {
    for (int m = 1; m <= 17; ++m) {
      const std::vector<double> a =
          RandomBufferWithZeros(static_cast<size_t>(m) * kLanes, 120 + m);
      std::vector<double> out(static_cast<size_t>(m), -7.0);
      LaneRowSums(r, m, a.data(), out.data());
      for (int i = 0; i < m; ++i) {
        double want = 0.0;
        for (int s = 0; s < r; ++s) {
          want += a[static_cast<size_t>(i * kLanes + s)];
        }
        EXPECT_EQ(Bits(out[static_cast<size_t>(i)]), Bits(want))
            << "r=" << r << " m=" << m << " row " << i;
      }
    }
  }
}

TEST(BlasTest, TreeSumScaledMatchesNaiveTree) {
  // Every count up to 17 (each odd-leftover pattern), and widths on and off
  // the vector width and across the kernel's column chunks; the naive tree
  // adds pairs level by level over whole rows.
  for (int count = 1; count <= 17; ++count) {
    for (const int n : {1, 7, 8, 13, 600, 1100}) {
      const int ld = n + 3;
      const std::vector<double> rows = RandomBufferWithZeros(
          static_cast<size_t>(count) * ld, 140 + count);
      std::vector<double> naive = rows;
      int live = count;
      while (live > 1) {
        const int pairs = live / 2;
        for (int i = 0; i < pairs; ++i) {
          for (int j = 0; j < n; ++j) {
            naive[static_cast<size_t>(i * ld + j)] =
                naive[static_cast<size_t>(2 * i * ld + j)] +
                naive[static_cast<size_t>((2 * i + 1) * ld + j)];
          }
        }
        if (live % 2 == 1) {
          for (int j = 0; j < n; ++j) {
            naive[static_cast<size_t>(pairs * ld + j)] =
                naive[static_cast<size_t>((live - 1) * ld + j)];
          }
        }
        live = pairs + live % 2;
      }
      const double scale = 1.0 / 3.0;
      std::vector<double> scratch = rows;
      std::vector<double> out(static_cast<size_t>(n), -7.0);
      TreeSumScaled(count, n, scratch.data(), ld, scale, out.data());
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(Bits(out[static_cast<size_t>(j)]),
                  Bits(naive[static_cast<size_t>(j)] * scale))
            << "count=" << count << " n=" << n << " column " << j;
      }
    }
  }
}

TEST(BlasTest, MatrixMultiplyMatchesKernelAndReference) {
  // Matrix::Multiply now routes through Gemm; it must agree exactly with the
  // seed's naive i-k-j loop (same ascending-k order).
  Rng rng(16);
  Matrix a(13, 9);
  Matrix b(9, 11);
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < 9; ++j) a(i, j) = rng.Gaussian();
  }
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 11; ++j) b(i, j) = rng.Gaussian();
  }
  const Matrix c = a.Multiply(b);
  Matrix want(13, 11);
  for (int i = 0; i < 13; ++i) {
    for (int t = 0; t < 9; ++t) {
      for (int j = 0; j < 11; ++j) want(i, j) += a(i, t) * b(t, j);
    }
  }
  EXPECT_EQ(Matrix::MaxAbsDiff(c, want), 0.0);
}

TEST(BlasTest, MatrixApplyMatchesReference) {
  Rng rng(17);
  Matrix a(7, 30);
  std::vector<double> x(30);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 30; ++j) a(i, j) = rng.Gaussian();
  }
  for (double& v : x) v = rng.Gaussian();
  const std::vector<double> y = a.Apply(x);
  for (int i = 0; i < 7; ++i) {
    double want = 0.0;
    for (int j = 0; j < 30; ++j) want += a(i, j) * x[static_cast<size_t>(j)];
    EXPECT_EQ(y[static_cast<size_t>(i)], want);
  }
}

}  // namespace
}  // namespace netmax::linalg
