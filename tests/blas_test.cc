// Verifies the blocked linalg kernels against naive reference loops — exact
// equality, not tolerance: the kernels promise the same left-to-right
// summation order as the textbook loops (the property the workspace training
// path relies on for reproducibility).

#include <array>
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

TEST(BlasTest, GemmAtBAccumulateMatchesNaive) {
  for (const auto& [r, m, n] : {std::array{1, 1, 1}, std::array{7, 3, 5},
                                std::array{32, 10, 32},
                                std::array{31, 9, 33}}) {
    const std::vector<double> a = RandomBuffer(static_cast<size_t>(r) * m, 6);
    const std::vector<double> b = RandomBuffer(static_cast<size_t>(r) * n, 7);
    std::vector<double> c = RandomBuffer(static_cast<size_t>(m) * n, 8);
    std::vector<double> want = c;
    GemmAtBAccumulate(r, m, n, a.data(), m, b.data(), n, c.data(), n);
    for (int s = 0; s < r; ++s) {
      for (int i = 0; i < m; ++i) {
        const double d = a[static_cast<size_t>(s) * m + i];
        for (int j = 0; j < n; ++j) {
          want[static_cast<size_t>(i) * n + j] +=
              d * b[static_cast<size_t>(s) * n + j];
        }
      }
    }
    for (size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c[i], want[i]) << r << "x" << m << "x" << n << " at " << i;
    }
  }
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

TEST(BlasTest, AddRowsAccumulateMatchesNaive) {
  const int r = 13;
  const int n = 21;
  const std::vector<double> a = RandomBuffer(static_cast<size_t>(r) * n, 14);
  std::vector<double> out = RandomBuffer(static_cast<size_t>(n), 15);
  std::vector<double> want = out;
  AddRowsAccumulate(r, n, a.data(), n, out.data());
  for (int s = 0; s < r; ++s) {
    for (int j = 0; j < n; ++j) {
      want[static_cast<size_t>(j)] += a[static_cast<size_t>(s) * n + j];
    }
  }
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(out[static_cast<size_t>(j)], want[static_cast<size_t>(j)]);
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
