#include "linalg/eigen.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace netmax::linalg {
namespace {

TEST(JacobiTest, DiagonalMatrix) {
  Matrix a({{3.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, 2.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& values = result.value().eigenvalues;
  ASSERT_EQ(values.size(), 3u);
  EXPECT_NEAR(values[0], 3.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], -1.0, 1e-12);
}

TEST(JacobiTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a({{2.0, 1.0}, {1.0, 2.0}});
  auto values = SymmetricEigenvalues(a);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR(values.value()[0], 3.0, 1e-12);
  EXPECT_NEAR(values.value()[1], 1.0, 1e-12);
}

TEST(JacobiTest, EigenvectorsSatisfyDefinition) {
  Matrix a({{4.0, 1.0, 0.5}, {1.0, 3.0, 0.25}, {0.5, 0.25, 2.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& decomp = result.value();
  for (int c = 0; c < 3; ++c) {
    std::vector<double> v(3);
    for (int r = 0; r < 3; ++r) {
      v[static_cast<size_t>(r)] = decomp.eigenvectors(r, c);
    }
    std::vector<double> av = a.Apply(v);
    // A v = lambda v.
    for (int r = 0; r < 3; ++r) {
      EXPECT_NEAR(av[static_cast<size_t>(r)],
                  decomp.eigenvalues[static_cast<size_t>(c)] *
                      v[static_cast<size_t>(r)],
                  1e-9);
    }
    EXPECT_NEAR(Norm(v), 1.0, 1e-9);
  }
}

TEST(JacobiTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(JacobiEigenSymmetric(a).ok());
}

TEST(JacobiTest, RejectsAsymmetric) {
  Matrix a({{1.0, 2.0}, {0.0, 1.0}});
  auto result = JacobiEigenSymmetric(a);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JacobiTest, EveryEntryPointRejectsNonFiniteInput) {
  // A NaN pair used to pass the symmetry check (NaN comparisons are false),
  // run all sweeps, and come back OK with NaN eigenvalues.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    Matrix a = Matrix::Identity(4);
    a(1, 2) = bad;
    a(2, 1) = bad;
    Matrix diagonal = Matrix::Identity(4);
    diagonal(3, 3) = bad;
    for (const Matrix& m : {a, diagonal}) {
      auto decomp = JacobiEigenSymmetric(m);
      ASSERT_FALSE(decomp.ok());
      EXPECT_EQ(decomp.status().code(), StatusCode::kInvalidArgument);
      auto values = SymmetricEigenvalues(m);
      ASSERT_FALSE(values.ok());
      EXPECT_EQ(values.status().code(), StatusCode::kInvalidArgument);
      auto lambda2 = SecondLargestEigenvalue(m);
      ASSERT_FALSE(lambda2.ok());
      EXPECT_EQ(lambda2.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JacobiTest, EigenvaluesOnlyMatchFullDecompositionBitForBit) {
  // SymmetricEigenvalues skips the eigenvector accumulation; the rotations
  // of the work matrix never read the vectors, so the eigenvalues must be
  // the same doubles, in the same order.
  for (const int n : {2, 3, 8, 32}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 100 + static_cast<uint64_t>(n));
      Matrix a(n, n);
      for (int r = 0; r < n; ++r) {
        for (int c = r; c < n; ++c) {
          const double v = rng.Gaussian();
          a(r, c) = v;
          a(c, r) = v;
        }
      }
      auto decomp = JacobiEigenSymmetric(a);
      auto values = SymmetricEigenvalues(a);
      auto lambda2 = SecondLargestEigenvalue(a);
      ASSERT_TRUE(decomp.ok() && values.ok() && lambda2.ok());
      ASSERT_EQ(values->size(), decomp->eigenvalues.size());
      for (size_t i = 0; i < values->size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>((*values)[i]),
                  std::bit_cast<uint64_t>(decomp->eigenvalues[i]))
            << "n=" << n << " seed=" << seed << " i=" << i;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(lambda2.value()),
                std::bit_cast<uint64_t>(decomp->eigenvalues[1]));
    }
  }
}

TEST(JacobiTest, TraceAndEigenvalueSumAgree) {
  Rng rng(42);
  const int n = 8;
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const double v = rng.Gaussian();
      a(r, c) = v;
      a(c, r) = v;
    }
  }
  auto values = SymmetricEigenvalues(a);
  ASSERT_TRUE(values.ok());
  double trace = 0.0;
  for (int i = 0; i < n; ++i) trace += a(i, i);
  double sum = 0.0;
  for (double v : values.value()) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SecondLargestTest, DoublyStochasticCompleteGraphWalk) {
  // Lazy uniform walk on K_n: W = (1/n) * ones. Eigenvalues: 1, 0, ..., 0.
  const int n = 5;
  Matrix w(n, n, 1.0 / n);
  auto lambda2 = SecondLargestEigenvalue(w);
  ASSERT_TRUE(lambda2.ok());
  EXPECT_NEAR(lambda2.value(), 0.0, 1e-12);
}

TEST(SecondLargestTest, RingGossipMatrix) {
  // W = I/2 + (C + C^T)/4 on a ring of n nodes has eigenvalues
  // 1/2 + cos(2 pi k / n)/2.
  const int n = 6;
  Matrix w(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    w(i, i) = 0.5;
    w(i, (i + 1) % n) += 0.25;
    w(i, (i + n - 1) % n) += 0.25;
  }
  auto lambda2 = SecondLargestEigenvalue(w);
  ASSERT_TRUE(lambda2.ok());
  const double expected = 0.5 + 0.5 * std::cos(2.0 * M_PI / n);
  EXPECT_NEAR(lambda2.value(), expected, 1e-10);
}

TEST(SecondLargestTest, NeedsAtLeastTwoRows) {
  Matrix a(1, 1, 1.0);
  EXPECT_FALSE(SecondLargestEigenvalue(a).ok());
}

TEST(PowerIterationTest, MatchesJacobiOnLargest) {
  Rng rng(7);
  const int n = 6;
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const double v = rng.Gaussian();
      a(r, c) = v;
      a(c, r) = v;
    }
  }
  auto jac = SymmetricEigenvalues(a);
  ASSERT_TRUE(jac.ok());
  auto pow = PowerIterationLargest(a);
  ASSERT_TRUE(pow.ok());
  // Power iteration converges to the eigenvalue of largest magnitude.
  double largest_abs = 0.0;
  for (double v : jac.value()) {
    if (std::fabs(v) > std::fabs(largest_abs)) largest_abs = v;
  }
  EXPECT_NEAR(std::fabs(pow.value()), std::fabs(largest_abs), 1e-6);
}

// Property sweep: random symmetric doubly stochastic matrices built as lazy
// random walks; Jacobi's lambda_2 must match deflated power iteration.
class StochasticLambda2Property
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(StochasticLambda2Property, JacobiMatchesPowerIteration) {
  const int n = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  // Build a symmetric non-negative matrix, then make it doubly stochastic by
  // the lazy-walk construction W = I - (L / (max_degree_scale)).
  Matrix s(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double v = rng.Uniform() < 0.6 ? rng.Uniform(0.1, 1.0) : 0.0;
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  double max_row = 0.0;
  for (int i = 0; i < n; ++i) max_row = std::max(max_row, s.RowSum(i));
  if (max_row == 0.0) GTEST_SKIP() << "empty graph";
  Matrix w(n, n, 0.0);
  const double scale = 1.0 / (1.5 * max_row);
  for (int i = 0; i < n; ++i) {
    double off = 0.0;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      w(i, j) = s(i, j) * scale;
      off += w(i, j);
    }
    w(i, i) = 1.0 - off;
  }
  ASSERT_TRUE(w.IsDoublyStochastic(1e-9));

  auto jac = SecondLargestEigenvalue(w);
  ASSERT_TRUE(jac.ok());
  auto pow = PowerIterationSecondLargestStochastic(w);
  ASSERT_TRUE(pow.ok());
  EXPECT_NEAR(jac.value(), pow.value(), 1e-6);
  // lambda_2 of a stochastic matrix is at most 1.
  EXPECT_LE(jac.value(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StochasticLambda2Property,
    ::testing::Combine(::testing::Values(3, 5, 8, 12, 16),
                       ::testing::Values(1ull, 2ull, 3ull)));

}  // namespace
}  // namespace netmax::linalg
