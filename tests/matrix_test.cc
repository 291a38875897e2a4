#include "linalg/matrix.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace netmax::linalg {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerDies) {
  EXPECT_DEATH({ Matrix m({{1.0, 2.0}, {3.0}}); }, "ragged");
}

TEST(MatrixTest, OutOfBoundsDies) {
  Matrix m(2, 2);
  EXPECT_DEATH({ (void)m(2, 0); }, "out of");
  EXPECT_DEATH({ (void)m(0, -1); }, "out of");
}

TEST(MatrixTest, Identity) {
  Matrix eye = Matrix::Identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, Transpose) {
  Matrix m({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(MatrixTest, Multiply) {
  Matrix a({{1.0, 2.0}, {3.0, 4.0}});
  Matrix b({{5.0, 6.0}, {7.0, 8.0}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyByIdentity) {
  Matrix a({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a.Multiply(Matrix::Identity(2)), a), 0.0);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(Matrix::Identity(2).Multiply(a), a), 0.0);
}

TEST(MatrixTest, Apply) {
  Matrix a({{1.0, 2.0}, {3.0, 4.0}});
  const std::vector<double> x = {1.0, -1.0};
  const std::vector<double> y = a.Apply(x);
  EXPECT_EQ(y, (std::vector<double>{-1.0, -1.0}));
}

TEST(MatrixTest, RowAndColSums) {
  Matrix m({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 7.0);
  EXPECT_DOUBLE_EQ(m.ColSum(0), 4.0);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 6.0);
}

TEST(MatrixTest, SymmetryChecks) {
  Matrix sym({{1.0, 2.0}, {2.0, 5.0}});
  Matrix asym({{1.0, 2.0}, {3.0, 5.0}});
  EXPECT_TRUE(sym.IsSymmetric());
  EXPECT_FALSE(asym.IsSymmetric());
  EXPECT_TRUE(asym.IsSymmetric(2.0));  // generous tolerance
  Matrix rect(2, 3);
  EXPECT_FALSE(rect.IsSymmetric());
}

TEST(MatrixTest, NonNegativity) {
  Matrix pos({{0.0, 1.0}, {2.0, 3.0}});
  Matrix neg({{0.0, -1.0}, {2.0, 3.0}});
  EXPECT_TRUE(pos.IsNonNegative());
  EXPECT_FALSE(neg.IsNonNegative());
  EXPECT_TRUE(neg.IsNonNegative(1.5));
}

TEST(MatrixTest, DoublyStochastic) {
  Matrix ds({{0.5, 0.5}, {0.5, 0.5}});
  EXPECT_TRUE(ds.IsDoublyStochastic());
  Matrix rows_only({{0.3, 0.7}, {0.6, 0.4}});  // rows sum to 1, not symmetric
  EXPECT_FALSE(rows_only.IsDoublyStochastic());
  Matrix negative({{1.5, -0.5}, {-0.5, 1.5}});  // sums OK but negative entry
  EXPECT_FALSE(negative.IsDoublyStochastic());
}

TEST(MatrixTest, ChecksRejectNonFiniteEntries) {
  // Every comparison against NaN is false, so a NaN must be rejected
  // explicitly rather than slip through the tolerance tests.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix ds({{0.5, 0.5}, {0.5, 0.5}});
  EXPECT_TRUE(ds.IsFinite());
  for (const double bad : {nan, inf, -inf}) {
    Matrix off_diagonal = ds;  // a symmetric pair of bad entries
    off_diagonal(0, 1) = bad;
    off_diagonal(1, 0) = bad;
    Matrix diagonal = ds;
    diagonal(1, 1) = bad;
    for (const Matrix& m : {off_diagonal, diagonal}) {
      EXPECT_FALSE(m.IsFinite());
      EXPECT_FALSE(m.IsSymmetric());
      EXPECT_FALSE(m.IsSymmetric(1e300));
      EXPECT_FALSE(m.IsNonNegative());
      EXPECT_FALSE(m.IsNonNegative(1e300));
      EXPECT_FALSE(m.IsDoublyStochastic());
      EXPECT_FALSE(m.IsDoublyStochastic(1e300));
    }
  }
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a({{1.0, 2.0}});
  Matrix b({{1.5, 1.0}});
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a, b), 1.0);
}

TEST(MatrixTest, RowSpanMutation) {
  Matrix m(2, 2, 0.0);
  auto row = m.Row(1);
  row[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

}  // namespace
}  // namespace netmax::linalg
