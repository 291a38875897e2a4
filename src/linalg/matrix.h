#ifndef NETMAX_LINALG_MATRIX_H_
#define NETMAX_LINALG_MATRIX_H_

// Row-major dense matrix of doubles. Sized for the small, dense problems this
// project solves (policy matrices and Y_P matrices of dimension M <= a few
// hundred, simplex tableaus of a few thousand entries) — not a general BLAS.

#include <initializer_list>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"

namespace netmax::linalg {

class Matrix {
 public:
  // Empty 0x0 matrix.
  Matrix() = default;

  // rows x cols matrix filled with `init`.
  Matrix(int rows, int cols, double init = 0.0);

  // Constructs from nested initializer lists; all rows must be equal length.
  // Example: Matrix m({{1.0, 2.0}, {3.0, 4.0}});
  explicit Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) {
    NETMAX_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    NETMAX_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  // Mutable / const view of row `r`.
  std::span<double> Row(int r);
  std::span<const double> Row(int r) const;

  Matrix Transpose() const;

  // Matrix product; requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  // Matrix-vector product; requires cols() == x.size().
  std::vector<double> Apply(std::span<const double> x) const;

  // Sum of the entries of row r / column c.
  double RowSum(int r) const;
  double ColSum(int c) const;

  // True if no entry is NaN or infinite. The three structural checks below
  // all require it: every comparison against NaN is false, so without it a
  // NaN entry would pass them.
  bool IsFinite() const;

  // True if finite and |a(i,j) - a(j,i)| <= tol for all i, j (square
  // matrices only).
  bool IsSymmetric(double tol = 1e-12) const;

  // True if finite and every entry is >= -tol.
  bool IsNonNegative(double tol = 1e-12) const;

  // True if symmetric, non-negative, and every row sums to 1 within tol
  // (hence finite).
  bool IsDoublyStochastic(double tol = 1e-9) const;

  // Max |a(i,j) - b(i,j)|; matrices must have equal shapes.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  const std::vector<double>& data() const { return data_; }

  // Raw row-major storage for kernel-level access (linalg-internal hot loops
  // that must bypass the per-element bounds checks of operator()).
  std::span<double> mutable_data() { return data_; }

  // Checkpoint support: the shape, then the entries. A restore takes the
  // stored shape.
  Status TransferState(StateIo& io);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_MATRIX_H_
