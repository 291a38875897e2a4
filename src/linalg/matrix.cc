#include "linalg/matrix.h"

#include <cmath>

#include "linalg/blas.h"

namespace netmax::linalg {

Matrix::Matrix(int rows, int cols, double init)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), init) {
  NETMAX_CHECK_GE(rows, 0);
  NETMAX_CHECK_GE(cols, 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_) * cols_);
  for (const auto& row : rows) {
    NETMAX_CHECK_EQ(static_cast<int>(row.size()), cols_)
        << "ragged initializer";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::span<double> Matrix::Row(int r) {
  NETMAX_CHECK(r >= 0 && r < rows_);
  return {data_.data() + static_cast<size_t>(r) * cols_,
          static_cast<size_t>(cols_)};
}

std::span<const double> Matrix::Row(int r) const {
  NETMAX_CHECK(r >= 0 && r < rows_);
  return {data_.data() + static_cast<size_t>(r) * cols_,
          static_cast<size_t>(cols_)};
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  NETMAX_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  Gemm(rows_, other.cols_, cols_, data_.data(), cols_, other.data_.data(),
       other.cols_, out.data_.data(), out.cols_);
  return out;
}

std::vector<double> Matrix::Apply(std::span<const double> x) const {
  NETMAX_CHECK_EQ(static_cast<int>(x.size()), cols_);
  std::vector<double> out(static_cast<size_t>(rows_), 0.0);
  Gemv(rows_, cols_, data_.data(), cols_, x.data(), nullptr, out.data());
  return out;
}

double Matrix::RowSum(int r) const {
  double acc = 0.0;
  for (double v : Row(r)) acc += v;
  return acc;
}

double Matrix::ColSum(int c) const {
  NETMAX_CHECK(c >= 0 && c < cols_);
  double acc = 0.0;
  for (int r = 0; r < rows_; ++r) acc += (*this)(r, c);
  return acc;
}

bool Matrix::IsFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_ || !IsFinite()) return false;
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

bool Matrix::IsNonNegative(double tol) const {
  if (!IsFinite()) return false;
  for (double v : data_) {
    if (v < -tol) return false;
  }
  return true;
}

bool Matrix::IsDoublyStochastic(double tol) const {
  if (rows_ != cols_) return false;
  if (!IsSymmetric(tol)) return false;
  if (!IsNonNegative(tol)) return false;
  for (int r = 0; r < rows_; ++r) {
    if (std::fabs(RowSum(r) - 1.0) > tol) return false;
  }
  return true;
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  NETMAX_CHECK_EQ(a.rows_, b.rows_);
  NETMAX_CHECK_EQ(a.cols_, b.cols_);
  double best = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    best = std::max(best, std::fabs(a.data_[i] - b.data_[i]));
  }
  return best;
}

Status Matrix::TransferState(StateIo& io) {
  NETMAX_RETURN_IF_ERROR(io(rows_, cols_));
  if (io.restoring()) {
    if (rows_ < 0 || cols_ < 0) {
      return InvalidArgumentError("checkpointed matrix has negative shape");
    }
    data_.assign(static_cast<size_t>(rows_) * static_cast<size_t>(cols_), 0.0);
  }
  return io(std::span<double>(data_));
}

}  // namespace netmax::linalg
