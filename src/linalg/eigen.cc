#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/random.h"
#include "linalg/vector_ops.h"

namespace netmax::linalg {
namespace {

// JacobiEigenSymmetric's default symmetry tolerance, which
// SymmetricEigenvalues shares.
constexpr double kSymmetryTol = 1e-9;

// Sum of squares of off-diagonal entries.
double OffDiagonalNorm(const Matrix& a) {
  const int n = a.rows();
  const double* data = a.data().data();
  double acc = 0.0;
  for (int r = 0; r < n; ++r) {
    const double* row = data + static_cast<size_t>(r) * n;
    for (int c = 0; c < n; ++c) {
      if (r != c) acc += row[c] * row[c];
    }
  }
  return acc;
}

// Shared input check of every Jacobi entry point: square, finite (a NaN
// would otherwise run all sweeps and come back as a NaN eigenvalue), and
// symmetric within `symmetry_tol`.
Status ValidateSymmetric(const Matrix& a, double symmetry_tol,
                         const char* caller) {
  if (a.rows() != a.cols()) {
    return InvalidArgumentError(std::string(caller) + ": matrix not square");
  }
  if (!a.IsFinite()) {
    return InvalidArgumentError(std::string(caller) +
                                ": matrix has a non-finite entry");
  }
  if (!a.IsSymmetric(symmetry_tol)) {
    return InvalidArgumentError(std::string(caller) + ": matrix not symmetric");
  }
  return Status::Ok();
}

// Cyclic Jacobi sweeps shared by every entry point: rotates `work` in place
// until its off-diagonal mass converges, accumulating the rotations into
// `vectors` when it is non-null. The rotations of `work` never read
// `vectors`, so skipping it leaves the eigenvalues bit-identical. Returns the
// diagonal indices of `work` sorted by descending eigenvalue.
std::vector<int> JacobiSweeps(Matrix& work, Matrix* vectors) {
  const int n = work.rows();
  // The rotation loops touch every element of two rows/columns per (p, q)
  // pair; raw row-major access keeps them branch-free (operator() bounds
  // checks would dominate the sweep).
  double* wd = work.mutable_data().data();
  double* vd = vectors != nullptr ? vectors->mutable_data().data() : nullptr;

  constexpr int kMaxSweeps = 100;
  constexpr double kConvergence = 1e-22;  // off-diagonal Frobenius^2 target
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (OffDiagonalNorm(work) < kConvergence) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = wd[static_cast<size_t>(p) * n + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = wd[static_cast<size_t>(p) * n + p];
        const double aqq = wd[static_cast<size_t>(q) * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        // t = sign(theta) / (|theta| + sqrt(theta^2 + 1)) is the smaller root,
        // which keeps rotations small and the process stable.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation J(p, q, theta) on both sides of `work` and
        // accumulate it into `vectors` when requested.
        for (int k = 0; k < n; ++k) {
          double* row = wd + static_cast<size_t>(k) * n;
          const double akp = row[p];
          const double akq = row[q];
          row[p] = c * akp - s * akq;
          row[q] = s * akp + c * akq;
        }
        double* wp = wd + static_cast<size_t>(p) * n;
        double* wq = wd + static_cast<size_t>(q) * n;
        for (int k = 0; k < n; ++k) {
          const double apk = wp[k];
          const double aqk = wq[k];
          wp[k] = c * apk - s * aqk;
          wq[k] = s * apk + c * aqk;
        }
        if (vd == nullptr) continue;
        for (int k = 0; k < n; ++k) {
          double* row = vd + static_cast<size_t>(k) * n;
          const double vkp = row[p];
          const double vkq = row[q];
          row[p] = c * vkp - s * vkq;
          row[q] = s * vkp + c * vkq;
        }
      }
    }
  }

  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return work(x, x) > work(y, y); });
  return order;
}

}  // namespace

StatusOr<EigenDecomposition> JacobiEigenSymmetric(const Matrix& a,
                                                  double symmetry_tol) {
  Status valid = ValidateSymmetric(a, symmetry_tol, "JacobiEigenSymmetric");
  if (!valid.ok()) return valid;
  const int n = a.rows();
  Matrix work = a;
  Matrix vectors = Matrix::Identity(n);
  const std::vector<int> order = JacobiSweeps(work, &vectors);

  // Collect eigenvalues in descending order, permuting eigenvector columns.
  EigenDecomposition out;
  out.eigenvalues.resize(static_cast<size_t>(n));
  out.eigenvectors = Matrix(n, n);
  for (int c = 0; c < n; ++c) {
    const int source = order[static_cast<size_t>(c)];
    out.eigenvalues[static_cast<size_t>(c)] = work(source, source);
    for (int r = 0; r < n; ++r) {
      out.eigenvectors(r, c) = vectors(r, order[static_cast<size_t>(c)]);
    }
  }
  return out;
}

StatusOr<std::vector<double>> SymmetricEigenvalues(const Matrix& a) {
  Status valid = ValidateSymmetric(a, kSymmetryTol, "SymmetricEigenvalues");
  if (!valid.ok()) return valid;
  Matrix work = a;
  const std::vector<int> order = JacobiSweeps(work, nullptr);
  std::vector<double> values(order.size());
  for (size_t c = 0; c < order.size(); ++c) {
    values[c] = work(order[c], order[c]);
  }
  return values;
}

StatusOr<double> SecondLargestEigenvalue(const Matrix& a) {
  if (a.rows() < 2) {
    return InvalidArgumentError("SecondLargestEigenvalue: need n >= 2");
  }
  StatusOr<std::vector<double>> values = SymmetricEigenvalues(a);
  if (!values.ok()) return values.status();
  return values.value()[1];
}

StatusOr<double> PowerIterationLargest(const Matrix& a, int max_iters,
                                       double tol, uint64_t seed) {
  if (a.rows() != a.cols() || a.rows() == 0) {
    return InvalidArgumentError("PowerIterationLargest: matrix not square");
  }
  const int n = a.rows();
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian();
  double lambda = 0.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<double> w = a.Apply(v);
    const double norm = Norm(w);
    if (norm == 0.0) return 0.0;
    Scale(1.0 / norm, w);
    const double next = Dot(w, a.Apply(w));
    const bool converged = std::fabs(next - lambda) < tol;
    lambda = next;
    v = std::move(w);
    if (converged && iter > 2) break;
  }
  return lambda;
}

StatusOr<double> PowerIterationSecondLargestStochastic(const Matrix& a,
                                                       int max_iters,
                                                       double tol,
                                                       uint64_t seed) {
  if (!a.IsDoublyStochastic(1e-6)) {
    return InvalidArgumentError(
        "PowerIterationSecondLargestStochastic: matrix is not symmetric "
        "doubly stochastic");
  }
  const int n = a.rows();
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian();

  auto deflate = [&](std::vector<double>& x) {
    // Remove the component along the all-ones eigenvector (eigenvalue 1).
    double mean = 0.0;
    for (double e : x) mean += e;
    mean /= static_cast<double>(n);
    for (double& e : x) e -= mean;
  };

  deflate(v);
  double lambda = 0.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    std::vector<double> w = a.Apply(v);
    deflate(w);
    const double norm = Norm(w);
    if (norm < 1e-300) return 0.0;
    Scale(1.0 / norm, w);
    std::vector<double> aw = a.Apply(w);
    deflate(aw);
    const double next = Dot(w, aw);
    const bool converged = std::fabs(next - lambda) < tol;
    lambda = next;
    v = std::move(w);
    if (converged && iter > 2) break;
  }
  return lambda;
}

}  // namespace netmax::linalg
