#ifndef NETMAX_LINALG_EIGEN_H_
#define NETMAX_LINALG_EIGEN_H_

// Symmetric eigensolvers.
//
// NetMax's communication-policy generation (Algorithm 3) scores each candidate
// policy by the second-largest eigenvalue lambda_2 of the doubly stochastic
// matrix Y_P = E[D^kT D^k]. Y_P is symmetric, so a cyclic Jacobi rotation
// solver is robust and exact enough; a power-iteration variant is provided as
// an independent cross-check for tests.

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace netmax::linalg {

struct EigenDecomposition {
  // Eigenvalues sorted in descending order.
  std::vector<double> eigenvalues;
  // Column c of `eigenvectors` is the unit eigenvector for eigenvalues[c].
  Matrix eigenvectors;
};

// Computes the full eigendecomposition of the symmetric matrix `a` with the
// cyclic Jacobi method. Returns InvalidArgument if `a` is not square, has a
// non-finite entry, or is not symmetric (within `symmetry_tol`).
StatusOr<EigenDecomposition> JacobiEigenSymmetric(const Matrix& a,
                                                  double symmetry_tol = 1e-9);

// Returns all eigenvalues of symmetric `a` in descending order. Runs the same
// Jacobi sweeps as JacobiEigenSymmetric without accumulating eigenvectors, so
// the result equals JacobiEigenSymmetric(a).eigenvalues bit for bit; input
// checks are the same.
StatusOr<std::vector<double>> SymmetricEigenvalues(const Matrix& a);

// Returns the second-largest eigenvalue of symmetric `a` (n >= 2), as
// SymmetricEigenvalues(a)[1].
StatusOr<double> SecondLargestEigenvalue(const Matrix& a);

// Estimates the largest eigenvalue (by absolute value) of symmetric `a` by
// power iteration; `seed` initializes the start vector. Used in tests to
// cross-check Jacobi.
StatusOr<double> PowerIterationLargest(const Matrix& a, int max_iters = 2000,
                                       double tol = 1e-12, uint64_t seed = 7);

// Estimates the second-largest eigenvalue of a symmetric doubly stochastic
// matrix by power iteration on the component orthogonal to the all-ones
// vector (whose eigenvalue is 1). Used in tests to cross-check Jacobi.
StatusOr<double> PowerIterationSecondLargestStochastic(const Matrix& a,
                                                       int max_iters = 4000,
                                                       double tol = 1e-12,
                                                       uint64_t seed = 7);

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_EIGEN_H_
