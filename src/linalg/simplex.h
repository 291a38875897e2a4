#ifndef NETMAX_LINALG_SIMPLEX_H_
#define NETMAX_LINALG_SIMPLEX_H_

// Dense two-phase primal simplex solver for small linear programs.
//
// NetMax's policy generation (paper Eq. 14) solves, for every grid point of
// (rho, t_bar), the LP
//     min sum_i p_{i,i}
//     s.t. per-node average iteration time equals M * t_bar      (Eq. 10)
//          p_{i,m} >= alpha*rho*(d_{i,m}+d_{m,i}) for neighbors  (Eq. 11)
//          p_{i,m}  = 0 for non-neighbors                        (Eq. 12)
//          rows of P sum to 1                                    (Eq. 13)
// Every constraint touches a single row of P, so the generator solves it as
// M independent LPs, one per worker i: 1 + deg(i) variables (p_{i,i} and the
// edge probabilities, each bounded above by 1) and 3 + deg(i) rows (Eqs. 10
// and 13 plus one row per upper bound). At M = 32 on a complete graph that is
// 32 variables and 34 rows per LP, a tableau of about 2k cells, where the
// whole-matrix LP has 1,024 variables and 1,088 rows (2.3M cells). A dense
// tableau with Dantzig pricing (falling back to Bland's rule for
// anti-cycling) is simple and fast at the per-worker size.
//
// Conventions:
//  * minimization;
//  * every variable x_j satisfies lower_bounds[j] <= x_j <= upper_bounds[j],
//    with default bounds [0, +inf); lower bounds must be finite;
//  * constraints are rows `coefficients . x (<=|>=|=) rhs`.

#include <limits>
#include <vector>

#include "common/status.h"

namespace netmax::linalg {

enum class LpRelation {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

struct LpConstraint {
  std::vector<double> coefficients;  // length num_vars
  LpRelation relation = LpRelation::kLessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  int num_vars = 0;
  // Objective to minimize; length num_vars.
  std::vector<double> objective;
  std::vector<LpConstraint> constraints;
  // Optional; empty means all zeros / all +inf respectively.
  std::vector<double> lower_bounds;
  std::vector<double> upper_bounds;

  // Appends a constraint. Convenience for building problems incrementally.
  void AddConstraint(std::vector<double> coefficients, LpRelation relation,
                     double rhs);
};

struct LpSolution {
  std::vector<double> x;
  double objective_value = 0.0;
  int iterations = 0;
};

// Solves `problem`. Returns:
//  * the optimum on success,
//  * kInfeasible if no point satisfies the constraints,
//  * kUnbounded if the objective is unbounded below,
//  * kInvalidArgument on malformed input.
StatusOr<LpSolution> SolveLp(const LpProblem& problem);

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

}  // namespace netmax::linalg

#endif  // NETMAX_LINALG_SIMPLEX_H_
