#ifndef NETMAX_CORE_POLICY_GENERATOR_H_
#define NETMAX_CORE_POLICY_GENERATOR_H_

// Communication-policy generation (paper Algorithm 3).
//
// Searches K values of rho in (0, 0.5/alpha] (outer loop) and, per rho,
// R values of the global average step time t_bar in the feasible interval
// [L, U] of Appendix A (inner loop). Every grid point solves the LP of
// Eq. (14):
//     min sum_i p_{i,i}
//     s.t. sum_m t_{i,m} p_{i,m} d_{i,m} = M * t_bar   for all i   (Eq. 10)
//          p_{i,m} >= alpha*rho*(d_{i,m}+d_{m,i})      on edges    (Eq. 11)
//          p_{i,m} = 0 off edges, rows sum to 1                    (12, 13)
// then scores the candidate by T_conv = t_bar * ln(eps) / ln(lambda_2(Y_P))
// and returns the best policy found.
//
// Eq. (14) is solved one worker at a time. The objective and every
// constraint involve only row i of P, so the whole-matrix simplex tableau is
// block-diagonal with one block per worker: a pivot in block i changes no
// other block's rows or reduced costs, and Dantzig pricing (lowest-index
// argmin) restricted to one block is that block's own argmin. Each worker's
// LP, with variables [p_{i,i}, p_{i,m} for m in Neighbors(i) ascending], the
// same bounds and the same row order, therefore takes the same pivots in the
// same order and yields the same bits as the whole-matrix solve. The solves
// differ in two places only, neither of which decides a result on any input
// the reference test sweeps (tests/policy_reference_test.cc):
//  * the 1e-7 phase-1 infeasibility tolerance applies to each worker's
//    residual instead of to their sum, so a grid point whose workers each
//    miss feasibility by at most 1e-7, but together by more, is accepted;
//  * the simplex's Bland-rule switch and iteration cap are sized by each
//    worker's LP instead of by the whole matrix.
//
// The same machinery generates policies for pairwise-averaging gossip
// (Section III-D extension, e.g. AD-PSGD + Monitor) by swapping the Y matrix
// construction and the Eq. (11) lower bound.

#include <vector>

#include "common/status.h"
#include "core/policy.h"
#include "linalg/matrix.h"
#include "net/topology.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::core {

// eps of constraint (9): lambda^k <= eps defines "converged".
inline constexpr double kConvergenceEpsilon = 0.01;
// Strictness margin added to the Eq. (11) lower bound so the inequality is
// strict and gamma stays bounded.
inline constexpr double kProbabilityMargin = 1e-4;
// Averaging weight of Mode::kAveraging (AD-PSGD's 1/2).
inline constexpr double kAveragingWeight = 0.5;

struct PolicyGeneratorOptions {
  // SGD learning rate alpha (bounds rho's feasible interval).
  double alpha = 0.1;
  // K: number of rho values searched.
  int outer_rounds = 8;
  // R: number of t_bar values searched per rho.
  int inner_rounds = 8;
  // Consensus update family: kConsensus scores candidates with NetMax's Y
  // (coefficient alpha*rho/p); kAveraging with the fixed-weight gossip Y
  // (Section III-D), where rho plays no role in the update and the Eq. (11)
  // bound degenerates to the margin alone.
  enum class Mode { kConsensus, kAveraging };
  Mode mode = Mode::kConsensus;
};

struct GeneratedPolicy {
  CommunicationPolicy policy;
  // rho chosen by the outer loop (meaningful for Mode::kConsensus).
  double rho = 0.0;
  // Second-largest eigenvalue of Y_P for the chosen policy.
  double lambda2 = 0.0;
  // t_bar: the global average step time of the chosen grid point (seconds).
  double average_step_seconds = 0.0;
  // The minimized objective T_conv = t_bar * ln(eps)/ln(lambda2) (seconds).
  double expected_convergence_seconds = 0.0;
};

class PolicyGenerator {
 public:
  PolicyGenerator(net::Topology topology, PolicyGeneratorOptions options);

  // Runs Algorithm 3 on the measured iteration-time matrix [t_{i,m}]
  // (seconds; only entries on edges are read; all edge entries must be
  // positive). Returns kInfeasible if no grid point admits a feasible LP.
  //
  // The (rho, t_bar) grid points are independent LP solves; when `pool` is
  // non-null they fan out across it. The selected policy is identical either
  // way: candidates are scored serially with the argmin tie broken toward the
  // lowest grid index (outer-then-inner order), matching the serial loops.
  StatusOr<GeneratedPolicy> Generate(const linalg::Matrix& iteration_times,
                                     ThreadPool* pool = nullptr) const;

  const PolicyGeneratorOptions& options() const { return options_; }
  const net::Topology& topology() const { return topology_; }

  // Feasible t_bar interval [L, U] for a given rho (Appendix A, Eqs. 25-28).
  // L > U means this rho admits no feasible policy.
  std::pair<double, double> FeasibleStepTimeInterval(
      double rho, const linalg::Matrix& iteration_times) const;

 private:
  struct Candidate {
    CommunicationPolicy policy;
    double rho;
    double lambda2;
    double t_bar;
    double t_convergence;
  };

  // Evaluates one grid point (fixed rho and t_bar): LP solve + lambda_2
  // scoring. Pure function of its arguments, safe to run concurrently.
  StatusOr<Candidate> EvaluateGridPoint(
      double rho, double t_bar, const linalg::Matrix& iteration_times) const;

  // Solves the LP of Eq. (14) for fixed (rho, t_bar), one worker's row of P
  // at a time.
  StatusOr<CommunicationPolicy> SolvePolicyLp(
      double rho, double t_bar, const linalg::Matrix& iteration_times) const;

  // Scores a feasible policy: computes lambda_2 of the mode's Y matrix.
  StatusOr<double> Lambda2(const CommunicationPolicy& policy, double rho) const;

  net::Topology topology_;
  PolicyGeneratorOptions options_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_POLICY_GENERATOR_H_
