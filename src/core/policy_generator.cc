#include "core/policy_generator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/eigen.h"
#include "linalg/simplex.h"

namespace netmax::core {
namespace {

// Numerical floor below which lambda_2 is treated as "converges in one step".
constexpr double kLambdaFloor = 1e-12;

}  // namespace

PolicyGenerator::PolicyGenerator(net::Topology topology,
                                 PolicyGeneratorOptions options)
    : topology_(std::move(topology)), options_(options) {
  NETMAX_CHECK_GT(options_.alpha, 0.0);
  NETMAX_CHECK_GE(options_.outer_rounds, 1);
  NETMAX_CHECK_GE(options_.inner_rounds, 1);
  NETMAX_CHECK(topology_.IsConnected())
      << "Assumption 1 requires a connected graph";
}

namespace {

// Eq. (11) lower bound for an edge probability: 2*alpha*rho (both indicators
// are 1 on an undirected edge) made strict by the margin. In averaging mode
// the update coefficient does not depend on p, so only the margin is needed
// to keep Y_P's off-diagonals positive (irreducibility, Lemma 3).
double EdgeLowerBound(const PolicyGeneratorOptions& options, double rho) {
  if (options.mode == PolicyGeneratorOptions::Mode::kAveraging) {
    return kProbabilityMargin;
  }
  return 2.0 * options.alpha * rho + kProbabilityMargin;
}

}  // namespace

std::pair<double, double> PolicyGenerator::FeasibleStepTimeInterval(
    double rho, const linalg::Matrix& iteration_times) const {
  const int n = topology_.num_nodes();
  const double lb = EdgeLowerBound(options_, rho);
  double lower = 0.0;   // max over i of (1/M) sum_m t_im * lb   (Eq. 26)
  double upper = std::numeric_limits<double>::infinity();  // Eq. 28
  for (int i = 0; i < n; ++i) {
    double sum_t = 0.0;
    double max_t = 0.0;
    for (int m : topology_.Neighbors(i)) {
      const double t = iteration_times(i, m);
      sum_t += t;
      max_t = std::max(max_t, t);
    }
    lower = std::max(lower, lb * sum_t / static_cast<double>(n));
    upper = std::min(upper, max_t / static_cast<double>(n));
  }
  return {lower, upper};
}

StatusOr<CommunicationPolicy> PolicyGenerator::SolvePolicyLp(
    double rho, double t_bar, const linalg::Matrix& iteration_times) const {
  const int n = topology_.num_nodes();
  const double lb = EdgeLowerBound(options_, rho);

  // Every constraint and the objective touch one row of P only, so Eq. (14)
  // splits into n independent LPs, one per worker i, over the variables
  // [p_{i,i}, p_{i,m} for m in Neighbors(i)] (see the header comment).
  linalg::Matrix p(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& neighbors = topology_.Neighbors(i);
    const int num_vars = 1 + static_cast<int>(neighbors.size());

    linalg::LpProblem lp;
    lp.num_vars = num_vars;
    lp.objective.assign(static_cast<size_t>(num_vars), 0.0);
    lp.objective[0] = 1.0;
    lp.lower_bounds.assign(static_cast<size_t>(num_vars), lb);
    lp.lower_bounds[0] = 0.0;
    lp.upper_bounds.assign(static_cast<size_t>(num_vars), 1.0);

    // Eq. (10): sum_m t_{i,m} p_{i,m} = M * t_bar.
    std::vector<double> times(static_cast<size_t>(num_vars), 0.0);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      times[k + 1] = iteration_times(i, neighbors[k]);
    }
    lp.AddConstraint(std::move(times), linalg::LpRelation::kEqual,
                     static_cast<double>(n) * t_bar);
    // Eq. (13): row i of P sums to 1.
    lp.AddConstraint(std::vector<double>(static_cast<size_t>(num_vars), 1.0),
                     linalg::LpRelation::kEqual, 1.0);

    StatusOr<linalg::LpSolution> solution = linalg::SolveLp(lp);
    if (!solution.ok()) return solution.status();

    p(i, i) = std::max(0.0, solution->x[0]);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      p(i, neighbors[k]) = std::max(0.0, solution->x[k + 1]);
    }
    // Renormalize away simplex round-off so the row sums to exactly 1.
    const double row_sum = p.RowSum(i);
    NETMAX_CHECK_GT(row_sum, 0.0);
    for (int m = 0; m < n; ++m) p(i, m) /= row_sum;
  }
  return CommunicationPolicy(std::move(p));
}

StatusOr<double> PolicyGenerator::Lambda2(const CommunicationPolicy& policy,
                                          double rho) const {
  // Any feasible policy equalizes average iteration times, so p_i = 1/M
  // (Lemma 1).
  const int n = topology_.num_nodes();
  std::vector<double> uniform(static_cast<size_t>(n),
                              1.0 / static_cast<double>(n));
  StatusOr<linalg::Matrix> y =
      options_.mode == PolicyGeneratorOptions::Mode::kAveraging
          ? BuildAveragingY(policy, topology_, kAveragingWeight, uniform)
          : BuildNetMaxY(policy, topology_, options_.alpha, rho, uniform);
  if (!y.ok()) return y.status();
  return linalg::SecondLargestEigenvalue(y.value());
}

StatusOr<PolicyGenerator::Candidate> PolicyGenerator::EvaluateGridPoint(
    double rho, double t_bar, const linalg::Matrix& iteration_times) const {
  StatusOr<CommunicationPolicy> policy =
      SolvePolicyLp(rho, t_bar, iteration_times);
  if (!policy.ok()) return policy.status();
  StatusOr<double> lambda2 = Lambda2(policy.value(), rho);
  if (!lambda2.ok()) return lambda2.status();
  const double l2 = lambda2.value();
  if (l2 >= 1.0 - kLambdaFloor) {
    return InfeasibleError("no contraction at this grid point");
  }
  // T_conv = t_bar * ln(eps) / ln(lambda2); for lambda2 <= 0 consensus
  // mixes in a single step, so t_bar itself is the cost.
  const double t_convergence =
      l2 <= kLambdaFloor ? t_bar
                         : t_bar * std::log(kConvergenceEpsilon) / std::log(l2);
  return Candidate{std::move(policy.value()), rho, l2, t_bar, t_convergence};
}

StatusOr<GeneratedPolicy> PolicyGenerator::Generate(
    const linalg::Matrix& iteration_times, ThreadPool* pool) const {
  const int n = topology_.num_nodes();
  if (iteration_times.rows() != n || iteration_times.cols() != n) {
    return InvalidArgumentError("iteration-time matrix has wrong shape");
  }
  for (int i = 0; i < n; ++i) {
    for (int m : topology_.Neighbors(i)) {
      const double t = iteration_times(i, m);
      if (!(t > 0.0) || !std::isfinite(t)) {
        return InvalidArgumentError(
            "iteration time for edge (" + std::to_string(i) + "," +
            std::to_string(m) + ") must be finite and positive");
      }
    }
  }

  // Outer loop over rho (Appendix A gives rho in (0, 0.5/alpha]). On a
  // heterogeneous network only small rho values are feasible, because
  // Eq. (11) forces 2*alpha*rho of probability mass onto every (possibly very
  // slow) link; a grid over (0, 0.5/alpha] can then miss the feasible region
  // entirely. Since L(rho) of Eq. (26) is linear in rho and U is constant,
  // the largest feasible rho has the closed form
  //   (2*alpha*rho_max + margin) * max_i sum_m t_im / M = U,
  // so we place the K grid points over (0, rho_max] instead.
  const bool averaging =
      options_.mode == PolicyGeneratorOptions::Mode::kAveraging;
  double rho_max = 0.5 / options_.alpha;
  if (!averaging) {
    const int n = topology_.num_nodes();
    double max_row_time = 0.0;
    double upper = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      double sum_t = 0.0;
      double max_t = 0.0;
      for (int m : topology_.Neighbors(i)) {
        sum_t += iteration_times(i, m);
        max_t = std::max(max_t, iteration_times(i, m));
      }
      max_row_time = std::max(max_row_time, sum_t);
      upper = std::min(upper, max_t);
    }
    const double rho_feasible =
        (upper / max_row_time - kProbabilityMargin) / (2.0 * options_.alpha);
    if (rho_feasible <= 0.0) {
      return InfeasibleError("no rho admits a feasible policy");
    }
    rho_max = std::min(rho_max, rho_feasible);
  }

  // Flatten the (rho, t_bar) search into independent grid points. The
  // Appendix-A feasible interval is cheap and computed up front per rho; the
  // per-point LP solve + lambda_2 scoring dominates and is a pure function of
  // (rho, t_bar), so the points fan out across the pool.
  const int rounds = averaging ? 1 : options_.outer_rounds;
  const double rho_delta = rho_max / static_cast<double>(rounds);
  const int inner = options_.inner_rounds;
  struct GridPoint {
    bool feasible = false;
    double rho = 0.0;
    double t_bar = 0.0;
  };
  std::vector<GridPoint> grid(static_cast<size_t>(rounds) *
                              static_cast<size_t>(inner));
  for (int k = 1; k <= rounds; ++k) {
    const double rho = averaging ? 0.0 : rho_delta * static_cast<double>(k);
    const auto [lower, upper] = FeasibleStepTimeInterval(rho, iteration_times);
    if (!(lower <= upper)) continue;  // this rho admits no feasible t_bar
    const double delta = (upper - lower) / static_cast<double>(inner);
    for (int r = 1; r <= inner; ++r) {
      GridPoint& point =
          grid[static_cast<size_t>(k - 1) * static_cast<size_t>(inner) +
               static_cast<size_t>(r - 1)];
      point.feasible = true;
      point.rho = rho;
      point.t_bar = lower + delta * static_cast<double>(r);
    }
  }

  std::vector<std::optional<Candidate>> candidates(grid.size());
  const auto evaluate = [&](int g) {
    const GridPoint& point = grid[static_cast<size_t>(g)];
    if (!point.feasible) return;
    StatusOr<Candidate> candidate =
        EvaluateGridPoint(point.rho, point.t_bar, iteration_times);
    if (candidate.ok()) {
      candidates[static_cast<size_t>(g)] = std::move(candidate.value());
    }
  };
  if (pool != nullptr && grid.size() > 1) {
    ParallelFor(*pool, static_cast<int>(grid.size()), evaluate);
  } else {
    for (int g = 0; g < static_cast<int>(grid.size()); ++g) evaluate(g);
  }

  // Deterministic argmin regardless of evaluation order: strict less-than
  // with the lowest grid index winning ties — exactly the first-wins
  // selection of the original nested (outer rho, inner t_bar) loops.
  std::optional<size_t> best;
  for (size_t g = 0; g < candidates.size(); ++g) {
    if (!candidates[g].has_value()) continue;
    if (!best.has_value() ||
        candidates[g]->t_convergence < candidates[*best]->t_convergence) {
      best = g;
    }
  }
  if (!best.has_value()) return InfeasibleError("no feasible policy found");

  Candidate& winner = *candidates[*best];
  GeneratedPolicy out{std::move(winner.policy), winner.rho, winner.lambda2,
                      winner.t_bar, winner.t_convergence};
  return out;
}

}  // namespace netmax::core
