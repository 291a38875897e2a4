#ifndef NETMAX_TESTS_REFERENCE_IMPLS_H_
#define NETMAX_TESTS_REFERENCE_IMPLS_H_

// Test-only naive reference implementations, retained verbatim so tests can
// certify that the optimized production paths reproduce them:
//  * ml::reference — the seed's per-sample, allocation-heavy formulations of
//    LossAndGradient (to 1e-12; in practice bit for bit — the kernels
//    preserve summation order);
//  * core::reference — Algorithm 3 policy generation as one whole-matrix
//    Eq. (14) LP per grid point (with its p <= 1 bound rows), lambda_2 read
//    off the full JacobiEigenSymmetric decomposition, and the serial
//    first-wins argmin (bit for bit);
//  * net::reference — the sorted-vector event queue the golden traces were
//    generated under, the pop-order oracle for net::EventQueue.
// Not built into any library: production code must never call these.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/policy.h"
#include "core/policy_generator.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simplex.h"
#include "ml/conv_net.h"
#include "ml/dataset.h"
#include "ml/linear_model.h"
#include "ml/mlp.h"
#include "net/event_queue.h"

namespace netmax::ml::reference {

// Seed Mlp::LossAndGradient: per-sample forward with per-layer activation
// vectors, per-sample backward with fresh delta buffers.
inline double MlpLossAndGradient(const Mlp& model, const Dataset& data,
                                 std::span<const int> batch_indices,
                                 std::span<double> gradient) {
  const std::vector<int>& sizes = model.layer_sizes();
  const int num_layers = model.num_layers();
  std::span<const double> params = model.parameters();
  const bool want_gradient = !gradient.empty();
  if (want_gradient) std::fill(gradient.begin(), gradient.end(), 0.0);

  std::vector<std::vector<double>> activations(
      static_cast<size_t>(num_layers));
  double total_loss = 0.0;
  for (int index : batch_indices) {
    const std::span<const double> x = data.features(index);
    const int label = data.label(index);

    std::span<const double> input = x;
    for (int l = 0; l < num_layers; ++l) {
      const size_t in = static_cast<size_t>(sizes[static_cast<size_t>(l)]);
      const size_t out = static_cast<size_t>(sizes[static_cast<size_t>(l) + 1]);
      auto& act = activations[static_cast<size_t>(l)];
      act.assign(out, 0.0);
      const double* w = params.data() + model.WeightOffset(l);
      const double* b = params.data() + model.BiasOffset(l);
      for (size_t o = 0; o < out; ++o) {
        double acc = b[o];
        const double* row = w + o * in;
        for (size_t j = 0; j < in; ++j) acc += row[j] * input[j];
        act[o] = acc;
      }
      if (l + 1 < num_layers) {
        for (double& v : act) v = std::max(0.0, v);  // ReLU
      }
      input = act;
    }

    std::vector<double> probs = activations.back();
    SoftmaxInPlace(probs);
    total_loss += CrossEntropyFromProbabilities(probs, label);
    if (!want_gradient) continue;

    std::vector<double> delta = probs;
    delta[static_cast<size_t>(label)] -= 1.0;
    for (int l = num_layers - 1; l >= 0; --l) {
      const size_t in = static_cast<size_t>(sizes[static_cast<size_t>(l)]);
      const size_t out = static_cast<size_t>(sizes[static_cast<size_t>(l) + 1]);
      const std::span<const double> layer_input =
          l == 0 ? x
                 : std::span<const double>(
                       activations[static_cast<size_t>(l) - 1]);
      double* gw = gradient.data() + model.WeightOffset(l);
      double* gb = gradient.data() + model.BiasOffset(l);
      for (size_t o = 0; o < out; ++o) {
        const double d = delta[o];
        if (d != 0.0) {
          double* grow = gw + o * in;
          for (size_t j = 0; j < in; ++j) grow[j] += d * layer_input[j];
        }
        gb[o] += d;
      }
      if (l > 0) {
        const double* w = params.data() + model.WeightOffset(l);
        std::vector<double> prev_delta(in, 0.0);
        for (size_t o = 0; o < out; ++o) {
          const double d = delta[o];
          if (d == 0.0) continue;
          const double* row = w + o * in;
          for (size_t j = 0; j < in; ++j) prev_delta[j] += d * row[j];
        }
        const auto& prev_act = activations[static_cast<size_t>(l) - 1];
        for (size_t j = 0; j < in; ++j) {
          if (prev_act[j] <= 0.0) prev_delta[j] = 0.0;
        }
        delta = std::move(prev_delta);
      }
    }
  }
  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  if (want_gradient) {
    for (double& g : gradient) g *= inv_batch;
  }
  return total_loss * inv_batch;
}

// Seed ConvNet::LossAndGradient.
inline double ConvNetLossAndGradient(const ConvNet& model, const Dataset& data,
                                     std::span<const int> batch_indices,
                                     std::span<double> gradient) {
  const int num_filters = model.num_filters();
  const int kernel_size = model.kernel_size();
  const int conv_len = model.conv_output_length();
  const int num_classes = model.num_classes();
  const int fc_in = num_filters * conv_len;
  std::span<const double> params = model.parameters();
  const bool want_gradient = !gradient.empty();
  if (want_gradient) std::fill(gradient.begin(), gradient.end(), 0.0);

  std::vector<double> conv_out;
  std::vector<double> probs;
  double total_loss = 0.0;
  for (int index : batch_indices) {
    const std::span<const double> x = data.features(index);
    const int label = data.label(index);

    const double* conv_w = params.data() + model.ConvWeightOffset();
    const double* conv_b = params.data() + model.ConvBiasOffset();
    conv_out.assign(static_cast<size_t>(fc_in), 0.0);
    for (int f = 0; f < num_filters; ++f) {
      const double* kernel = conv_w + static_cast<size_t>(f) * kernel_size;
      double* out = conv_out.data() + static_cast<size_t>(f) * conv_len;
      for (int p = 0; p < conv_len; ++p) {
        double acc = conv_b[f];
        for (int k = 0; k < kernel_size; ++k) {
          acc += kernel[k] * x[static_cast<size_t>(p + k)];
        }
        out[p] = std::max(0.0, acc);  // ReLU
      }
    }
    const double* fc_w = params.data() + model.FcWeightOffset();
    const double* fc_b = params.data() + model.FcBiasOffset();
    probs.assign(static_cast<size_t>(num_classes), 0.0);
    for (int c = 0; c < num_classes; ++c) {
      const double* row = fc_w + static_cast<size_t>(c) * fc_in;
      double acc = fc_b[c];
      for (int j = 0; j < fc_in; ++j) {
        acc += row[j] * conv_out[static_cast<size_t>(j)];
      }
      probs[static_cast<size_t>(c)] = acc;
    }
    SoftmaxInPlace(probs);
    total_loss += CrossEntropyFromProbabilities(probs, label);
    if (!want_gradient) continue;

    std::vector<double> dlogits = probs;
    dlogits[static_cast<size_t>(label)] -= 1.0;

    double* g_fc_w = gradient.data() + model.FcWeightOffset();
    double* g_fc_b = gradient.data() + model.FcBiasOffset();
    std::vector<double> dconv(static_cast<size_t>(fc_in), 0.0);
    for (int c = 0; c < num_classes; ++c) {
      const double d = dlogits[static_cast<size_t>(c)];
      g_fc_b[c] += d;
      if (d == 0.0) continue;
      double* grow = g_fc_w + static_cast<size_t>(c) * fc_in;
      const double* row = fc_w + static_cast<size_t>(c) * fc_in;
      for (int j = 0; j < fc_in; ++j) {
        grow[j] += d * conv_out[static_cast<size_t>(j)];
        dconv[static_cast<size_t>(j)] += d * row[j];
      }
    }
    for (int j = 0; j < fc_in; ++j) {
      if (conv_out[static_cast<size_t>(j)] <= 0.0) {
        dconv[static_cast<size_t>(j)] = 0.0;
      }
    }
    double* g_conv_w = gradient.data() + model.ConvWeightOffset();
    double* g_conv_b = gradient.data() + model.ConvBiasOffset();
    for (int f = 0; f < num_filters; ++f) {
      double* gk = g_conv_w + static_cast<size_t>(f) * kernel_size;
      const double* dout = dconv.data() + static_cast<size_t>(f) * conv_len;
      for (int p = 0; p < conv_len; ++p) {
        const double d = dout[p];
        if (d == 0.0) continue;
        for (int k = 0; k < kernel_size; ++k) {
          gk[k] += d * x[static_cast<size_t>(p + k)];
        }
        g_conv_b[f] += d;
      }
    }
  }
  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  if (want_gradient) {
    for (double& g : gradient) g *= inv_batch;
  }
  return total_loss * inv_batch;
}

// Seed LinearModel::LossAndGradient.
inline double LinearModelLossAndGradient(const LinearModel& model,
                                         const Dataset& data,
                                         std::span<const int> batch_indices,
                                         std::span<double> gradient) {
  const size_t d = static_cast<size_t>(model.feature_dim());
  const int num_classes = model.num_classes();
  const size_t bias_offset = static_cast<size_t>(num_classes) * d;
  std::span<const double> params = model.parameters();
  const bool want_gradient = !gradient.empty();
  if (want_gradient) std::fill(gradient.begin(), gradient.end(), 0.0);

  std::vector<double> probs(static_cast<size_t>(num_classes));
  double total_loss = 0.0;
  for (int index : batch_indices) {
    const std::span<const double> x = data.features(index);
    const int label = data.label(index);
    for (int c = 0; c < num_classes; ++c) {
      const double* w = params.data() + static_cast<size_t>(c) * d;
      double acc = params[bias_offset + static_cast<size_t>(c)];
      for (size_t j = 0; j < d; ++j) acc += w[j] * x[j];
      probs[static_cast<size_t>(c)] = acc;
    }
    SoftmaxInPlace(probs);
    total_loss += CrossEntropyFromProbabilities(probs, label);
    if (want_gradient) {
      for (int c = 0; c < num_classes; ++c) {
        const double dlogit =
            probs[static_cast<size_t>(c)] - (c == label ? 1.0 : 0.0);
        double* gw = gradient.data() + static_cast<size_t>(c) * d;
        for (size_t j = 0; j < d; ++j) gw[j] += dlogit * x[j];
        gradient[bias_offset + static_cast<size_t>(c)] += dlogit;
      }
    }
  }
  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  if (want_gradient) {
    for (double& g : gradient) g *= inv_batch;
  }
  return total_loss * inv_batch;
}

}  // namespace netmax::ml::reference

namespace netmax::core::reference {

// Eq. (11) lower bound for an edge probability: 2*alpha*rho (both indicators
// are 1 on an undirected edge) made strict by the margin. In averaging mode
// the update coefficient does not depend on p, so only the margin is needed
// to keep Y_P's off-diagonals positive (irreducibility, Lemma 3).
inline double EdgeLowerBound(const PolicyGeneratorOptions& options,
                             double rho) {
  if (options.mode == PolicyGeneratorOptions::Mode::kAveraging) {
    return options.probability_margin;
  }
  return 2.0 * options.alpha * rho + options.probability_margin;
}

// Feasible t_bar interval [L, U] for a given rho (Appendix A, Eqs. 25-28).
inline std::pair<double, double> FeasibleStepTimeInterval(
    const net::Topology& topology, const PolicyGeneratorOptions& options,
    double rho, const linalg::Matrix& iteration_times) {
  const int n = topology.num_nodes();
  const double lb = EdgeLowerBound(options, rho);
  double lower = 0.0;   // max over i of (1/M) sum_m t_im * lb   (Eq. 26)
  double upper = std::numeric_limits<double>::infinity();  // Eq. 28
  for (int i = 0; i < n; ++i) {
    double sum_t = 0.0;
    double max_t = 0.0;
    for (int m : topology.Neighbors(i)) {
      const double t = iteration_times(i, m);
      sum_t += t;
      max_t = std::max(max_t, t);
    }
    lower = std::max(lower, lb * sum_t / static_cast<double>(n));
    upper = std::min(upper, max_t / static_cast<double>(n));
  }
  return {lower, upper};
}

// The whole-matrix Eq. (14) LP of one grid point. Variable layout: first the
// n self-probabilities p_{i,i}, then variable n + e is p_{edges[e]}, one per
// directed edge (i -> m) in row-major order. Rows: Eq. (10) for every i,
// then Eq. (13) for every i; SolveLp adds one p <= 1 row per variable.
struct WholeMatrixLp {
  linalg::LpProblem lp;
  std::vector<std::pair<int, int>> edges;
};

inline WholeMatrixLp BuildPolicyLp(const net::Topology& topology,
                                   const PolicyGeneratorOptions& options,
                                   double rho, double t_bar,
                                   const linalg::Matrix& iteration_times) {
  const int n = topology.num_nodes();
  const double lb = EdgeLowerBound(options, rho);

  WholeMatrixLp out;
  std::vector<std::pair<int, int>>& edges = out.edges;
  std::vector<int> edge_var(static_cast<size_t>(n) * n, -1);
  for (int i = 0; i < n; ++i) {
    for (int m : topology.Neighbors(i)) {
      edge_var[static_cast<size_t>(i) * n + m] =
          n + static_cast<int>(edges.size());
      edges.emplace_back(i, m);
    }
  }
  const int num_vars = n + static_cast<int>(edges.size());

  linalg::LpProblem& lp = out.lp;
  lp.num_vars = num_vars;
  lp.objective.assign(static_cast<size_t>(num_vars), 0.0);
  for (int i = 0; i < n; ++i) lp.objective[static_cast<size_t>(i)] = 1.0;
  lp.lower_bounds.assign(static_cast<size_t>(num_vars), 0.0);
  lp.upper_bounds.assign(static_cast<size_t>(num_vars), 1.0);
  for (size_t e = 0; e < edges.size(); ++e) {
    lp.lower_bounds[static_cast<size_t>(n) + e] = lb;
  }

  // Eq. (10): sum_m t_{i,m} p_{i,m} = M * t_bar for every i.
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_vars), 0.0);
    for (int m : topology.Neighbors(i)) {
      row[static_cast<size_t>(edge_var[static_cast<size_t>(i) * n + m])] =
          iteration_times(i, m);
    }
    lp.AddConstraint(std::move(row), linalg::LpRelation::kEqual,
                     static_cast<double>(n) * t_bar);
  }
  // Eq. (13): rows of P sum to 1.
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_vars), 0.0);
    row[static_cast<size_t>(i)] = 1.0;
    for (int m : topology.Neighbors(i)) {
      row[static_cast<size_t>(edge_var[static_cast<size_t>(i) * n + m])] = 1.0;
    }
    lp.AddConstraint(std::move(row), linalg::LpRelation::kEqual, 1.0);
  }
  return out;
}

// Solves the whole-matrix LP of Eq. (14) for fixed (rho, t_bar).
inline StatusOr<CommunicationPolicy> SolvePolicyLp(
    const net::Topology& topology, const PolicyGeneratorOptions& options,
    double rho, double t_bar, const linalg::Matrix& iteration_times) {
  const int n = topology.num_nodes();
  const WholeMatrixLp whole =
      BuildPolicyLp(topology, options, rho, t_bar, iteration_times);
  StatusOr<linalg::LpSolution> solution = linalg::SolveLp(whole.lp);
  if (!solution.ok()) return solution.status();

  linalg::Matrix p(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    p(i, i) = std::max(0.0, solution->x[static_cast<size_t>(i)]);
  }
  for (size_t e = 0; e < whole.edges.size(); ++e) {
    const auto [i, m] = whole.edges[e];
    p(i, m) = std::max(0.0, solution->x[static_cast<size_t>(n) + e]);
  }
  // Renormalize away simplex round-off so rows sum to exactly 1.
  for (int i = 0; i < n; ++i) {
    const double row_sum = p.RowSum(i);
    NETMAX_CHECK_GT(row_sum, 0.0);
    for (int m = 0; m < n; ++m) p(i, m) /= row_sum;
  }
  return CommunicationPolicy(std::move(p));
}

// Scores a feasible policy: lambda_2 of the mode's Y matrix, read off the
// full eigendecomposition (eigenvectors included).
inline StatusOr<double> Lambda2(const net::Topology& topology,
                                const PolicyGeneratorOptions& options,
                                const CommunicationPolicy& policy, double rho) {
  // Any feasible policy equalizes average iteration times, so p_i = 1/M
  // (Lemma 1).
  const int n = topology.num_nodes();
  std::vector<double> uniform(static_cast<size_t>(n),
                              1.0 / static_cast<double>(n));
  StatusOr<linalg::Matrix> y =
      options.mode == PolicyGeneratorOptions::Mode::kAveraging
          ? BuildAveragingY(policy, topology, options.averaging_weight, uniform)
          : BuildNetMaxY(policy, topology, options.alpha, rho, uniform);
  if (!y.ok()) return y.status();
  if (y->rows() < 2) {
    return InvalidArgumentError("SecondLargestEigenvalue: need n >= 2");
  }
  StatusOr<linalg::EigenDecomposition> decomp =
      linalg::JacobiEigenSymmetric(y.value());
  if (!decomp.ok()) return decomp.status();
  return decomp->eigenvalues[1];
}

// The (rho, t_bar) grid of Algorithm 3 in outer-then-inner order (rho
// values whose Appendix-A interval is empty contribute no points). Fails the
// way Generate does before any LP is solved.
inline StatusOr<std::vector<std::pair<double, double>>> Grid(
    const net::Topology& topology, const PolicyGeneratorOptions& options,
    const linalg::Matrix& iteration_times) {
  const int n = topology.num_nodes();
  if (iteration_times.rows() != n || iteration_times.cols() != n) {
    return InvalidArgumentError("iteration-time matrix has wrong shape");
  }
  for (int i = 0; i < n; ++i) {
    for (int m : topology.Neighbors(i)) {
      if (!(iteration_times(i, m) > 0.0)) {
        return InvalidArgumentError(
            "iteration time for edge (" + std::to_string(i) + "," +
            std::to_string(m) + ") must be positive");
      }
    }
  }

  // rho grid over (0, rho_max], rho_max from the closed form of Appendix A.
  const bool averaging =
      options.mode == PolicyGeneratorOptions::Mode::kAveraging;
  double rho_max = 0.5 / options.alpha;
  if (!averaging) {
    double max_row_time = 0.0;
    double upper = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      double sum_t = 0.0;
      double max_t = 0.0;
      for (int m : topology.Neighbors(i)) {
        sum_t += iteration_times(i, m);
        max_t = std::max(max_t, iteration_times(i, m));
      }
      max_row_time = std::max(max_row_time, sum_t);
      upper = std::min(upper, max_t);
    }
    const double rho_feasible =
        (upper / max_row_time - options.probability_margin) /
        (2.0 * options.alpha);
    if (rho_feasible <= 0.0) {
      return InfeasibleError("no rho admits a feasible policy");
    }
    rho_max = std::min(rho_max, rho_feasible);
  }

  const int rounds = averaging ? 1 : options.outer_rounds;
  const double rho_delta = rho_max / static_cast<double>(rounds);
  const int inner = options.inner_rounds;
  std::vector<std::pair<double, double>> grid;
  for (int k = 1; k <= rounds; ++k) {
    const double rho = averaging ? 0.0 : rho_delta * static_cast<double>(k);
    const auto [lower, upper] =
        FeasibleStepTimeInterval(topology, options, rho, iteration_times);
    if (!(lower <= upper)) continue;  // this rho admits no feasible t_bar
    const double delta = (upper - lower) / static_cast<double>(inner);
    for (int r = 1; r <= inner; ++r) {
      grid.emplace_back(rho, lower + delta * static_cast<double>(r));
    }
  }
  return grid;
}

// Algorithm 3: every grid point solved and scored serially, keeping the
// first strict minimum of T_conv.
inline StatusOr<GeneratedPolicy> Generate(
    const net::Topology& topology, const PolicyGeneratorOptions& options,
    const linalg::Matrix& iteration_times) {
  // Numerical floor below which lambda_2 is treated as "converges in one
  // step".
  constexpr double kLambdaFloor = 1e-12;
  StatusOr<std::vector<std::pair<double, double>>> grid =
      Grid(topology, options, iteration_times);
  if (!grid.ok()) return grid.status();
  std::optional<GeneratedPolicy> best;
  for (const auto& [rho, t_bar] : grid.value()) {
    StatusOr<CommunicationPolicy> policy =
        SolvePolicyLp(topology, options, rho, t_bar, iteration_times);
    if (!policy.ok()) continue;
    StatusOr<double> lambda2 = Lambda2(topology, options, policy.value(), rho);
    if (!lambda2.ok()) continue;
    const double l2 = lambda2.value();
    if (l2 >= 1.0 - kLambdaFloor) continue;  // no contraction
    // T_conv = t_bar * ln(eps) / ln(lambda2); for lambda2 <= 0 consensus
    // mixes in a single step, so t_bar itself is the cost.
    const double t_convergence =
        l2 <= kLambdaFloor ? t_bar
                           : t_bar * std::log(options.epsilon) / std::log(l2);
    if (!best.has_value() ||
        t_convergence < best->expected_convergence_seconds) {
      best = GeneratedPolicy{std::move(policy.value()), rho, l2, t_bar,
                             t_convergence};
    }
  }
  if (!best.has_value()) return InfeasibleError("no feasible policy found");
  return std::move(best.value());
}

}  // namespace netmax::core::reference

namespace netmax::net::reference {

// A vector sorted by descending (time, sequence), next event at the back:
// O(1) pop, O(n) shifting insert. Same interface as net::EventQueue.
class SortedVectorEventQueue {
 public:
  void Push(SimEvent&& event) {
    const auto position = std::upper_bound(
        queue_.begin(), queue_.end(), event,
        [](const SimEvent& a, const SimEvent& b) {
          return b.DispatchesBefore(a);
        });
    queue_.insert(position, std::move(event));
  }

  SimEvent PopNext() {
    SimEvent event = std::move(queue_.back());
    queue_.pop_back();
    return event;
  }

  double NextTime() const { return queue_.back().time; }
  int64_t size() const { return static_cast<int64_t>(queue_.size()); }
  bool empty() const { return queue_.empty(); }

  void VisitInOrder(int64_t max_visit, const EventQueue::Visitor& visit) const {
    int64_t visited = 0;
    for (auto it = queue_.rbegin(); it != queue_.rend() && visited < max_visit;
         ++it, ++visited) {
      if (visit(*it) == EventQueue::VisitAction::kStop) return;
    }
  }

 private:
  std::vector<SimEvent> queue_;
};

}  // namespace netmax::net::reference

#endif  // NETMAX_TESTS_REFERENCE_IMPLS_H_
