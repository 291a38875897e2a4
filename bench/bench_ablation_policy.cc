// Ablation beyond the paper: how much does Algorithm 3's convergence-aware
// LP objective buy over simpler policy heuristics, and how does the K x R
// grid resolution trade objective quality against generation latency?
//
// All strategies are scored with the same model: T_conv = t_bar * ln(eps) /
// ln(lambda_2(Y_P)) evaluated on the true iteration-time matrix (uniform
// p_i = 1/M where applicable). Strategies:
//   uniform        — AD-PSGD style, p_{i,m} = 1/(M-1)
//   greedy-fastest — all mass on each node's fastest link
//   inverse-time   — p_{i,m} proportional to 1/t_{i,m}
//   netmax-lp      — Algorithm 3
// Heuristics routinely fail outright (lambda_2 -> 1 when the induced gossip
// matrix mixes too slowly or unevenly), which is exactly why the LP keeps
// strictly positive, balanced mass on every link (Eqs. 10-11).

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench/bench_util.h"

#include "common/random.h"
#include "common/table.h"
#include "core/policy_generator.h"
#include "linalg/eigen.h"

namespace netmax {
namespace {

using core::CommunicationPolicy;

constexpr double kAlpha = 0.1;

linalg::Matrix HeterogeneousTimes(int n, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix t(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int m = i + 1; m < n; ++m) {
      double v = rng.Uniform(0.2, 0.6);
      if (rng.Bernoulli(0.25)) v *= rng.Uniform(5.0, 40.0);  // slow links
      t(i, m) = v;
      t(m, i) = v;
    }
  }
  return t;
}

// Scores a hand-built policy with rho chosen like NetMax's initial rho
// (coefficient 0.3 spread over the neighbors).
double ScorePolicy(const CommunicationPolicy& policy,
                   const net::Topology& topo, const linalg::Matrix& times,
                   double rho) {
  const int n = topo.num_nodes();
  auto probs_or = GlobalStepProbabilities(times, policy, topo);
  if (!probs_or.ok()) return std::numeric_limits<double>::infinity();
  auto y = BuildNetMaxY(policy, topo, kAlpha, rho, *probs_or,
                        /*allow_overshoot=*/true);
  if (!y.ok()) return std::numeric_limits<double>::infinity();
  auto lambda2 = linalg::SecondLargestEigenvalue(*y);
  if (!lambda2.ok() || lambda2.value() >= 1.0 - 1e-12) {
    return std::numeric_limits<double>::infinity();
  }
  // Global average step time under this policy (Eq. 10 generalized: slowest
  // node paces the pipeline).
  double t_bar = 0.0;
  for (int i = 0; i < n; ++i) {
    t_bar = std::max(t_bar, AverageIterationTime(times, policy, topo, i) / n);
  }
  if (lambda2.value() <= 0.0) return t_bar;
  return t_bar * std::log(core::kConvergenceEpsilon) /
         std::log(lambda2.value());
}

void CompareStrategies(int n, uint64_t seed) {
  const net::Topology topo = net::Topology::Complete(n);
  const linalg::Matrix times = HeterogeneousTimes(n, seed);
  const double rho = 0.3 / (kAlpha * (n - 1));

  TablePrinter table({"strategy", "modelled_T_conv_s"});

  // uniform
  table.AddRow({"uniform",
                Fmt(ScorePolicy(CommunicationPolicy::Uniform(topo), topo,
                                times, rho),
                    1)});
  // greedy-fastest
  {
    linalg::Matrix p(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
      int best = -1;
      for (int m : topo.Neighbors(i)) {
        if (best < 0 || times(i, m) < times(i, best)) best = m;
      }
      p(i, best) = 1.0;
    }
    const double score =
        ScorePolicy(CommunicationPolicy(std::move(p)), topo, times, rho);
    table.AddRow({"greedy-fastest",
                  std::isinf(score) ? "inf (no consensus)" : Fmt(score, 1)});
  }
  // inverse-time
  {
    linalg::Matrix p(n, n, 0.0);
    for (int i = 0; i < n; ++i) {
      double total = 0.0;
      for (int m : topo.Neighbors(i)) total += 1.0 / times(i, m);
      for (int m : topo.Neighbors(i)) p(i, m) = (1.0 / times(i, m)) / total;
    }
    table.AddRow({"inverse-time",
                  Fmt(ScorePolicy(CommunicationPolicy(std::move(p)), topo,
                                  times, rho),
                      1)});
  }
  // netmax-lp at several grid resolutions (smoke: coarse grids only — the
  // K=R=16 sweep dominates this bench's runtime).
  const std::vector<int> grids = bench::SmokeMode()
                                     ? std::vector<int>{2, 4}
                                     : std::vector<int>{2, 4, 8, 16};
  for (int grid : grids) {
    core::PolicyGeneratorOptions options;
    options.alpha = kAlpha;
    options.outer_rounds = grid;
    options.inner_rounds = grid;
    core::PolicyGenerator generator(topo, options);
    const auto start = std::chrono::steady_clock::now();
    auto result = generator.Generate(times);
    const double millis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // The generation's wall time goes to stderr: stdout holds only results,
    // so two runs of one binary print the same bytes.
    std::cerr << "netmax-lp K=R=" << grid << " (M=" << n << ", seed=" << seed
              << "): generated in " << Fmt(millis, 1) << " ms\n";
    if (result.ok()) {
      table.AddRow({"netmax-lp K=R=" + Fmt(grid),
                    Fmt(result->expected_convergence_seconds, 1)});
    } else {
      table.AddRow({"netmax-lp K=R=" + Fmt(grid), "infeasible"});
    }
  }

  std::cout << "\n== Policy-strategy ablation (M=" << n << ", seed=" << seed
            << ") ==\n";
  table.Print(std::cout);
  table.PrintCsv(std::cout, "ablation_policy_M" + Fmt(n) + "_s" +
                                Fmt(static_cast<int64_t>(seed)));
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] {
    netmax::CompareStrategies(8, 1);
    if (!netmax::bench::SmokeMode()) {
      netmax::CompareStrategies(8, 2);
      netmax::CompareStrategies(16, 1);
    }
    return netmax::Status::Ok();
  });
}
