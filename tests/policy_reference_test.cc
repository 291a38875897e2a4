// Pins PolicyGenerator::Generate to the retained whole-matrix reference of
// Algorithm 3 (tests/reference_impls.h): the per-worker LP split and the
// eigenvalues-only lambda_2 scoring must select the same policy, rho,
// lambda_2, t_bar and T_conv, bit for bit, or fail with the same status
// code, serially and on a thread pool.
//
// The per-worker LPs take the same pivots as the whole-matrix LP because its
// tableau is block-diagonal; the solves can only differ where the simplex
// sizes something by the whole problem (the Bland-rule switch and iteration
// cap) or sums across workers (the 1e-7 phase-1 tolerance).
// WholeMatrixLpSplitsIntoPerWorkerBlocks shows neither decides a result on
// the swept inputs.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/policy_generator.h"
#include "linalg/simplex.h"
#include "net/topology.h"
#include "tests/reference_impls.h"

namespace netmax::core {
namespace {

using Mode = PolicyGeneratorOptions::Mode;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// One topology of the sweep: complete, ring or hierarchical (clusters of
// `cluster` workers). gtest prints a parameter type without a PrintTo as its
// raw bytes, and ctest folds that dump into each test's name. Every byte of
// a Shape is a value (the 8-byte enum leaves no padding, and no member is a
// pointer), so the names are the same in every process and every build.
struct Shape {
  enum class Kind : int64_t { kComplete, kRing, kHier };
  Kind kind;
  int n;
  int cluster;
  net::Topology Make() const {
    switch (kind) {
      case Kind::kRing:
        return net::Topology::Ring(n);
      case Kind::kHier:
        return net::Topology::Hierarchical(n, cluster);
      case Kind::kComplete:
        break;
    }
    return net::Topology::Complete(n);
  }
  std::string Name() const {
    std::ostringstream out;
    switch (kind) {
      case Kind::kRing:
        out << "ring" << n;
        break;
      case Kind::kHier:
        out << "hier" << n << "c" << cluster;
        break;
      case Kind::kComplete:
        out << "complete" << n;
        break;
    }
    return out.str();
  }
};
static_assert(std::has_unique_object_representations_v<Shape>,
              "a padding byte would put garbage into the test names");

using Param = std::tuple<Shape, Mode>;

PolicyGeneratorOptions Options(Mode mode) {
  PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 6;
  options.inner_rounds = 6;
  options.mode = mode;
  return options;
}

// Symmetric iteration times on the edges of `topo`. Seed 0 gives tied
// times (every edge 1.0); other seeds a mild spread in [0.5, 1.5], or with
// `heavy_tail` one where some links are up to ~50x slower.
linalg::Matrix RandomTimes(const net::Topology& topo, uint64_t seed,
                           bool heavy_tail = true) {
  const int n = topo.num_nodes();
  linalg::Matrix times(n, n, 0.0);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      if (m < i) continue;
      double t = 1.0;
      if (seed != 0 && heavy_tail) {
        t = rng.Uniform(0.1, 1.0) *
            (rng.Bernoulli(0.2) ? rng.Uniform(5.0, 50.0) : 1.0);
      } else if (seed != 0) {
        t = rng.Uniform(0.5, 1.5);
      }
      times(i, m) = t;
      times(m, i) = t;
    }
  }
  return times;
}

// Failing inputs: worker 0's links are so fast that consensus mode admits
// no rho, and averaging mode's t_bar intervals are all empty.
linalg::Matrix InfeasibleTimes(const net::Topology& topo) {
  linalg::Matrix times = RandomTimes(topo, 0);
  for (int m : topo.Neighbors(0)) {
    times(0, m) = 1e-6;
    times(m, 0) = 1e-6;
  }
  return times;
}

void ExpectSameResult(const StatusOr<GeneratedPolicy>& got,
                      const StatusOr<GeneratedPolicy>& want,
                      const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": got " << (got.ok() ? "OK" : got.status().ToString())
      << ", reference " << (want.ok() ? "OK" : want.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    return;
  }
  EXPECT_EQ(Bits(got->rho), Bits(want->rho)) << where;
  EXPECT_EQ(Bits(got->lambda2), Bits(want->lambda2)) << where;
  EXPECT_EQ(Bits(got->average_step_seconds), Bits(want->average_step_seconds))
      << where;
  EXPECT_EQ(Bits(got->expected_convergence_seconds),
            Bits(want->expected_convergence_seconds))
      << where;
  const linalg::Matrix& p = got->policy.matrix();
  const linalg::Matrix& q = want->policy.matrix();
  ASSERT_EQ(p.rows(), q.rows()) << where;
  ASSERT_EQ(p.cols(), q.cols()) << where;
  for (size_t k = 0; k < p.data().size(); ++k) {
    ASSERT_EQ(Bits(p.data()[k]), Bits(q.data()[k]))
        << where << ": P entry (" << k / static_cast<size_t>(p.cols()) << ","
        << k % static_cast<size_t>(p.cols()) << ")";
  }
}

// The swept topologies: complete graphs (n = 2 is where the p <= 1 bound can
// bind), rings, and hierarchical clusters with a short last cluster.
std::vector<Shape> SweptShapes() {
  std::vector<Shape> shapes;
  using Kind = Shape::Kind;
  for (int n : {2, 3, 5, 8, 16, 32}) shapes.push_back({Kind::kComplete, n, 0});
  for (int n : {3, 8, 16}) shapes.push_back({Kind::kRing, n, 0});
  shapes.push_back({Kind::kHier, 10, 3});
  shapes.push_back({Kind::kHier, 16, 4});
  shapes.push_back({Kind::kHier, 32, 8});
  return shapes;
}

class GenerateMatchesReference : public ::testing::TestWithParam<Param> {};

TEST_P(GenerateMatchesReference, SerialAndPooledBitForBit) {
  const Shape shape = std::get<0>(GetParam());
  const Mode mode = std::get<1>(GetParam());
  const net::Topology topo = shape.Make();
  const PolicyGeneratorOptions options = Options(mode);
  const PolicyGenerator generator(topo, options);
  ThreadPool pool(4);

  std::vector<std::pair<std::string, linalg::Matrix>> inputs;
  inputs.emplace_back("tied", RandomTimes(topo, 0));
  inputs.emplace_back("infeasible", InfeasibleTimes(topo));
  const int seeds = shape.n >= 32 ? 1 : 3;
  for (int s = 1; s <= seeds; ++s) {
    const uint64_t seed = 1000 * static_cast<uint64_t>(shape.n) + s;
    inputs.emplace_back("heavy" + std::to_string(seed),
                        RandomTimes(topo, seed));
    inputs.emplace_back("mild" + std::to_string(seed),
                        RandomTimes(topo, seed, /*heavy_tail=*/false));
  }

  int ok_results = 0;
  for (const auto& [label, times] : inputs) {
    const auto want = reference::Generate(topo, options, times);
    const std::string where = shape.Name() + "/" + label;
    ExpectSameResult(generator.Generate(times), want, where + "/serial");
    ExpectSameResult(generator.Generate(times, &pool), want, where + "/pool");
    // With one edge, worker 0's fast links are its only links: tied again.
    if (label == "infeasible" && shape.n > 2) {
      EXPECT_FALSE(want.ok()) << where;
    }
    ok_results += want.ok() ? 1 : 0;
  }
  // Consensus mode finds a policy for every other input. Averaging mode's
  // fixed-weight Y often has lambda_2 >= 1 beyond a few workers, so there
  // the sweep also compares many "no feasible policy found" outcomes.
  if (mode == Mode::kConsensus) {
    const int failing = shape.n > 2 ? 1 : 0;
    EXPECT_EQ(ok_results + failing, static_cast<int>(inputs.size()))
        << shape.Name();
  }
}

std::string CaseName(const ::testing::TestParamInfo<Param>& info) {
  const bool averaging = std::get<1>(info.param) == Mode::kAveraging;
  return std::get<0>(info.param).Name() +
         (averaging ? "_averaging" : "_consensus");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GenerateMatchesReference,
    ::testing::Combine(::testing::ValuesIn(SweptShapes()),
                       ::testing::Values(Mode::kConsensus, Mode::kAveraging)),
    CaseName);

// The simplex switches from Dantzig to Bland pricing after 4 * (rows + cols)
// + 64 iterations of one phase, where rows counts the constraints plus one
// row per finite upper bound and cols the structural, slack and artificial
// columns of its tableau (simplex.cc). Every row here is an equality (one
// artificial column) or an upper bound (one slack column).
int BlandSwitch(const linalg::LpProblem& lp) {
  const int equalities = static_cast<int>(lp.constraints.size());
  const int rows = equalities + lp.num_vars;
  const int cols = 2 * lp.num_vars + equalities;
  return 4 * (rows + cols) + 64;
}

std::string PointName(const Shape& shape, uint64_t seed, double rho,
                      double t_bar) {
  std::ostringstream out;
  out << shape.Name() << " seed " << seed << " rho " << rho << " t_bar "
      << t_bar;
  return out.str();
}

// Worker i's block of the whole-matrix LP: the variables of row i of P
// (p_{i,i}, then its edges in ascending neighbor order) and the rows that
// touch them, which must touch nothing else.
linalg::LpProblem ExtractBlock(const reference::WholeMatrixLp& whole, int n,
                               int i, std::vector<int>* vars) {
  vars->assign(1, i);
  for (size_t e = 0; e < whole.edges.size(); ++e) {
    if (whole.edges[e].first == i) vars->push_back(n + static_cast<int>(e));
  }
  const linalg::LpProblem& lp = whole.lp;
  linalg::LpProblem block;
  block.num_vars = static_cast<int>(vars->size());
  for (int v : *vars) {
    block.objective.push_back(lp.objective[static_cast<size_t>(v)]);
    block.lower_bounds.push_back(lp.lower_bounds[static_cast<size_t>(v)]);
    block.upper_bounds.push_back(lp.upper_bounds[static_cast<size_t>(v)]);
  }
  for (const linalg::LpConstraint& row : lp.constraints) {
    std::vector<double> coefficients;
    double inside = 0.0;
    for (int v : *vars) {
      coefficients.push_back(row.coefficients[static_cast<size_t>(v)]);
      inside += std::fabs(coefficients.back());
    }
    if (inside == 0.0) continue;
    double total = 0.0;
    for (double a : row.coefficients) total += std::fabs(a);
    EXPECT_EQ(total, inside) << "row of worker " << i << " leaves its block";
    block.AddConstraint(std::move(coefficients), row.relation, row.rhs);
  }
  EXPECT_EQ(block.constraints.size(), 2u);
  return block;
}

TEST(PolicyLpBlocks, WholeMatrixLpSplitsIntoPerWorkerBlocks) {
  // For every grid point of the swept inputs, plus points past the feasible
  // t_bar interval, solve the whole-matrix LP and each worker's block of it.
  // The block statuses must agree with the whole (so the per-worker 1e-7
  // phase-1 tolerance never decides feasibility differently from the summed
  // one), the block optima must be the whole optimum's bits, the whole LP's
  // pivot count must be the sum of the blocks' (the same pivots), and no LP
  // may reach its Bland switch (so neither the switch nor the far larger
  // iteration cap, both sized differently per worker, is ever in play).
  std::vector<Shape> shapes;
  using Kind = Shape::Kind;
  for (int n : {2, 5, 32}) shapes.push_back({Kind::kComplete, n, 0});
  shapes.push_back({Kind::kRing, 8, 0});
  shapes.push_back({Kind::kHier, 16, 4});
  int feasible_points = 0;
  int infeasible_points = 0;
  int binding_points = 0;  // optima with an edge probability at its bound 1
  for (const Shape& shape : shapes) {
    const net::Topology topo = shape.Make();
    const int n = topo.num_nodes();
    for (const Mode mode : {Mode::kConsensus, Mode::kAveraging}) {
      const PolicyGeneratorOptions options = Options(mode);
      // The 32-worker whole-matrix LP is large; one random input suffices.
      const std::vector<uint64_t> seeds =
          n >= 32 ? std::vector<uint64_t>{7} : std::vector<uint64_t>{0, 7, 8};
      for (const uint64_t seed : seeds) {
        const linalg::Matrix times = RandomTimes(topo, seed);
        auto grid = reference::Grid(topo, options, times);
        ASSERT_TRUE(grid.ok()) << grid.status();
        std::vector<std::pair<double, double>> points = grid.value();
        for (const auto& [rho, t_bar] : grid.value()) {
          points.emplace_back(rho, 1.25 * t_bar);  // past the interval
        }
        for (const auto& [rho, t_bar] : points) {
          const std::string where = PointName(shape, seed, rho, t_bar);
          const reference::WholeMatrixLp whole =
              reference::BuildPolicyLp(topo, options, rho, t_bar, times);
          const auto whole_solution = linalg::SolveLp(whole.lp);
          bool blocks_ok = true;
          int block_iterations = 0;
          std::vector<double> x(static_cast<size_t>(whole.lp.num_vars), 0.0);
          for (int i = 0; i < n; ++i) {
            std::vector<int> vars;
            const linalg::LpProblem block = ExtractBlock(whole, n, i, &vars);
            const auto solution = linalg::SolveLp(block);
            if (!solution.ok()) {
              EXPECT_EQ(solution.status().code(), StatusCode::kInfeasible)
                  << where << " worker " << i;
              blocks_ok = false;
              continue;
            }
            EXPECT_LT(solution->iterations, BlandSwitch(block)) << where;
            block_iterations += solution->iterations;
            for (size_t k = 0; k < vars.size(); ++k) {
              x[static_cast<size_t>(vars[k])] = solution->x[k];
            }
          }
          ASSERT_EQ(whole_solution.ok(), blocks_ok) << where;
          if (!blocks_ok) {
            EXPECT_EQ(whole_solution.status().code(), StatusCode::kInfeasible)
                << where;
            ++infeasible_points;
            continue;
          }
          ++feasible_points;
          EXPECT_LT(whole_solution->iterations, BlandSwitch(whole.lp)) << where;
          EXPECT_EQ(whole_solution->iterations, block_iterations) << where;
          for (size_t v = 0; v < x.size(); ++v) {
            ASSERT_EQ(Bits(x[v]), Bits(whole_solution->x[v]))
                << where << " variable " << v;
          }
          const auto edge_at_one = [](double p) { return p >= 1.0 - 1e-12; };
          if (std::any_of(x.begin() + n, x.end(), edge_at_one)) {
            ++binding_points;
          }
        }
      }
    }
  }
  // Both outcomes are exercised, and so is the p <= 1 bound (at n = 2).
  EXPECT_GT(feasible_points, 100);
  EXPECT_GT(infeasible_points, 100);
  EXPECT_GT(binding_points, 0);
  std::cout << feasible_points << " feasible (" << binding_points
            << " with an edge at p = 1) and " << infeasible_points
            << " infeasible grid points\n";
}

}  // namespace
}  // namespace netmax::core
