// Tests for Algorithm 3 (communication-policy generation): feasibility of the
// LP solutions, the Appendix-A intervals, adaptation to slow links, and the
// convergence-time objective.

#include "core/policy_generator.h"

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "linalg/eigen.h"

namespace netmax::core {
namespace {

// Iteration-time matrix for a complete graph where the pair (slow_a, slow_b)
// is `slow_factor` times slower than everything else.
linalg::Matrix TimesWithSlowPair(int n, int slow_a, int slow_b,
                                 double base_seconds, double slow_factor) {
  linalg::Matrix t(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int m = 0; m < n; ++m) {
      if (i == m) continue;
      const bool slow = (std::min(i, m) == std::min(slow_a, slow_b)) &&
                        (std::max(i, m) == std::max(slow_a, slow_b));
      t(i, m) = base_seconds * (slow ? slow_factor : 1.0);
    }
  }
  return t;
}

PolicyGeneratorOptions DefaultOptions() {
  PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 6;
  options.inner_rounds = 6;
  return options;
}

TEST(PolicyGeneratorTest, GeneratesFeasiblePolicyOnUniformNetwork) {
  const int n = 4;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGenerator generator(topo, DefaultOptions());
  const linalg::Matrix times = TimesWithSlowPair(n, 0, 1, 1.0, 1.0);
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->policy.Validate(topo).ok());
  EXPECT_GT(result->rho, 0.0);
  EXPECT_GT(result->lambda2, 0.0);
  EXPECT_LT(result->lambda2, 1.0);
  EXPECT_GT(result->expected_convergence_seconds, 0.0);
}

TEST(PolicyGeneratorTest, SolutionSatisfiesEq10And11) {
  const int n = 5;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGeneratorOptions options = DefaultOptions();
  PolicyGenerator generator(topo, options);
  const linalg::Matrix times = TimesWithSlowPair(n, 1, 3, 0.5, 8.0);
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  const CommunicationPolicy& policy = result->policy;
  // Eq. (11): p_{i,m} >= 2*alpha*rho on edges.
  const double bound = 2.0 * options.alpha * result->rho;
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      EXPECT_GE(policy.probability(i, m), bound - 1e-7)
          << "edge (" << i << "," << m << ")";
    }
  }
  // Eq. (10): all nodes share the same average iteration time M * t_bar.
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(AverageIterationTime(times, policy, topo, i),
                n * result->average_step_seconds,
                n * result->average_step_seconds * 1e-4 + 1e-7);
  }
}

TEST(PolicyGeneratorTest, AvoidsSlowLink) {
  // With one 20x slower pair, the optimized policy must put (much) less mass
  // on that pair than uniform (1/(n-1)).
  const int n = 6;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGenerator generator(topo, DefaultOptions());
  const linalg::Matrix times = TimesWithSlowPair(n, 2, 4, 0.4, 20.0);
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  const double uniform = 1.0 / (n - 1);
  EXPECT_LT(result->policy.probability(2, 4), 0.5 * uniform);
  EXPECT_LT(result->policy.probability(4, 2), 0.5 * uniform);
}

TEST(PolicyGeneratorTest, SlowLinkPolicyBeatsUniformOnConvergenceTime) {
  // The generator's T_conv objective with adapted P must be no worse than
  // the same objective evaluated at the uniform policy with the same rho.
  const int n = 6;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGeneratorOptions options = DefaultOptions();
  PolicyGenerator generator(topo, options);
  const linalg::Matrix times = TimesWithSlowPair(n, 0, 5, 0.4, 30.0);
  auto adapted = generator.Generate(times);
  ASSERT_TRUE(adapted.ok()) << adapted.status();

  // Uniform policy scored with the same machinery.
  CommunicationPolicy uniform = CommunicationPolicy::Uniform(topo);
  std::vector<double> probs(static_cast<size_t>(n), 1.0 / n);
  auto y = BuildNetMaxY(uniform, topo, options.alpha, adapted->rho, probs,
                        /*allow_overshoot=*/true);
  ASSERT_TRUE(y.ok());
  auto lambda2 = linalg::SecondLargestEigenvalue(*y);
  ASSERT_TRUE(lambda2.ok());
  double uniform_t_bar = 0.0;
  for (int i = 0; i < n; ++i) {
    uniform_t_bar = std::max(
        uniform_t_bar, AverageIterationTime(times, uniform, topo, i) / n);
  }
  const double uniform_t_conv = uniform_t_bar *
                                std::log(kConvergenceEpsilon) /
                                std::log(lambda2.value());
  EXPECT_LE(adapted->expected_convergence_seconds, uniform_t_conv * 1.05);
}

TEST(PolicyGeneratorTest, FeasibleIntervalOrdering) {
  const int n = 4;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGenerator generator(topo, DefaultOptions());
  const linalg::Matrix times = TimesWithSlowPair(n, 0, 1, 1.0, 4.0);
  // Small rho: wide interval, L < U.
  const auto [lo, hi] = generator.FeasibleStepTimeInterval(0.1, times);
  EXPECT_GT(lo, 0.0);
  EXPECT_GT(hi, lo);
  // Very large rho: lower bound exceeds upper -> infeasible.
  const auto [lo2, hi2] = generator.FeasibleStepTimeInterval(1e4, times);
  EXPECT_GT(lo2, hi2);
}

TEST(PolicyGeneratorTest, RejectsNonPositiveTimes) {
  net::Topology topo = net::Topology::Complete(3);
  PolicyGenerator generator(topo, DefaultOptions());
  linalg::Matrix times(3, 3, 0.0);  // zero iteration times are invalid
  EXPECT_FALSE(generator.Generate(times).ok());

  // +inf passes a plain `t > 0` test and used to surface later as an
  // infeasible search; it must be rejected up front, naming the edge, in
  // both modes.
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto mode : {PolicyGeneratorOptions::Mode::kConsensus,
                          PolicyGeneratorOptions::Mode::kAveraging}) {
    PolicyGeneratorOptions options = DefaultOptions();
    options.mode = mode;
    PolicyGenerator moded(topo, options);
    linalg::Matrix finite = TimesWithSlowPair(3, 0, 1, 1.0, 1.0);
    ASSERT_TRUE(moded.Generate(finite).ok());
    for (const double bad : {inf, -inf, 0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN()}) {
      linalg::Matrix bad_times = finite;
      bad_times(1, 2) = bad;
      auto result = moded.Generate(bad_times);
      ASSERT_FALSE(result.ok()) << bad;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(result.status().message().find("(1,2)"), std::string::npos)
          << result.status();
    }
  }
}

TEST(PolicyGeneratorTest, RejectsWrongShape) {
  net::Topology topo = net::Topology::Complete(3);
  PolicyGenerator generator(topo, DefaultOptions());
  linalg::Matrix times(4, 4, 1.0);
  EXPECT_FALSE(generator.Generate(times).ok());
}

TEST(PolicyGeneratorTest, DisconnectedTopologyDies) {
  net::Topology topo(3);  // no edges
  EXPECT_DEATH({ PolicyGenerator generator(topo, DefaultOptions()); },
               "connected");
}

TEST(PolicyGeneratorTest, AveragingModeProducesFeasiblePolicy) {
  const int n = 5;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGeneratorOptions options = DefaultOptions();
  options.mode = PolicyGeneratorOptions::Mode::kAveraging;
  PolicyGenerator generator(topo, options);
  const linalg::Matrix times = TimesWithSlowPair(n, 0, 3, 0.5, 10.0);
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->policy.Validate(topo).ok());
  EXPECT_LT(result->lambda2, 1.0);
  // The slow pair is de-emphasized here too (Section III-D extension).
  EXPECT_LT(result->policy.probability(0, 3), 1.0 / (n - 1));
}

TEST(PolicyGeneratorTest, WorksOnRingTopology) {
  const int n = 6;
  net::Topology topo = net::Topology::Ring(n);
  PolicyGenerator generator(topo, DefaultOptions());
  linalg::Matrix times(n, n, 0.0);
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      if (times(i, m) == 0.0) {
        const double t = rng.Uniform(0.2, 2.0);
        times(i, m) = t;
        times(m, i) = t;
      }
    }
  }
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->policy.Validate(topo).ok());
}

TEST(PolicyGeneratorTest, ParallelGridSearchMatchesSerialBitForBit) {
  // The (rho, t_bar) grid fans out on a pool; selection ties break toward the
  // lowest grid index, so the chosen policy must be identical to the serial
  // search down to the last bit.
  const int n = 6;
  net::Topology topo = net::Topology::Complete(n);
  PolicyGenerator generator(topo, DefaultOptions());
  ThreadPool pool(4);
  for (const double slow_factor : {1.0, 8.0, 30.0}) {
    const linalg::Matrix times = TimesWithSlowPair(n, 1, 4, 0.5, slow_factor);
    auto serial = generator.Generate(times);
    auto parallel = generator.Generate(times, &pool);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(serial->rho, parallel->rho);
    EXPECT_EQ(serial->lambda2, parallel->lambda2);
    EXPECT_EQ(serial->average_step_seconds, parallel->average_step_seconds);
    EXPECT_EQ(serial->expected_convergence_seconds,
              parallel->expected_convergence_seconds);
    for (int i = 0; i < n; ++i) {
      for (int m = 0; m < n; ++m) {
        EXPECT_EQ(serial->policy.probability(i, m),
                  parallel->policy.probability(i, m))
            << "(" << i << "," << m << ")";
      }
    }
  }
}

TEST(PolicyGeneratorTest, ParallelInfeasibleMatchesSerialStatus) {
  net::Topology topo = net::Topology::Complete(3);
  PolicyGenerator generator(topo, DefaultOptions());
  linalg::Matrix times(3, 3, 0.0);
  ThreadPool pool(2);
  auto serial = generator.Generate(times);
  auto parallel = generator.Generate(times, &pool);
  EXPECT_FALSE(serial.ok());
  EXPECT_FALSE(parallel.ok());
  EXPECT_EQ(serial.status().ToString(), parallel.status().ToString());
}

// Property sweep: random iteration-time matrices on complete graphs; every
// generated policy must be feasible (Eqs. 10-13), contract (lambda_2 < 1),
// and its Y matrix must be doubly stochastic.
class GeneratorProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(GeneratorProperty, GeneratedPoliciesAreFeasibleContractions) {
  const int n = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  net::Topology topo = net::Topology::Complete(n);
  linalg::Matrix times(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int m = i + 1; m < n; ++m) {
      // Heavy-tailed spread: some links up to ~50x slower.
      const double t = rng.Uniform(0.1, 1.0) *
                       (rng.Bernoulli(0.2) ? rng.Uniform(5.0, 50.0) : 1.0);
      times(i, m) = t;
      times(m, i) = t;
    }
  }
  PolicyGeneratorOptions options = DefaultOptions();
  PolicyGenerator generator(topo, options);
  auto result = generator.Generate(times);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->policy.Validate(topo).ok());
  EXPECT_LT(result->lambda2, 1.0);
  EXPECT_GE(result->lambda2, 0.0 - 1.0);  // sanity: a real eigenvalue
  std::vector<double> probs(static_cast<size_t>(n), 1.0 / n);
  auto y = BuildNetMaxY(result->policy, topo, options.alpha, result->rho,
                        probs);
  ASSERT_TRUE(y.ok()) << y.status();
  EXPECT_TRUE(y->IsDoublyStochastic(1e-7));
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, GeneratorProperty,
    ::testing::Combine(::testing::Values(3, 4, 6, 8),
                       ::testing::Values(21ull, 22ull, 23ull)));

}  // namespace
}  // namespace netmax::core
