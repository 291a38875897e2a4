#include "core/monitor.h"

#include <gtest/gtest.h>

namespace netmax::core {
namespace {

PolicyGeneratorOptions DefaultGeneratorOptions() {
  PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 4;
  options.inner_rounds = 4;
  return options;
}

TEST(NetworkMonitorTest, RefusesBeforeAnyMeasurement) {
  net::Topology topo = net::Topology::Complete(4);
  NetworkMonitor monitor(topo, DefaultGeneratorOptions());
  linalg::Matrix times(4, 4, 0.0);
  auto result = monitor.ComputePolicy(times);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NetworkMonitorTest, FillsMissingWithMaxMeasured) {
  net::Topology topo = net::Topology::Complete(3);
  NetworkMonitor monitor(topo, DefaultGeneratorOptions());
  linalg::Matrix times(3, 3, 0.0);
  times(0, 1) = 1.0;
  times(1, 0) = 2.5;  // largest measured value
  auto filled = monitor.FillMissingTimes(times);
  ASSERT_TRUE(filled.has_value());
  EXPECT_DOUBLE_EQ((*filled)(0, 1), 1.0);   // measured values kept
  EXPECT_DOUBLE_EQ((*filled)(1, 0), 2.5);
  EXPECT_DOUBLE_EQ((*filled)(0, 2), 2.5);   // missing -> max measured
  EXPECT_DOUBLE_EQ((*filled)(2, 1), 2.5);
}

TEST(NetworkMonitorTest, GeneratesPolicyOncePartiallyMeasured) {
  net::Topology topo = net::Topology::Complete(4);
  NetworkMonitor monitor(topo, DefaultGeneratorOptions());
  linalg::Matrix times(4, 4, 0.0);
  times(0, 1) = 0.5;
  times(1, 0) = 0.5;
  auto result = monitor.ComputePolicy(times);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->policy.Validate(topo).ok());
}

TEST(NetworkMonitorTest, SteersAwayFromMeasuredSlowLink) {
  const int n = 4;
  net::Topology topo = net::Topology::Complete(n);
  NetworkMonitor monitor(topo, DefaultGeneratorOptions());
  linalg::Matrix times(n, n, 0.5);
  for (int i = 0; i < n; ++i) times(i, i) = 0.0;
  times(1, 2) = 10.0;
  times(2, 1) = 10.0;
  auto result = monitor.ComputePolicy(times);
  ASSERT_TRUE(result.ok()) << result.status();
  // The slow link gets (much) less than a uniform share, and node 1's fast
  // links collectively carry most of its probability mass. (The LP may park
  // several links exactly at the Eq. (11) lower bound, so comparing two
  // individual entries is not meaningful.)
  const double uniform_share = 1.0 / 3.0;
  EXPECT_LT(result->policy.probability(1, 2), 0.5 * uniform_share);
  EXPECT_GT(result->policy.probability(1, 0) +
                result->policy.probability(1, 3),
            2.0 * result->policy.probability(1, 2));
}

}  // namespace
}  // namespace netmax::core
