// Engine smoke tests: every algorithm trains a tiny problem end-to-end,
// reduces the loss, keeps replicas in consensus, and is deterministic.

#include <cmath>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "core/experiment.h"
#include "core/netmax_engine.h"
#include "ml/metrics.h"

namespace netmax {
namespace {

using algos::MakeAlgorithm;
using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

ExperimentConfig SmokeConfig() {
  ExperimentConfig config;
  config.dataset.name = "smoke";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  config.dataset.class_separation = 4.0;
  config.dataset.seed = 3;
  config.hidden_layers = {12};
  config.num_workers = 4;
  config.batch_size = 16;
  config.max_epochs = 3;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;  // several monitor ticks per run
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.seed = 7;
  return config;
}

class AlgorithmSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmSmoke, TrainsAndConverges) {
  auto algorithm = MakeAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  const ExperimentConfig config = SmokeConfig();
  auto result = (*algorithm)->Run(config);
  ASSERT_TRUE(result.ok()) << result.status();

  // Every worker trained to completion.
  EXPECT_GE(result->total_local_iterations,
            static_cast<int64_t>(config.num_workers) * config.max_epochs *
                (512 / 4 / 16));
  // Loss went down substantially from ln(4) ~ 1.39.
  ASSERT_FALSE(result->loss_vs_epoch.empty());
  EXPECT_LT(result->final_train_loss, result->loss_vs_epoch.front().y);
  EXPECT_LT(result->final_train_loss, 1.0);
  // Time advanced and costs were accounted.
  EXPECT_GT(result->total_virtual_seconds, 0.0);
  EXPECT_GT(result->avg_epoch_cost.total_seconds(), 0.0);
  // The final models of a 4-class separable-ish problem classify decently.
  EXPECT_GT(result->final_accuracy, 0.7);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmSmoke,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

TEST(DeterminismTest, IdenticalRunsProduceIdenticalSeries) {
  for (const std::string name : {"netmax", "adpsgd", "allreduce", "prague"}) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    const ExperimentConfig config = SmokeConfig();
    auto a = (*algorithm)->Run(config);
    auto b = (*algorithm)->Run(config);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->loss_vs_time.size(), b->loss_vs_time.size()) << name;
    for (size_t i = 0; i < a->loss_vs_time.size(); ++i) {
      EXPECT_EQ(a->loss_vs_time[i].x, b->loss_vs_time[i].x) << name;
      EXPECT_EQ(a->loss_vs_time[i].y, b->loss_vs_time[i].y) << name;
    }
    EXPECT_EQ(a->final_accuracy, b->final_accuracy) << name;
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  auto algorithm = MakeAlgorithm("netmax");
  ASSERT_TRUE(algorithm.ok());
  ExperimentConfig config = SmokeConfig();
  auto a = (*algorithm)->Run(config);
  config.seed = 8;
  auto b = (*algorithm)->Run(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->final_train_loss, b->final_train_loss);
}

TEST(NetMaxEngineTest, MonitorGeneratesPolicies) {
  auto algorithm = MakeAlgorithm("netmax");
  ASSERT_TRUE(algorithm.ok());
  ExperimentConfig config = SmokeConfig();
  config.max_epochs = 4;
  auto result = (*algorithm)->Run(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->policies_generated, 1);
}

TEST(NetMaxEngineTest, UniformVariantSkipsMonitor) {
  const core::NetMaxAlgorithm uniform({.adaptive = false});
  auto result = uniform.Run(SmokeConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->policies_generated, 0);
  EXPECT_EQ(result->algorithm, "NetMax");
}

TEST(NetMaxEngineTest, SerialVariantIsSlowerThanParallel) {
  // Uniform policy in both arms so the neighbor-draw sequences coincide and
  // the comparison isolates the overlap effect.
  const core::NetMaxAlgorithm serial({.overlap = false, .adaptive = false});
  const core::NetMaxAlgorithm parallel({.overlap = true, .adaptive = false});
  const ExperimentConfig config = SmokeConfig();
  auto serial_result = serial.Run(config);
  auto parallel_result = parallel.Run(config);
  ASSERT_TRUE(serial_result.ok());
  ASSERT_TRUE(parallel_result.ok());
  EXPECT_GT(serial_result->total_virtual_seconds,
            parallel_result->total_virtual_seconds);
}

TEST(NetMaxEngineTest, ConsensusHoldsAtEnd) {
  auto algorithm = MakeAlgorithm("netmax");
  ASSERT_TRUE(algorithm.ok());
  ExperimentConfig config = SmokeConfig();
  config.max_epochs = 6;
  auto result = (*algorithm)->Run(config);
  ASSERT_TRUE(result.ok());
  // Replicas stay within a modest ball of the mean model; the scale of the
  // parameters themselves is O(10) for this problem.
  EXPECT_LT(result->consensus_distance, 3.0);
}

TEST(ShapeTest, NetMaxFasterThanAdPsgdOnHeterogeneousNetwork) {
  // The paper's central claim (Fig. 8): on a heterogeneous network NetMax
  // finishes the same number of epochs in less wall time than AD-PSGD.
  ExperimentConfig config = SmokeConfig();
  config.network = NetworkScenario::kHeterogeneousDynamic;
  config.slowdown_period_seconds = 30.0;
  config.max_epochs = 5;
  auto netmax = MakeAlgorithm("netmax");
  auto adpsgd = MakeAlgorithm("adpsgd");
  ASSERT_TRUE(netmax.ok());
  ASSERT_TRUE(adpsgd.ok());
  auto netmax_result = (*netmax)->Run(config);
  auto adpsgd_result = (*adpsgd)->Run(config);
  ASSERT_TRUE(netmax_result.ok()) << netmax_result.status();
  ASSERT_TRUE(adpsgd_result.ok()) << adpsgd_result.status();
  EXPECT_LT(core::EqualWorkTime(*netmax_result),
            core::EqualWorkTime(*adpsgd_result));
}

TEST(ShapeTest, EqualWorkTimeStopsAtTheLastEpochPoint) {
  // NetMax's clock runs on to the monitor tick after the fleet finished its
  // epoch budget; equal-work time is the last global-epoch point instead.
  const ExperimentConfig config = SmokeConfig();
  auto netmax = MakeAlgorithm("netmax");
  ASSERT_TRUE(netmax.ok());
  auto result = (*netmax)->Run(config);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->loss_vs_time.size(),
            static_cast<size_t>(config.max_epochs));
  EXPECT_EQ(std::fmod(result->total_virtual_seconds,
                      config.monitor_period_seconds),
            0.0);
  EXPECT_LT(result->loss_vs_time.back().x, result->total_virtual_seconds);
  EXPECT_EQ(core::EqualWorkTime(*result), result->loss_vs_time.back().x);

  RunResult empty;
  empty.total_virtual_seconds = 7.5;
  EXPECT_EQ(core::EqualWorkTime(empty), 7.5);
}

TEST(ShapeTest, EveryAlgorithmReachesSameEpochCount) {
  // Epoch-domain behaviour must be comparable: all algorithms run the same
  // number of per-worker epochs regardless of their wall time.
  const ExperimentConfig config = SmokeConfig();
  for (const std::string& name : algos::PaperComparisonAlgorithms()) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    auto result = (*algorithm)->Run(config);
    ASSERT_TRUE(result.ok()) << name;
    ASSERT_FALSE(result->loss_vs_epoch.empty()) << name;
    EXPECT_NEAR(result->loss_vs_epoch.back().x, config.max_epochs, 1.0)
        << name;
  }
}

}  // namespace
}  // namespace netmax
