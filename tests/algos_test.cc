// Algorithm-specific behaviour tests beyond the smoke suite: SAPS's static
// subgraph construction, Prague's group economics, the PS baselines'
// central-congestion asymmetry, gossip's non-blocking iterations, and the
// monitor extension's effect on AD-PSGD.

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "algos/saps_psgd.h"
#include "core/experiment.h"

namespace netmax {
namespace {

using core::ExperimentConfig;
using core::NetworkScenario;

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "algos";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 4;
  config.batch_size = 16;
  config.max_epochs = 3;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.seed = 11;
  return config;
}

core::RunResult RunAlgo(const std::string& name,
                        const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

// --- SAPS subgraph -----------------------------------------------------------

TEST(SapsSubgraphTest, IsConnectedSpanningStructure) {
  linalg::Matrix cost(5, 5, 1.0);
  for (int i = 0; i < 5; ++i) cost(i, i) = 0.0;
  net::Topology subgraph = algos::BuildFastLinkSubgraph(cost);
  EXPECT_EQ(subgraph.num_nodes(), 5);
  EXPECT_TRUE(subgraph.IsConnected());
  EXPECT_GE(subgraph.num_edges(), 4);  // at least a spanning tree
}

TEST(SapsSubgraphTest, AvoidsExpensiveLinks) {
  // Node pair (0, 3) is 100x more expensive than everything else: the
  // subgraph must not contain it (cheaper spanning alternatives exist).
  const int n = 6;
  linalg::Matrix cost(n, n, 1.0);
  for (int i = 0; i < n; ++i) cost(i, i) = 0.0;
  cost(0, 3) = 100.0;
  cost(3, 0) = 100.0;
  net::Topology subgraph = algos::BuildFastLinkSubgraph(cost);
  EXPECT_FALSE(subgraph.AreNeighbors(0, 3));
  EXPECT_TRUE(subgraph.IsConnected());
}

TEST(SapsSubgraphTest, MstFollowsCheapChain) {
  // Chain costs: consecutive nodes cheap (1), everything else expensive (50).
  const int n = 5;
  linalg::Matrix cost(n, n, 50.0);
  for (int i = 0; i < n; ++i) cost(i, i) = 0.0;
  for (int i = 0; i + 1 < n; ++i) {
    cost(i, i + 1) = 1.0;
    cost(i + 1, i) = 1.0;
  }
  net::Topology subgraph = algos::BuildFastLinkSubgraph(cost);
  for (int i = 0; i + 1 < n; ++i) EXPECT_TRUE(subgraph.AreNeighbors(i, i + 1));
}

TEST(SapsSubgraphTest, SingleNodeIsTrivial) {
  linalg::Matrix cost(1, 1, 0.0);
  net::Topology subgraph = algos::BuildFastLinkSubgraph(cost);
  EXPECT_EQ(subgraph.num_nodes(), 1);
  EXPECT_EQ(subgraph.num_edges(), 0);
}

// --- Behavioural comparisons -------------------------------------------------

TEST(GossipTest, IterationsDoNotBlockOnNetwork) {
  // Push gossip never waits for transfers, so for the same epoch budget its
  // total virtual time tracks pure compute and is far below AD-PSGD's
  // (which blocks on pulls over the same slow links).
  const ExperimentConfig config = BaseConfig();
  const auto gossip = RunAlgo("gossip", config);
  const auto adpsgd = RunAlgo("adpsgd", config);
  EXPECT_LT(gossip.total_virtual_seconds, 0.5 * adpsgd.total_virtual_seconds);
  // And its epoch cost is all compute.
  EXPECT_NEAR(gossip.avg_epoch_cost.communication_seconds, 0.0, 1e-9);
}

TEST(PsTest, SyncRoundsPacedBySlowestLink) {
  // PS-syn serializes all uploads+downloads at the PS NIC, so it is slower
  // than PS-asyn (which overlaps worker compute with other workers' rounds).
  const ExperimentConfig config = BaseConfig();
  const auto ps_sync = RunAlgo("ps-sync", config);
  const auto ps_async = RunAlgo("ps-async", config);
  EXPECT_GT(ps_sync.total_virtual_seconds, ps_async.total_virtual_seconds);
}

TEST(PsTest, SyncKeepsReplicasIdentical) {
  const auto result = RunAlgo("ps-sync", BaseConfig());
  EXPECT_NEAR(result.consensus_distance, 0.0, 1e-9);
}

TEST(PragueTest, GroupAveragingKeepsConsensusTight) {
  const auto result = RunAlgo("prague", BaseConfig());
  // Groups of >= 2 average entire models frequently; after only 3 epochs the
  // replicas remain within a small multiple of the parameter noise scale.
  EXPECT_LT(result.consensus_distance, 2.0);
  EXPECT_GT(result.total_local_iterations, 0);
}

TEST(AllreduceTest, ReplicasStayBitIdentical) {
  const auto result = RunAlgo("allreduce", BaseConfig());
  EXPECT_EQ(result.consensus_distance, 0.0);
}

TEST(MonitorExtensionTest, AdPsgdWithMonitorIsFasterOnHeterogeneousNetwork) {
  // More workers give the averaging-mode policy room to steer around the
  // inter-machine links (a 4-worker cluster has too few fast alternatives).
  ExperimentConfig config = BaseConfig();
  config.num_workers = 8;
  config.dataset.num_train = 1024;
  config.max_epochs = 6;
  const auto plain = RunAlgo("adpsgd", config);
  const auto monitored = RunAlgo("adpsgd+monitor", config);
  EXPECT_GT(monitored.policies_generated, 0);
  EXPECT_LT(monitored.total_virtual_seconds, plain.total_virtual_seconds);
}

TEST(SapsTest, StaticSubgraphBeatsUniformOnStaticNetwork) {
  // On a *static* heterogeneous network SAPS's fast-link subgraph avoids the
  // slow inter-machine links, so it finishes faster than plain AD-PSGD.
  ExperimentConfig config = BaseConfig();
  config.network = NetworkScenario::kHeterogeneousStatic;
  const auto saps = RunAlgo("saps", config);
  const auto adpsgd = RunAlgo("adpsgd", config);
  EXPECT_LT(saps.total_virtual_seconds, adpsgd.total_virtual_seconds);
}

TEST(WanTest, AllWanAlgorithmsTrain) {
  ExperimentConfig config = BaseConfig();
  config.network = NetworkScenario::kWan;
  config.num_workers = 6;
  config.profile.compute_seconds *= 4.0;  // CPU-only instances
  for (const char* name : {"netmax", "adpsgd", "ps-sync", "ps-async"}) {
    const auto result = RunAlgo(name, config);
    EXPECT_GT(result.final_accuracy, 0.5) << name;
    EXPECT_GT(result.total_virtual_seconds, 0.0) << name;
  }
}

TEST(RegistryTest, AllNamesConstructible) {
  for (const std::string& name : algos::AlgorithmNames()) {
    auto algorithm = algos::MakeAlgorithm(name);
    EXPECT_TRUE(algorithm.ok()) << name;
  }
  EXPECT_FALSE(algos::MakeAlgorithm("nonexistent").ok());
}

TEST(RegistryTest, PaperComparisonSetMatchesSectionV) {
  const auto names = algos::PaperComparisonAlgorithms();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "prague");
  EXPECT_EQ(names[1], "allreduce");
  EXPECT_EQ(names[2], "adpsgd");
  EXPECT_EQ(names[3], "netmax");
}

}  // namespace
}  // namespace netmax
