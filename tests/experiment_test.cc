#include "core/experiment.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "net/fault_schedule.h"

namespace netmax::core {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.dataset.name = "tiny";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 8;
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.dataset.class_separation = 4.0;
  config.num_workers = 4;
  config.batch_size = 16;
  config.max_epochs = 2;
  config.hidden_layers = {8};
  config.network = NetworkScenario::kHeterogeneousStatic;
  return config;
}

TEST(WorkerBatchSizeTest, UniformUsesConfigBatch) {
  ExperimentConfig config = TinyConfig();
  EXPECT_EQ(WorkerBatchSize(config, 0), 16);
  EXPECT_EQ(WorkerBatchSize(config, 3), 16);
}

TEST(WorkerBatchSizeTest, SegmentsScaleBatch) {
  ExperimentConfig config = TinyConfig();
  config.partition = PartitionScheme::kSegments;
  config.segments = {1, 2, 1, 2};
  EXPECT_EQ(WorkerBatchSize(config, 0), 16);
  EXPECT_EQ(WorkerBatchSize(config, 1), 32);
}

TEST(BuildShardsTest, DispatchesUniform) {
  ExperimentConfig config = TinyConfig();
  ml::DatasetPair pair = ml::GenerateSynthetic(config.dataset);
  auto shards = BuildShards(config, pair.train);
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards->size(), 4u);
}

TEST(BuildShardsTest, RejectsMismatchedSegments) {
  ExperimentConfig config = TinyConfig();
  config.partition = PartitionScheme::kSegments;
  config.segments = {1, 2};  // but 4 workers
  ml::DatasetPair pair = ml::GenerateSynthetic(config.dataset);
  EXPECT_FALSE(BuildShards(config, pair.train).ok());
}

TEST(BuildShardsTest, RejectsMismatchedLostLabels) {
  ExperimentConfig config = TinyConfig();
  config.partition = PartitionScheme::kLostLabels;
  config.lost_labels = {{0}};  // but 4 workers
  ml::DatasetPair pair = ml::GenerateSynthetic(config.dataset);
  EXPECT_FALSE(BuildShards(config, pair.train).ok());
}

TEST(HarnessTest, InitValidatesConfig) {
  {
    ExperimentConfig config = TinyConfig();
    config.num_workers = 1;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.batch_size = 0;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.network = NetworkScenario::kWan;
    config.num_workers = 8;  // WAN is exactly 6 regions
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.shards = -1;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
}

TEST(HarnessTest, InitValidatesTopologyConfig) {
  {
    // Hierarchical cluster_size must fit [1, num_workers].
    ExperimentConfig config = TinyConfig();
    config.topology.shape = net::TopologyShape::kHierarchical;
    config.topology.cluster_size = 5;  // 4 workers
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("cluster_size must be in [1, num_workers]"),
              std::string::npos);
  }
  {
    // The WAN scenario's six-region placement is its own shape.
    ExperimentConfig config = TinyConfig();
    config.num_workers = 6;
    config.network = NetworkScenario::kWan;
    config.topology.shape = net::TopologyShape::kHierarchical;
    config.topology.cluster_size = 2;
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("incompatible with the WAN scenario"),
              std::string::npos);
  }
  {
    // Complete topology refuses O(n^2) scales and points at --topology.
    ExperimentConfig config = TinyConfig();
    config.num_workers = kMaxCompleteTopologyWorkers + 1;
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("--topology=hier:<cluster_size>"),
              std::string::npos);
  }
  {
    // The same worker count is fine under a hierarchical topology (validated
    // only; actually running 4097 workers is bench territory).
    ExperimentConfig config = TinyConfig();
    config.num_workers = kMaxCompleteTopologyWorkers + 1;
    config.topology.shape = net::TopologyShape::kHierarchical;
    config.topology.cluster_size = 64;
    EXPECT_TRUE(config.Validate().ok());
  }
}

TEST(HarnessTest, HierarchicalTopologyBuildsClusteredGossipGraph) {
  ExperimentConfig config = TinyConfig();
  config.num_workers = 8;
  config.topology.shape = net::TopologyShape::kHierarchical;
  config.topology.cluster_size = 4;
  ExperimentHarness harness(config, "test");
  NETMAX_CHECK_OK(harness.Init());
  const net::Topology& topo = harness.topology();
  EXPECT_EQ(topo.num_nodes(), 8);
  EXPECT_EQ(topo.num_edges(), 13);  // two K4 clusters + one hub edge
  EXPECT_TRUE(topo.AreNeighbors(0, 4));
  EXPECT_FALSE(topo.AreNeighbors(1, 5));
}

TEST(HarnessTest, InitValidatesFaultConfig) {
  // Fault specs come straight from the --faults flag; Validate rejects the
  // config-dependent mistakes (worker range, time order) with
  // InvalidArgument before any simulation state exists.
  {
    ExperimentConfig config = TinyConfig();  // 4 workers
    auto faults = net::FaultSchedule::Parse("leave@1:w4");
    NETMAX_CHECK_OK(faults.status());
    config.faults = *faults;
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("worker 4"), std::string::npos)
        << status.message();
  }
  {
    ExperimentConfig config = TinyConfig();
    auto faults = net::FaultSchedule::Parse("leave@2:w0;join@1:w0");
    NETMAX_CHECK_OK(faults.status());
    config.faults = *faults;
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("out of order"), std::string::npos)
        << status.message();
  }
  {
    ExperimentConfig config = TinyConfig();
    config.peer_timeout_seconds = 0.0;
    ExperimentHarness harness(config, "test");
    EXPECT_EQ(harness.Init().code(), StatusCode::kInvalidArgument);
  }
  {
    ExperimentConfig config = TinyConfig();
    config.peer_poll_seconds = -1.0;
    ExperimentHarness harness(config, "test");
    EXPECT_EQ(harness.Init().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HarnessTest, InitValidatesPeriodicCheckpointConfig) {
  {
    ExperimentConfig config = TinyConfig();
    config.checkpoint_every_seconds = -0.5;
    ExperimentHarness harness(config, "test");
    EXPECT_EQ(harness.Init().code(), StatusCode::kInvalidArgument);
  }
  {
    // An armed cadence needs somewhere to write.
    ExperimentConfig config = TinyConfig();
    config.checkpoint_every_seconds = 1.0;
    ExperimentHarness harness(config, "test");
    const Status status = harness.Init();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("checkpoint_every_seconds"),
              std::string::npos)
        << status.message();
  }
  {
    ExperimentConfig config = TinyConfig();
    config.checkpoint_retain = 0;
    ExperimentHarness harness(config, "test");
    EXPECT_EQ(harness.Init().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HarnessTest, InitValidatesDatasetSpec) {
  {
    ExperimentConfig config = TinyConfig();
    config.dataset.num_classes = 1;  // not a classification task
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.dataset.feature_dim = 0;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.dataset.num_train = 0;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
  {
    ExperimentConfig config = TinyConfig();
    config.dataset.num_test = 0;
    ExperimentHarness harness(config, "test");
    EXPECT_FALSE(harness.Init().ok());
  }
}

TEST(HarnessTest, ShardsResolveFromThreadBudget) {
  {
    // Auto (0): one shard task per worker's share of the thread budget.
    ExperimentConfig config = TinyConfig();  // 4 workers
    config.threads = 8;
    config.shards = 0;
    ExperimentHarness harness(config, "test");
    ASSERT_TRUE(harness.Init().ok());
    EXPECT_EQ(harness.shards(), 2);  // ceil(8 / 4)
  }
  {
    // Fewer threads than workers: auto stays unsharded.
    ExperimentConfig config = TinyConfig();
    config.threads = 2;
    config.shards = 0;
    ExperimentHarness harness(config, "test");
    ASSERT_TRUE(harness.Init().ok());
    EXPECT_EQ(harness.shards(), 1);
  }
  {
    // Explicit values pass through untouched.
    ExperimentConfig config = TinyConfig();
    config.threads = 1;
    config.shards = 5;
    ExperimentHarness harness(config, "test");
    ASSERT_TRUE(harness.Init().ok());
    EXPECT_EQ(harness.shards(), 5);
  }
}

TEST(HarnessTest, InitBuildsWorkersWithIdenticalReplicas) {
  ExperimentConfig config = TinyConfig();
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  const auto p0 = harness.worker(0).model->parameters();
  for (int w = 1; w < config.num_workers; ++w) {
    const auto pw = harness.worker(w).model->parameters();
    ASSERT_EQ(p0.size(), pw.size());
    for (size_t j = 0; j < p0.size(); ++j) EXPECT_EQ(p0[j], pw[j]);
  }
}

TEST(HarnessTest, ComputeSecondsScaleWithBatch) {
  ExperimentConfig config = TinyConfig();
  config.profile = ml::ResNet18Profile();
  config.profile_batch = 128;
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  EXPECT_DOUBLE_EQ(harness.ComputeSeconds(128),
                   ml::ResNet18Profile().compute_seconds);
  EXPECT_DOUBLE_EQ(harness.ComputeSeconds(64),
                   0.5 * ml::ResNet18Profile().compute_seconds);
}

TEST(HarnessTest, ComputeMultiplierApplies) {
  ExperimentConfig config = TinyConfig();
  config.compute_multiplier = 8.0;  // CPU-only instances
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  EXPECT_DOUBLE_EQ(harness.ComputeSeconds(128),
                   8.0 * config.profile.compute_seconds);
}

TEST(HarnessTest, LocalStepsCompleteEpochsAndFinish) {
  ExperimentConfig config = TinyConfig();
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  // 256/4 = 64 examples per worker, batch 16 -> 4 batches per epoch.
  const int steps_per_epoch = 4;
  for (int epoch = 0; epoch < config.max_epochs; ++epoch) {
    for (int s = 0; s < steps_per_epoch; ++s) {
      for (int w = 0; w < config.num_workers; ++w) {
        harness.LocalGradientStep(w);
      }
    }
  }
  EXPECT_TRUE(harness.AllDone());
  RunResult result = harness.Finalize();
  EXPECT_EQ(result.total_local_iterations,
            config.num_workers * config.max_epochs * steps_per_epoch);
  // One global-epoch point per epoch.
  EXPECT_EQ(static_cast<int>(result.loss_vs_epoch.size()), config.max_epochs);
  EXPECT_GT(result.final_train_loss, 0.0);
}

TEST(HarnessTest, AccountIterationSplitsComputeAndComm) {
  ExperimentConfig config = TinyConfig();
  config.max_epochs = 1;
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  harness.AccountIteration(0, /*compute=*/0.2, /*wall=*/0.5);
  // Complete worker 0's single epoch so cost averaging has a denominator.
  for (int s = 0; s < 4; ++s) {
    for (int w = 0; w < config.num_workers; ++w) harness.LocalGradientStep(w);
  }
  RunResult result = harness.Finalize();
  // 4 worker-epochs total; only worker 0 accrued cost.
  EXPECT_NEAR(result.avg_epoch_cost.compute_seconds, 0.2 / 4.0, 1e-12);
  EXPECT_NEAR(result.avg_epoch_cost.communication_seconds, 0.3 / 4.0, 1e-12);
}

TEST(HarnessTest, TimeCapFinishesWorkers) {
  ExperimentConfig config = TinyConfig();
  config.max_virtual_seconds = 0.0;
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  EXPECT_TRUE(harness.WorkerDone(0));
  EXPECT_TRUE(harness.AllDone());
}

TEST(HarnessTest, ConsensusDistanceZeroForIdenticalModels) {
  ExperimentConfig config = TinyConfig();
  ExperimentHarness harness(config, "test");
  ASSERT_TRUE(harness.Init().ok());
  RunResult result = harness.Finalize();
  EXPECT_NEAR(result.consensus_distance, 0.0, 1e-12);
}

}  // namespace
}  // namespace netmax::core
