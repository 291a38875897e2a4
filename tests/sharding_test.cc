// Intra-worker gradient sharding (ml/sharding.h): the leaf geometry is a
// fixed function of the batch size, and ShardedLossAndGradient returns the
// exact same bits — loss and every gradient coordinate — for any (pool,
// shards) combination, because sharding only changes which task evaluates a
// leaf, never the summation shape.

#include "ml/sharding.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "ml/workspace.h"

namespace netmax::ml {
namespace {

Dataset RandomDataset(int feature_dim, int num_classes, int count,
                      uint64_t seed) {
  SyntheticSpec spec;
  spec.feature_dim = feature_dim;
  spec.num_classes = num_classes;
  spec.num_train = count;
  spec.num_test = 1;
  spec.seed = seed;
  return GenerateSynthetic(spec).train;
}

std::vector<int> RandomBatch(int batch, int dataset_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> indices(static_cast<size_t>(batch));
  for (int& v : indices) {
    v = static_cast<int>(rng.UniformInt(0, dataset_size - 1));
  }
  return indices;
}

TEST(ShardingGeometryTest, LeafCountAndRangesAreFixedChunks) {
  EXPECT_EQ(GradientLeafCount(1), 1);
  EXPECT_EQ(GradientLeafCount(kGradientLeafSamples), 1);
  EXPECT_EQ(GradientLeafCount(kGradientLeafSamples + 1), 2);
  EXPECT_EQ(GradientLeafCount(4 * kGradientLeafSamples), 4);

  const size_t batch = 3 * kGradientLeafSamples + 2;
  ASSERT_EQ(GradientLeafCount(batch), 4);
  size_t covered = 0;
  for (int l = 0; l < 4; ++l) {
    const LeafRange range = GradientLeafRange(batch, l);
    EXPECT_EQ(range.begin, covered) << "leaf " << l;
    EXPECT_GT(range.size(), 0u) << "leaf " << l;
    EXPECT_LE(range.size(), kGradientLeafSamples) << "leaf " << l;
    covered = range.end;
  }
  EXPECT_EQ(covered, batch);  // leaves tile the batch exactly
  EXPECT_EQ(GradientLeafRange(batch, 3).size(), 2u);  // remainder leaf
}

// Runs the serial reference and every (pool_threads, shards) variant on the
// same model/batch and demands exact equality.
void ExpectShardingInvariant(const Mlp& model, const Dataset& data,
                             std::span<const int> batch) {
  const size_t width = static_cast<size_t>(model.num_parameters());
  TrainingWorkspace reference_workspace;
  std::vector<double> reference_gradient(width);
  const double reference_loss =
      model.LossAndGradient(data, batch, reference_gradient,
                            reference_workspace);

  for (const int pool_threads : {1, 3}) {
    ThreadPool pool(pool_threads);
    for (const int shards : {1, 2, 3, 5, 100}) {
      TrainingWorkspace workspace;
      std::vector<double> gradient(width);
      const double loss = ShardedLossAndGradient(
          model, data, batch, gradient, workspace, &pool, shards);
      EXPECT_EQ(loss, reference_loss)
          << "pool=" << pool_threads << " shards=" << shards;
      for (size_t i = 0; i < width; ++i) {
        ASSERT_EQ(gradient[i], reference_gradient[i])
            << "pool=" << pool_threads << " shards=" << shards
            << " coordinate " << i;
      }
      // Loss-only mode reproduces the same loss bits too.
      const double loss_only = ShardedLossAndGradient(
          model, data, batch, {}, workspace, &pool, shards);
      EXPECT_EQ(loss_only, reference_loss);
    }
  }
}

TEST(ShardedLossAndGradientTest, MlpBitIdenticalAcrossPoolAndShardCounts) {
  Dataset data = RandomDataset(12, 5, 96, 11);
  Mlp model({12, 16, 5});
  model.InitializeParameters(13);
  // Uneven tail leaf (35 = 4*8 + 3) and an exact multiple.
  for (const int batch_size : {5, 32, 35}) {
    ExpectShardingInvariant(model, data,
                            RandomBatch(batch_size, 96, 17 + batch_size));
  }
}

TEST(ShardedLossAndGradientTest, WideModelPooledTreeReductionBitIdentical) {
  // A model wide enough to cross kPooledReduceMinWidth (one softmax layer,
  // 2048*8 + 8 = 16392 parameters), so the pairwise tree reduction of the
  // gradient partials itself fans out onto the pool. The combine is
  // element-wise across the parameter axis with a fixed tree shape, so the
  // pooled column chunks must reproduce the serial combine bit for bit —
  // this is the test that pins the "leaf-tree reduction on the pool" path.
  Dataset data = RandomDataset(2048, 8, 48, 83);
  Mlp model({2048, 8});
  model.InitializeParameters(89);
  ASSERT_GE(static_cast<size_t>(model.num_parameters()),
            kPooledReduceMinWidth);
  // 33 samples = 5 leaves (uneven tail), several shard splits.
  ExpectShardingInvariant(model, data, RandomBatch(33, 48, 97));
}

TEST(ShardedLossAndGradientTest, SingleLeafBatchMatchesWholeBatchPath) {
  // A batch no larger than one leaf degenerates to exactly one unsharded
  // evaluation: the tree is trivial, so this pins the pre-sharding
  // arithmetic for small batches.
  Dataset data = RandomDataset(8, 3, 64, 43);
  Mlp model({8, 6, 3});
  model.InitializeParameters(47);
  const std::vector<int> batch =
      RandomBatch(static_cast<int>(kGradientLeafSamples), 64, 53);

  TrainingWorkspace workspace;
  std::vector<double> sums(static_cast<size_t>(model.num_parameters()));
  std::vector<double> loss_sum(1);
  model.EvalGradientLeaves(data, batch, 0, 1, loss_sum, sums, workspace);

  std::vector<double> gradient(sums.size());
  const double loss =
      model.LossAndGradient(data, batch, gradient, workspace);
  const double inv = 1.0 / static_cast<double>(batch.size());
  EXPECT_EQ(loss, loss_sum[0] * inv);
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(gradient[i], sums[i] * inv);
  }
}

TEST(ShardedLossAndGradientTest, ShardedSteadyStateIsAllocationFree) {
  // After the first sharded batch sized the parent, reduce, and child-shard
  // buffers, later batches of the same size must not grow anything.
  Dataset data = RandomDataset(12, 5, 96, 71);
  Mlp model({12, 16, 5});
  model.InitializeParameters(73);
  const std::vector<int> batch = RandomBatch(32, 96, 79);
  ThreadPool pool(3);
  TrainingWorkspace workspace;
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));

  ShardedLossAndGradient(model, data, batch, gradient, workspace, &pool, 4);
  const int64_t after_first = workspace.growth_count();
  EXPECT_GT(after_first, 0);
  for (int i = 0; i < 5; ++i) {
    ShardedLossAndGradient(model, data, batch, gradient, workspace, &pool, 4);
  }
  EXPECT_EQ(workspace.growth_count(), after_first);
}

}  // namespace
}  // namespace netmax::ml
