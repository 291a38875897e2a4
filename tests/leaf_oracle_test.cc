// The production gradient leaf and batched prediction against the retained
// sample-major batched formulation (tests/reference_impls.h), bit for bit:
// every comparison is on the IEEE-754 bit pattern, so a +0.0 where the
// oracle has -0.0 fails. Covers every leaf size, loss-only and gradient
// leaves, odd layer widths, dead ReLU units and signed-zero parameters.

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "ml/sharding.h"
#include "ml/workspace.h"
#include "tests/reference_impls.h"

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Evaluates leaf 0 of `leaf` (at most kGradientLeafSamples samples) through
// the production entry point and the oracle, with and without a gradient,
// and demands identical bit patterns.
void ExpectLeafMatchesOracle(const Mlp& model, const Dataset& data,
                             std::span<const int> leaf,
                             TrainingWorkspace& workspace) {
  ASSERT_LE(leaf.size(), kGradientLeafSamples);
  const size_t width = static_cast<size_t>(model.num_parameters());
  std::vector<double> want_gradient(width);
  const double want_loss = reference::BatchedLeafLossAndGradientSums(
      model, data, leaf, want_gradient);

  // Poison the output so a coordinate the leaf fails to write shows.
  std::vector<double> got_gradient(width, -12345.0);
  double got_loss = -1.0;
  model.EvalGradientLeaves(data, leaf, 0, 1, {&got_loss, 1}, got_gradient,
                           workspace);
  EXPECT_EQ(Bits(got_loss), Bits(want_loss)) << "leaf of " << leaf.size();
  for (size_t i = 0; i < width; ++i) {
    ASSERT_EQ(Bits(got_gradient[i]), Bits(want_gradient[i]))
        << "leaf of " << leaf.size() << ", coordinate " << i << ": got "
        << got_gradient[i] << ", want " << want_gradient[i];
  }

  double loss_only = -1.0;
  model.EvalGradientLeaves(data, leaf, 0, 1, {&loss_only, 1}, {}, workspace);
  EXPECT_EQ(Bits(loss_only),
            Bits(reference::BatchedLeafLossAndGradientSums(model, data, leaf,
                                                           {})))
      << "loss-only leaf of " << leaf.size();
}

TEST(LeafOracleTest, EveryLeafSizeMatchesBitForBit) {
  // One workspace across every shape: its slots hold the previous shape's
  // values, so a read of unwritten scratch would show as a mismatch.
  TrainingWorkspace workspace;
  const std::vector<std::vector<int>> architectures = {
      {6, 3},        {5, 7, 3},    {9, 13, 11, 4},
      {32, 32, 10},  {32, 96, 10}, {32, 8, 10},
  };
  uint64_t seed = 500;
  for (const std::vector<int>& arch : architectures) {
    Dataset data = RandomDataset(arch.front(), arch.back(), 64, ++seed);
    Mlp model(arch);
    model.InitializeParameters(++seed);
    for (int size = 1; size <= static_cast<int>(kGradientLeafSamples);
         ++size) {
      SCOPED_TRACE(::testing::Message() << "arch of " << arch.size()
                                        << " sizes, first " << arch.front()
                                        << ", hidden " << arch[1]);
      const std::vector<int> leaf = RandomBatch(size, 64, ++seed);
      ExpectLeafMatchesOracle(model, data, leaf, workspace);
    }
  }
}

TEST(LeafOracleTest, EveryLeafOfAMultiLeafBatchMatches) {
  TrainingWorkspace workspace;
  Dataset data = RandomDataset(9, 4, 64, 601);
  Mlp model({9, 13, 11, 4});
  model.InitializeParameters(602);
  const std::vector<int> batch = RandomBatch(37, 64, 603);
  const int leaves = GradientLeafCount(batch.size());
  const size_t width = static_cast<size_t>(model.num_parameters());
  std::vector<double> loss_sums(static_cast<size_t>(leaves));
  std::vector<double> gradient_sums(static_cast<size_t>(leaves) * width);
  model.EvalGradientLeaves(data, batch, 0, leaves, loss_sums, gradient_sums,
                           workspace);
  for (int l = 0; l < leaves; ++l) {
    const LeafRange range = GradientLeafRange(batch.size(), l);
    std::vector<double> want_gradient(width);
    const double want_loss = reference::BatchedLeafLossAndGradientSums(
        model, data,
        std::span<const int>(batch).subspan(range.begin, range.size()),
        want_gradient);
    EXPECT_EQ(Bits(loss_sums[static_cast<size_t>(l)]), Bits(want_loss))
        << "leaf " << l;
    for (size_t i = 0; i < width; ++i) {
      ASSERT_EQ(Bits(gradient_sums[static_cast<size_t>(l) * width + i]),
                Bits(want_gradient[i]))
          << "leaf " << l << ", coordinate " << i;
    }
  }
}

TEST(LeafOracleTest, DeadUnitsAndSignedZerosMatchBitForBit) {
  // Features with exact +0.0 / -0.0 entries, and a model whose first hidden
  // layer has units that never fire (all-zero or negative weights and a
  // negative bias) and whose parameters include both signed zeros: deltas
  // through a dead unit are masked to +0.0, and products with signed zeros
  // decide the sign of zero-valued gradient coordinates.
  constexpr int kIn = 7;
  constexpr int kClasses = 3;
  Dataset data(kIn, kClasses);
  Rng rng(701);
  for (int i = 0; i < 32; ++i) {
    std::vector<double> features(kIn);
    for (int j = 0; j < kIn; ++j) {
      const int pick = (i + j) % 5;
      features[static_cast<size_t>(j)] =
          pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Gaussian();
    }
    data.Add(features, i % kClasses);
  }
  Mlp model({kIn, 6, 5, kClasses});
  model.InitializeParameters(702);
  std::span<double> params = model.parameters();
  for (size_t i = 0; i < params.size(); i += 3) {
    params[i] = i % 2 == 0 ? 0.0 : -0.0;
  }
  // Units 0 and 3 of the first hidden layer are dead for every input.
  for (const int unit : {0, 3}) {
    for (int j = 0; j < kIn; ++j) {
      params[model.WeightOffset(0) + static_cast<size_t>(unit * kIn + j)] =
          j % 2 == 0 ? -0.0 : 0.0;
    }
    params[model.BiasOffset(0) + static_cast<size_t>(unit)] = -1.0;
  }
  TrainingWorkspace workspace;
  for (int size = 1; size <= static_cast<int>(kGradientLeafSamples); ++size) {
    std::vector<int> leaf(static_cast<size_t>(size));
    std::iota(leaf.begin(), leaf.end(), 3 * size);
    ExpectLeafMatchesOracle(model, data, leaf, workspace);
  }
}

TEST(LeafOracleTest, PredictBatchMatchesOracle) {
  TrainingWorkspace workspace;
  Dataset data = RandomDataset(12, 5, 300, 801);
  std::vector<int> indices(static_cast<size_t>(data.size()));
  std::iota(indices.begin(), indices.end(), 0);
  uint64_t seed = 802;
  for (const std::vector<int>& arch :
       {std::vector<int>{12, 5}, std::vector<int>{12, 9, 5},
        std::vector<int>{12, 17, 11, 5}}) {
    Mlp model(arch);
    model.InitializeParameters(seed++);
    std::vector<int> want(indices.size());
    reference::BatchedPredictBatch(model, data, indices, want);
    std::vector<int> got(indices.size(), -1);
    model.PredictBatch(data, indices, got, workspace);
    EXPECT_EQ(got, want) << arch.size() - 1 << " layers";
  }
}

}  // namespace
}  // namespace netmax::ml
