// Golden determinism tests: the workspace/batched production paths must
// reproduce the retained naive per-sample reference (tests/reference_impls.h)
// within 1e-12 on randomized model instances — loss, every gradient
// coordinate, and every prediction. This is the contract that lets every
// figure/table bench reproduce the seed's numbers after the hot-path rewrite.

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/workspace.h"
#include "tests/reference_impls.h"

namespace netmax::ml {
namespace {

constexpr double kTol = 1e-12;

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

// Runs both paths on `model` and compares loss + gradient coordinates.
void CompareAgainstReference(const Mlp& model, const Dataset& data,
                             std::span<const int> batch,
                             TrainingWorkspace& workspace) {
  std::vector<double> want_gradient(
      static_cast<size_t>(model.num_parameters()));
  const double want_loss =
      reference::MlpLossAndGradient(model, data, batch, want_gradient);

  std::vector<double> got_gradient(
      static_cast<size_t>(model.num_parameters()));
  const double got_loss =
      model.LossAndGradient(data, batch, got_gradient, workspace);

  EXPECT_NEAR(got_loss, want_loss, kTol);
  double max_diff = 0.0;
  for (size_t i = 0; i < want_gradient.size(); ++i) {
    max_diff =
        std::max(max_diff, std::fabs(got_gradient[i] - want_gradient[i]));
  }
  EXPECT_LE(max_diff, kTol);

  // Loss-only path too (no gradient requested).
  const double got_loss_only =
      model.LossAndGradient(data, batch, {}, workspace);
  EXPECT_NEAR(got_loss_only, want_loss, kTol);
}

TEST(GoldenReferenceTest, MlpMatchesNaiveOnRandomInstances) {
  TrainingWorkspace workspace;
  const std::vector<std::vector<int>> architectures = {
      {6, 3},          // logistic-regression-shaped (no hidden layer)
      {5, 7, 3},       // one hidden
      {9, 13, 11, 4},  // two hidden, odd widths (kernel remainder paths)
      {32, 32, 10},    // the CIFAR10-sim proxy shape
  };
  uint64_t seed = 100;
  for (const auto& arch : architectures) {
    for (int batch_size : {1, 3, 32, 33}) {
      Dataset data = RandomDataset(arch.front(), arch.back(), 64, ++seed);
      Mlp model(arch);
      model.InitializeParameters(++seed);
      const std::vector<int> batch = RandomBatch(batch_size, 64, ++seed);
      CompareAgainstReference(model, data, batch, workspace);
    }
  }
}

TEST(GoldenReferenceTest, WorkspaceAndLegacyOverloadsAgreeExactly) {
  // The workspace-free overload routes through the same batched path via the
  // thread-local workspace; results must be identical, not merely close.
  Dataset data = RandomDataset(8, 4, 64, 7);
  Mlp model({8, 12, 4});
  model.InitializeParameters(9);
  const std::vector<int> batch = RandomBatch(16, 64, 11);

  TrainingWorkspace workspace;
  std::vector<double> g1(static_cast<size_t>(model.num_parameters()));
  std::vector<double> g2(static_cast<size_t>(model.num_parameters()));
  const double l1 = model.LossAndGradient(data, batch, g1, workspace);
  const double l2 = model.LossAndGradient(data, batch, g2);
  EXPECT_EQ(l1, l2);
  for (size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(g1[i], g2[i]);
}

TEST(GoldenReferenceTest, PredictBatchMatchesSingleExamplePredict) {
  TrainingWorkspace workspace;
  Dataset data = RandomDataset(12, 5, 128, 13);
  std::vector<int> indices(static_cast<size_t>(data.size()));
  std::iota(indices.begin(), indices.end(), 0);
  std::vector<int> predictions(indices.size());
  uint64_t seed = 17;
  for (const std::vector<int>& arch :
       {std::vector<int>{12, 9, 5}, std::vector<int>{12, 5}}) {
    Mlp model(arch);
    model.InitializeParameters(seed++);
    model.PredictBatch(data, indices, predictions, workspace);
    for (int i = 0; i < data.size(); ++i) {
      EXPECT_EQ(predictions[static_cast<size_t>(i)], model.Predict(data, i))
          << arch.size() - 1 << " layers, example " << i;
    }
  }
}

TEST(GoldenReferenceTest, BatchedAccuracyMatchesPerSampleLoop) {
  TrainingWorkspace workspace;
  Dataset data = RandomDataset(10, 4, 300, 29);  // not a multiple of the chunk
  Mlp model({10, 8, 4});
  model.InitializeParameters(31);

  int correct = 0;
  for (int i = 0; i < data.size(); ++i) {
    if (model.Predict(data, i) == data.label(i)) ++correct;
  }
  const double want =
      static_cast<double>(correct) / static_cast<double>(data.size());
  EXPECT_EQ(Accuracy(model, data, workspace), want);
  EXPECT_EQ(Accuracy(model, data), want);
}

}  // namespace
}  // namespace netmax::ml
