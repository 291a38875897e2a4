// Gradient-checks the MLP against central finite differences and verifies
// basic training behaviour (loss decreases, separable data learnable).

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/optimizer.h"

namespace netmax::ml {
namespace {

Dataset SmallDataset(int feature_dim, int num_classes, int count,
                     uint64_t seed) {
  SyntheticSpec spec;
  spec.feature_dim = feature_dim;
  spec.num_classes = num_classes;
  spec.num_train = count;
  spec.num_test = 1;
  spec.seed = seed;
  spec.class_separation = 2.0;
  return GenerateSynthetic(spec).train;
}

// Compares the analytic gradient to central finite differences at a random
// parameter point. Checks a subsample of coordinates for speed.
void CheckGradient(Mlp& model, const Dataset& data) {
  model.InitializeParameters(99);
  std::vector<int> batch(static_cast<size_t>(std::min(8, data.size())));
  std::iota(batch.begin(), batch.end(), 0);

  std::vector<double> analytic(static_cast<size_t>(model.num_parameters()));
  model.LossAndGradient(data, batch, analytic);

  const double eps = 1e-5;
  auto params = model.parameters();
  const int n = model.num_parameters();
  const int stride = std::max(1, n / 64);  // probe <=64 coordinates
  for (int j = 0; j < n; j += stride) {
    const double saved = params[static_cast<size_t>(j)];
    params[static_cast<size_t>(j)] = saved + eps;
    const double loss_plus = model.LossAndGradient(data, batch, {});
    params[static_cast<size_t>(j)] = saved - eps;
    const double loss_minus = model.LossAndGradient(data, batch, {});
    params[static_cast<size_t>(j)] = saved;
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic[static_cast<size_t>(j)], numeric,
                1e-4 * std::max(1.0, std::fabs(numeric)))
        << "coordinate " << j;
  }
}

TEST(MlpTest, GradientMatchesFiniteDifferencesNoHidden) {
  // One softmax layer: multinomial logistic regression.
  Dataset data = SmallDataset(6, 3, 16, 1);
  Mlp model({6, 3});
  CheckGradient(model, data);
}

TEST(MlpTest, GradientMatchesFiniteDifferencesOneHidden) {
  Dataset data = SmallDataset(5, 3, 16, 2);
  Mlp model({5, 7, 3});
  CheckGradient(model, data);
}

TEST(MlpTest, GradientMatchesFiniteDifferencesTwoHidden) {
  Dataset data = SmallDataset(4, 3, 16, 3);
  Mlp model({4, 6, 5, 3});
  CheckGradient(model, data);
}

TEST(MlpTest, ParameterLayoutSize) {
  Mlp model({4, 6, 3});
  EXPECT_EQ(model.num_parameters(), (4 * 6 + 6) + (6 * 3 + 3));
}

TEST(MlpTest, RejectsDegenerateArchitectures) {
  EXPECT_DEATH({ Mlp model({4}); }, "Check failed");
  EXPECT_DEATH({ Mlp model({4, 0, 3}); }, "Check failed");
}

TEST(SoftmaxTest, SumsToOneAndStable) {
  std::vector<double> logits = {1000.0, 1001.0, 999.0};
  SoftmaxInPlace(logits);
  double total = 0.0;
  for (double p : logits) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[0]);
  EXPECT_GT(logits[0], logits[2]);
}

TEST(SoftmaxTest, CrossEntropyClampsAwayFromZero) {
  const std::vector<double> probs = {1.0, 0.0};
  const double loss = CrossEntropyFromProbabilities(probs, 1);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 20.0);  // -log(1e-12) ~ 27.6
}

TEST(CloneTest, ClonesAreIndependent) {
  // The harness replicates worker 0's model by copy construction.
  Mlp model({4, 5, 3});
  model.InitializeParameters(7);
  Mlp copy(model);
  EXPECT_EQ(copy.layer_sizes(), model.layer_sizes());
  EXPECT_EQ(copy.num_parameters(), model.num_parameters());
  EXPECT_EQ(copy.parameters()[0], model.parameters()[0]);
  copy.parameters()[0] += 1.0;
  EXPECT_NE(copy.parameters()[0], model.parameters()[0]);
}

TEST(InitializationTest, DeterministicInSeed) {
  Mlp a({4, 5, 3});
  Mlp b({4, 5, 3});
  a.InitializeParameters(7);
  b.InitializeParameters(7);
  for (int i = 0; i < a.num_parameters(); ++i) {
    EXPECT_EQ(a.parameters()[static_cast<size_t>(i)],
              b.parameters()[static_cast<size_t>(i)]);
  }
  b.InitializeParameters(8);
  bool differs = false;
  for (int i = 0; i < a.num_parameters() && !differs; ++i) {
    differs = a.parameters()[static_cast<size_t>(i)] !=
              b.parameters()[static_cast<size_t>(i)];
  }
  EXPECT_TRUE(differs);
}

// The model must be able to fit a well-separated 3-class problem.
TEST(TrainingTest, MlpLearnsSeparableData) {
  Mlp model({8, 16, 3});
  SyntheticSpec spec;
  spec.feature_dim = 8;
  spec.num_classes = 3;
  spec.num_train = 512;
  spec.num_test = 256;
  spec.class_separation = 5.0;
  spec.seed = 11;
  DatasetPair pair = GenerateSynthetic(spec);

  model.InitializeParameters(3);
  SgdOptions options;
  options.learning_rate = 0.1;
  options.momentum = 0.9;
  options.weight_decay = 1e-4;
  SgdOptimizer optimizer(model.num_parameters(), options);
  BatchSampler sampler(&pair.train, 32, 5);
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  const double initial_loss = AverageLoss(model, pair.train);
  for (int step = 0; step < 400; ++step) {
    const std::vector<int> batch = sampler.NextBatch();
    model.LossAndGradient(pair.train, batch, gradient);
    optimizer.Step(model.parameters(), gradient);
  }
  EXPECT_LT(AverageLoss(model, pair.train), initial_loss);
  EXPECT_GE(Accuracy(model, pair.test), 0.95);
}

}  // namespace
}  // namespace netmax::ml
