#include "ml/optimizer.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace netmax::ml {
namespace {

TEST(SgdOptimizerTest, PlainGradientStepWithoutMomentum) {
  SgdOptions options;
  options.learning_rate = 0.5;
  options.momentum = 0.0;
  options.weight_decay = 0.0;
  SgdOptimizer optimizer(2, options);
  std::vector<double> params = {1.0, -1.0};
  const std::vector<double> grad = {2.0, -4.0};
  optimizer.Step(params, grad);
  EXPECT_DOUBLE_EQ(params[0], 1.0 - 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(params[1], -1.0 + 0.5 * 4.0);
}

TEST(SgdOptimizerTest, MomentumAccumulates) {
  SgdOptions options;
  options.learning_rate = 1.0;
  options.momentum = 0.5;
  options.weight_decay = 0.0;
  SgdOptimizer optimizer(1, options);
  std::vector<double> params = {0.0};
  const std::vector<double> grad = {1.0};
  optimizer.Step(params, grad);  // v=1, p=-1
  EXPECT_DOUBLE_EQ(params[0], -1.0);
  optimizer.Step(params, grad);  // v=1.5, p=-2.5
  EXPECT_DOUBLE_EQ(params[0], -2.5);
}

TEST(SgdOptimizerTest, WeightDecayShrinksParameters) {
  SgdOptions options;
  options.learning_rate = 0.1;
  options.momentum = 0.0;
  options.weight_decay = 0.5;
  SgdOptimizer optimizer(1, options);
  std::vector<double> params = {2.0};
  const std::vector<double> grad = {0.0};
  optimizer.Step(params, grad);
  // p -= lr * wd * p = 2 - 0.1*0.5*2 = 1.9.
  EXPECT_DOUBLE_EQ(params[0], 1.9);
}

TEST(SgdOptimizerTest, ConvergesOnQuadratic) {
  // f(x) = 0.5 * (x - 3)^2, gradient x - 3.
  SgdOptions options;
  options.learning_rate = 0.1;
  options.momentum = 0.9;
  options.weight_decay = 0.0;
  SgdOptimizer optimizer(1, options);
  std::vector<double> x = {0.0};
  for (int i = 0; i < 300; ++i) {
    const std::vector<double> grad = {x[0] - 3.0};
    optimizer.Step(x, grad);
  }
  EXPECT_NEAR(x[0], 3.0, 1e-6);
}

TEST(SgdOptimizerTest, RejectsInvalidOptions) {
  SgdOptions bad_lr;
  bad_lr.learning_rate = 0.0;
  EXPECT_DEATH({ SgdOptimizer o(1, bad_lr); }, "Check failed");
  SgdOptions bad_momentum;
  bad_momentum.momentum = 1.0;
  EXPECT_DEATH({ SgdOptimizer o(1, bad_momentum); }, "Check failed");
}

TEST(StepDecayLrTest, DecaysAtMilestones) {
  StepDecayLr schedule(0.1, 0.1, {3, 6});
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(1, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(2, 1.0), 0.1);
  EXPECT_NEAR(schedule.OnEpochEnd(3, 1.0), 0.01, 1e-12);
  EXPECT_NEAR(schedule.OnEpochEnd(4, 1.0), 0.01, 1e-12);
  EXPECT_NEAR(schedule.OnEpochEnd(6, 1.0), 0.001, 1e-12);
}

TEST(PlateauDecayLrTest, DecaysOnlyWhenLossStalls) {
  PlateauDecayLr schedule(0.1, 0.1, /*patience=*/2);
  // Loss improving: no decay.
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(0, 2.0), 0.1);
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(1, 1.5), 0.1);
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(2, 1.0), 0.1);
  // Two stale epochs -> decay by 10.
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(3, 1.0), 0.1);
  EXPECT_NEAR(schedule.OnEpochEnd(4, 1.0), 0.01, 1e-12);
  // Improvement resets the counter at the new rate.
  EXPECT_NEAR(schedule.OnEpochEnd(5, 0.5), 0.01, 1e-12);
}

TEST(PlateauDecayLrTest, MinDeltaGuardsAgainstNoise) {
  PlateauDecayLr schedule(0.1, 0.1, /*patience=*/1, /*min_delta=*/0.1);
  EXPECT_DOUBLE_EQ(schedule.OnEpochEnd(0, 1.0), 0.1);
  // An improvement smaller than min_delta counts as stale.
  EXPECT_NEAR(schedule.OnEpochEnd(1, 0.95), 0.01, 1e-12);
}

}  // namespace
}  // namespace netmax::ml
