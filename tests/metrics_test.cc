#include "ml/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ml/mlp.h"
#include "ml/model_profile.h"

namespace netmax::ml {
namespace {

TEST(MetricsTest, AccuracyOfPerfectAndBrokenModel) {
  // Single-feature 2-class problem separable by sign.
  Dataset data(1, 2);
  data.Add(std::vector<double>{1.0}, 1);
  data.Add(std::vector<double>{-1.0}, 0);
  data.Add(std::vector<double>{2.0}, 1);
  data.Add(std::vector<double>{-2.0}, 0);

  Mlp model({1, 2});
  // W = [[-1],[1]], b = 0 classifies by sign correctly.
  model.parameters()[0] = -1.0;
  model.parameters()[1] = 1.0;
  EXPECT_DOUBLE_EQ(Accuracy(model, data), 1.0);

  // Flip the weights: always wrong.
  model.parameters()[0] = 1.0;
  model.parameters()[1] = -1.0;
  EXPECT_DOUBLE_EQ(Accuracy(model, data), 0.0);
}

TEST(MetricsTest, AverageLossOfUniformModelIsLogC) {
  Dataset data(2, 4);
  data.Add(std::vector<double>{0.5, -0.5}, 2);
  data.Add(std::vector<double>{1.0, 1.0}, 0);
  Mlp model({2, 4});  // zero weights -> uniform softmax
  EXPECT_NEAR(AverageLoss(model, data), std::log(4.0), 1e-12);
}

TEST(SeriesTest, TimeToThresholdInterpolates) {
  Series s = {{0.0, 2.0}, {10.0, 1.0}, {20.0, 0.5}};
  auto t = TimeToThreshold(s, 0.75);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 15.0, 1e-12);
}

TEST(SeriesTest, TimeToThresholdAtFirstPoint) {
  Series s = {{5.0, 0.3}, {10.0, 0.2}};
  auto t = TimeToThreshold(s, 0.5);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 5.0);
}

TEST(SeriesTest, TimeToThresholdNeverReached) {
  Series s = {{0.0, 2.0}, {10.0, 1.5}};
  EXPECT_FALSE(TimeToThreshold(s, 1.0).has_value());
}

TEST(SeriesTest, TimeToThresholdAboveForAccuracyCurves) {
  Series s = {{0.0, 0.1}, {10.0, 0.5}, {20.0, 0.9}};
  auto t = TimeToThresholdAbove(s, 0.7);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 15.0, 1e-12);
  EXPECT_FALSE(TimeToThresholdAbove(s, 0.95).has_value());
}

TEST(SeriesTest, FinalAndMinValues) {
  Series s = {{0.0, 2.0}, {1.0, 0.5}, {2.0, 0.8}};
  EXPECT_DOUBLE_EQ(FinalValue(s), 0.8);
  EXPECT_DOUBLE_EQ(MinValue(s), 0.5);
}

TEST(ModelProfileTest, PaperParameterCounts) {
  EXPECT_EQ(MobileNetProfile().num_parameters, 4'200'000);
  EXPECT_EQ(GoogLeNetProfile().num_parameters, 6'800'000);
  EXPECT_EQ(ResNet18Profile().num_parameters, 11'700'000);
  EXPECT_EQ(ResNet50Profile().num_parameters, 25'600'000);
  EXPECT_EQ(Vgg19Profile().num_parameters, 143'700'000);
}

TEST(ModelProfileTest, MessageBytesIsFp32) {
  EXPECT_EQ(ResNet18Profile().message_bytes(), 11'700'000 * 4);
}

TEST(ModelProfileTest, ComputeCostOrderingMatchesModelSizeOrdering) {
  // Bigger models must cost more compute per batch.
  EXPECT_LT(MobileNetProfile().compute_seconds,
            GoogLeNetProfile().compute_seconds);
  EXPECT_LT(GoogLeNetProfile().compute_seconds,
            ResNet18Profile().compute_seconds);
  EXPECT_LT(ResNet18Profile().compute_seconds,
            ResNet50Profile().compute_seconds);
  EXPECT_LT(ResNet50Profile().compute_seconds, Vgg19Profile().compute_seconds);
}

}  // namespace
}  // namespace netmax::ml
