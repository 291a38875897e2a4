#include "ml/metrics.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/logging.h"

namespace netmax::ml {
namespace {

// Evaluation chunk: the index/prediction buffers below hold one chunk on the
// stack. PredictBatch runs its forward pass over 8-sample blocks, so the
// chunk sets no workspace size.
constexpr int kEvalChunk = 256;

// Workspace int-slot used by AverageLoss for the all-examples index list.
// The model never touches int slots from LossAndGradient/PredictBatch (see
// the PredictBatch contract in ml/mlp.h).
constexpr int kSlotEvalIndices = 0;

}  // namespace

double AverageLoss(const Mlp& model, const Dataset& data) {
  return AverageLoss(model, data, ThreadLocalWorkspace());
}

double AverageLoss(const Mlp& model, const Dataset& data,
                   TrainingWorkspace& workspace) {
  NETMAX_CHECK_GT(data.size(), 0);
  std::span<int> all =
      workspace.IntScratch(kSlotEvalIndices, static_cast<size_t>(data.size()));
  std::iota(all.begin(), all.end(), 0);
  return model.LossAndGradient(data, all, {}, workspace);
}

double Accuracy(const Mlp& model, const Dataset& data) {
  return Accuracy(model, data, ThreadLocalWorkspace());
}

double Accuracy(const Mlp& model, const Dataset& data,
                TrainingWorkspace& workspace) {
  NETMAX_CHECK_GT(data.size(), 0);
  // Index/prediction chunks live on the stack: spans into `workspace` could
  // dangle if a model's PredictBatch grew the same slot mid-call.
  std::array<int, kEvalChunk> indices;
  std::array<int, kEvalChunk> predictions;
  int correct = 0;
  for (int start = 0; start < data.size(); start += kEvalChunk) {
    const int count = std::min(kEvalChunk, data.size() - start);
    std::iota(indices.begin(), indices.begin() + count, start);
    model.PredictBatch(
        data, std::span<const int>(indices).first(static_cast<size_t>(count)),
        std::span<int>(predictions).first(static_cast<size_t>(count)),
        workspace);
    for (int i = 0; i < count; ++i) {
      if (predictions[static_cast<size_t>(i)] == data.label(start + i)) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

std::optional<double> TimeToThreshold(const Series& series, double threshold) {
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i].y <= threshold) {
      if (i == 0) return series[i].x;
      const SeriesPoint& prev = series[i - 1];
      const SeriesPoint& cur = series[i];
      if (cur.y == prev.y) return cur.x;
      const double frac = (prev.y - threshold) / (prev.y - cur.y);
      return prev.x + frac * (cur.x - prev.x);
    }
  }
  return std::nullopt;
}

std::optional<double> TimeToThresholdAbove(const Series& series,
                                           double threshold) {
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i].y >= threshold) {
      if (i == 0) return series[i].x;
      const SeriesPoint& prev = series[i - 1];
      const SeriesPoint& cur = series[i];
      if (cur.y == prev.y) return cur.x;
      const double frac = (threshold - prev.y) / (cur.y - prev.y);
      return prev.x + frac * (cur.x - prev.x);
    }
  }
  return std::nullopt;
}

double FinalValue(const Series& series) {
  NETMAX_CHECK(!series.empty());
  return series.back().y;
}

double MinValue(const Series& series) {
  NETMAX_CHECK(!series.empty());
  double best = series[0].y;
  for (const SeriesPoint& p : series) best = std::min(best, p.y);
  return best;
}

}  // namespace netmax::ml
