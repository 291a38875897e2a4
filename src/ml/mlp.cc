#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "linalg/blas.h"
#include "ml/sharding.h"

namespace netmax::ml {
namespace {

// A gradient leaf fills one lane-layout block (linalg/blas.h): its samples
// are the lanes.
static_assert(linalg::kLanes == kGradientLeafSamples);
constexpr size_t kLanes = linalg::kLanes;

// Workspace slot layout: the gathered input in lane layout and row-major,
// the row-major copy of one hidden activation, two ping-pong delta blocks,
// then one lane-layout activation block per layer.
constexpr int kSlotInputLanes = 0;
constexpr int kSlotInputRows = 1;
constexpr int kSlotHiddenRows = 2;
constexpr int kSlotDeltaBase = 3;
constexpr int kSlotActBase = 5;

// Softmax over `count` logits spaced `stride` apart, in place, numerically
// stably: SoftmaxInPlace's arithmetic for one lane of a lane-layout block.
void StridedSoftmaxInPlace(double* logits, size_t count, size_t stride) {
  double max_logit = logits[0];
  for (size_t c = 0; c < count; ++c) {
    max_logit = std::max(max_logit, logits[c * stride]);
  }
  double total = 0.0;
  for (size_t c = 0; c < count; ++c) {
    double& v = logits[c * stride];
    v = std::exp(v - max_logit);
    total += v;
  }
  for (size_t c = 0; c < count; ++c) logits[c * stride] /= total;
}

// -log(probability), clamped away from 0.
double CrossEntropy(double probability) {
  constexpr double kFloor = 1e-12;
  return -std::log(std::max(probability, kFloor));
}

}  // namespace

void SoftmaxInPlace(std::span<double> logits) {
  StridedSoftmaxInPlace(logits.data(), logits.size(), 1);
}

double CrossEntropyFromProbabilities(std::span<const double> probabilities,
                                     int label) {
  return CrossEntropy(probabilities[static_cast<size_t>(label)]);
}

Mlp::Mlp(std::vector<int> layer_sizes) : layer_sizes_(std::move(layer_sizes)) {
  NETMAX_CHECK_GE(layer_sizes_.size(), 2u) << "need at least input and output";
  for (int size : layer_sizes_) NETMAX_CHECK_GT(size, 0);
  size_t offset = 0;
  for (int l = 0; l < num_layers(); ++l) {
    layer_offsets_.push_back(offset);
    const size_t in = static_cast<size_t>(layer_sizes_[static_cast<size_t>(l)]);
    const size_t out =
        static_cast<size_t>(layer_sizes_[static_cast<size_t>(l) + 1]);
    offset += out * in + out;
  }
  params_.assign(offset, 0.0);
}

int Mlp::num_parameters() const { return static_cast<int>(params_.size()); }

size_t Mlp::WeightOffset(int layer) const {
  return layer_offsets_[static_cast<size_t>(layer)];
}

size_t Mlp::BiasOffset(int layer) const {
  const size_t in =
      static_cast<size_t>(layer_sizes_[static_cast<size_t>(layer)]);
  const size_t out =
      static_cast<size_t>(layer_sizes_[static_cast<size_t>(layer) + 1]);
  return WeightOffset(layer) + out * in;
}

std::vector<int64_t> Mlp::LayerSegments() const {
  std::vector<int64_t> segments;
  segments.reserve(static_cast<size_t>(num_layers()));
  for (int layer = 0; layer < num_layers(); ++layer) {
    const int64_t in = layer_sizes_[static_cast<size_t>(layer)];
    const int64_t out = layer_sizes_[static_cast<size_t>(layer) + 1];
    segments.push_back(out * in + out);
  }
  return segments;
}

void Mlp::InitializeParameters(uint64_t seed) {
  Rng rng(seed);
  for (int l = 0; l < num_layers(); ++l) {
    const size_t in = static_cast<size_t>(layer_sizes_[static_cast<size_t>(l)]);
    const size_t out =
        static_cast<size_t>(layer_sizes_[static_cast<size_t>(l) + 1]);
    // He initialization (fan-in scaled) suits ReLU layers.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    double* w = params_.data() + WeightOffset(l);
    for (size_t i = 0; i < out * in; ++i) w[i] = rng.Gaussian(0.0, scale);
    double* b = params_.data() + BiasOffset(l);
    for (size_t i = 0; i < out; ++i) b[i] = 0.0;
  }
}

std::span<double> Mlp::LaneForward(const Dataset& data,
                                   std::span<const int> block,
                                   std::span<double> input_rows,
                                   TrainingWorkspace& workspace) const {
  NETMAX_CHECK(!block.empty());
  NETMAX_CHECK_LE(block.size(), kLanes);
  const size_t in0 = static_cast<size_t>(layer_sizes_.front());

  // Gather the block's feature rows transposed into lane layout (unit-major,
  // one lane per sample), with the lanes past the block zeroed; the
  // row-major copy is for the first layer's weight gradient.
  std::span<double> x = workspace.Scratch(kSlotInputLanes, in0 * kLanes);
  for (size_t s = 0; s < block.size(); ++s) {
    const std::span<const double> row = data.features(block[s]);
    for (size_t t = 0; t < in0; ++t) x[t * kLanes + s] = row[t];
    if (!input_rows.empty()) {
      std::copy(row.begin(), row.end(),
                input_rows.begin() + static_cast<ptrdiff_t>(s * in0));
    }
  }
  for (size_t t = 0; t < in0; ++t) {
    for (size_t s = block.size(); s < kLanes; ++s) x[t * kLanes + s] = 0.0;
  }

  // Each layer is one lane GEMM against W as stored, seeded with the bias:
  // every output element sums bias first, then ascending over `in`, exactly
  // like the per-sample dot-product loop.
  std::span<double> input = x;
  std::span<double> act;
  for (int l = 0; l < num_layers(); ++l) {
    const int in = layer_sizes_[static_cast<size_t>(l)];
    const int out = layer_sizes_[static_cast<size_t>(l) + 1];
    act = workspace.Scratch(kSlotActBase + l,
                            static_cast<size_t>(out) * kLanes);
    linalg::LaneGemm(out, in, params_.data() + WeightOffset(l), in, 1,
                     params_.data() + BiasOffset(l), input.data(),
                     act.data());
    if (l + 1 < num_layers()) {
      for (double& v : act) v = std::max(0.0, v);  // ReLU
    }
    input = act;
  }
  return act;  // num_classes x kLanes logits
}

double Mlp::LossAndGradient(const Dataset& data,
                            std::span<const int> batch_indices,
                            std::span<double> gradient) const {
  return LossAndGradient(data, batch_indices, gradient,
                         ThreadLocalWorkspace());
}

double Mlp::LossAndGradient(const Dataset& data,
                            std::span<const int> batch_indices,
                            std::span<double> gradient,
                            TrainingWorkspace& workspace) const {
  return ShardedLossAndGradient(*this, data, batch_indices, gradient,
                                workspace, /*pool=*/nullptr, /*shards=*/1);
}

void Mlp::EvalGradientLeaves(const Dataset& data,
                             std::span<const int> batch_indices,
                             int leaf_begin, int leaf_end,
                             std::span<double> loss_sums,
                             std::span<double> gradient_sums,
                             TrainingWorkspace& workspace) const {
  const size_t width = static_cast<size_t>(num_parameters());
  for (int l = leaf_begin; l < leaf_end; ++l) {
    const LeafRange range = GradientLeafRange(batch_indices.size(), l);
    const std::span<const int> leaf =
        batch_indices.subspan(range.begin, range.size());
    const size_t k = static_cast<size_t>(l - leaf_begin);
    loss_sums[k] = LeafLossAndGradientSums(
        data, leaf,
        gradient_sums.empty() ? std::span<double>{}
                              : gradient_sums.subspan(k * width, width),
        workspace);
  }
}

double Mlp::LeafLossAndGradientSums(const Dataset& data,
                                    std::span<const int> leaf,
                                    std::span<double> gradient,
                                    TrainingWorkspace& workspace) const {
  NETMAX_CHECK_EQ(data.feature_dim(), layer_sizes_.front());
  const bool want_gradient = !gradient.empty();
  if (want_gradient) {
    NETMAX_CHECK_EQ(static_cast<int>(gradient.size()), num_parameters());
  }

  const size_t batch = leaf.size();
  const size_t in0 = static_cast<size_t>(layer_sizes_.front());
  const std::span<double> input_rows =
      want_gradient ? workspace.Scratch(kSlotInputRows, batch * in0)
                    : std::span<double>{};
  std::span<double> logits = LaneForward(data, leaf, input_rows, workspace);
  const size_t num_classes = static_cast<size_t>(layer_sizes_.back());

  // Softmax down each real lane; the logits become probabilities. Losses
  // accumulate in sample order, as in the per-sample loop. The lanes past
  // the leaf are never read by a sum.
  double total_loss = 0.0;
  for (size_t s = 0; s < batch; ++s) {
    StridedSoftmaxInPlace(logits.data() + s, num_classes, kLanes);
    const size_t label = static_cast<size_t>(data.label(leaf[s]));
    total_loss += CrossEntropy(logits[label * kLanes + s]);
  }
  if (!want_gradient) return total_loss;

  // The probabilities become the deltas: dL/dlogits = p - onehot.
  for (size_t s = 0; s < batch; ++s) {
    const size_t label = static_cast<size_t>(data.label(leaf[s]));
    logits[label * kLanes + s] -= 1.0;
  }

  // Backward, one lane-layout delta block per layer. The weight gradient is
  // delta^T * input and the bias gradient the delta sums, each written (not
  // accumulated) from 0.0 in sample order; the delta propagates through W^T
  // read in place, masked by the previous layer's ReLU.
  int ping = 0;
  std::span<double> delta = logits;
  for (int l = num_layers() - 1; l >= 0; --l) {
    const int in = layer_sizes_[static_cast<size_t>(l)];
    const int out = layer_sizes_[static_cast<size_t>(l) + 1];
    const std::span<const double> input_lanes = workspace.Scratch(
        l == 0 ? kSlotInputLanes : kSlotActBase + l - 1,
        static_cast<size_t>(in) * kLanes);
    std::span<const double> rows = input_rows;
    if (l > 0) {
      // Row-major copy of this layer's input for the weight gradient.
      std::span<double> hidden_rows = workspace.Scratch(
          kSlotHiddenRows, batch * static_cast<size_t>(in));
      for (size_t s = 0; s < batch; ++s) {
        for (size_t u = 0; u < static_cast<size_t>(in); ++u) {
          hidden_rows[s * static_cast<size_t>(in) + u] =
              input_lanes[u * kLanes + s];
        }
      }
      rows = hidden_rows;
    }
    linalg::LaneGemmAtB(static_cast<int>(batch), out, in, delta.data(),
                        rows.data(), in, gradient.data() + WeightOffset(l),
                        in);
    linalg::LaneRowSums(static_cast<int>(batch), out, delta.data(),
                        gradient.data() + BiasOffset(l));
    if (l > 0) {
      std::span<double> prev_delta = workspace.Scratch(
          kSlotDeltaBase + ping, static_cast<size_t>(in) * kLanes);
      ping ^= 1;
      linalg::LaneGemm(in, out, params_.data() + WeightOffset(l), 1, in,
                       nullptr, delta.data(), prev_delta.data());
      // ReLU mask as a branchless select (the branchy form mispredicts on
      // ~half the units and costs more than the surrounding GEMMs).
      for (size_t i = 0; i < prev_delta.size(); ++i) {
        prev_delta[i] = input_lanes[i] > 0.0 ? prev_delta[i] : 0.0;
      }
      delta = prev_delta;
    }
  }
  return total_loss;
}

int Mlp::Predict(const Dataset& data, int index) const {
  int prediction = 0;
  PredictBatch(data, {&index, 1}, {&prediction, 1}, ThreadLocalWorkspace());
  return prediction;
}

void Mlp::PredictBatch(const Dataset& data, std::span<const int> indices,
                       std::span<int> out,
                       TrainingWorkspace& workspace) const {
  NETMAX_CHECK_EQ(indices.size(), out.size());
  NETMAX_CHECK_EQ(data.feature_dim(), layer_sizes_.front());
  const size_t num_classes = static_cast<size_t>(layer_sizes_.back());
  for (size_t start = 0; start < indices.size(); start += kLanes) {
    const size_t count = std::min(kLanes, indices.size() - start);
    const std::span<const double> logits = LaneForward(
        data, indices.subspan(start, count), {}, workspace);
    // Argmax down each real lane; ties break toward the lowest class index.
    for (size_t s = 0; s < count; ++s) {
      size_t best = 0;
      for (size_t c = 1; c < num_classes; ++c) {
        if (logits[c * kLanes + s] > logits[best * kLanes + s]) best = c;
      }
      out[start + s] = static_cast<int>(best);
    }
  }
}

}  // namespace netmax::ml
