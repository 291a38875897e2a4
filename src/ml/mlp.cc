#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "linalg/blas.h"
#include "linalg/vector_ops.h"
#include "ml/sharding.h"

namespace netmax::ml {
namespace {

// Workspace slot layout: gathered input matrix, then one activation matrix
// per layer, then two ping-pong delta matrices after the activations.
constexpr int kSlotInput = 0;
constexpr int kSlotActBase = 1;

// Row-wise argmax of a row-major (rows x cols) logits matrix into `out`
// (size rows); ties break toward the lowest class index.
void ArgmaxRows(std::span<const double> logits, size_t rows, size_t cols,
                std::span<int> out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* row = logits.data() + r * cols;
    size_t best = 0;
    for (size_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<int>(best);
  }
}

}  // namespace

void SoftmaxInPlace(std::span<double> logits) {
  double max_logit = logits[0];
  for (double v : logits) max_logit = std::max(max_logit, v);
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - max_logit);
    total += v;
  }
  for (double& v : logits) v /= total;
}

double CrossEntropyFromProbabilities(std::span<const double> probabilities,
                                     int label) {
  constexpr double kFloor = 1e-12;
  return -std::log(std::max(probabilities[static_cast<size_t>(label)], kFloor));
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

std::span<double> Mlp::ForwardBatch(const Dataset& data,
                                    std::span<const int> indices,
                                    TrainingWorkspace& workspace) const {
  const size_t batch = indices.size();
  const size_t in0 = static_cast<size_t>(layer_sizes_.front());

  // Gather the batch's feature rows into one contiguous matrix.
  std::span<double> x = workspace.Scratch(kSlotInput, batch * in0);
  for (size_t s = 0; s < batch; ++s) {
    const std::span<const double> row = data.features(indices[s]);
    std::copy(row.begin(), row.end(),
              x.begin() + static_cast<ptrdiff_t>(s * in0));
  }

  // Each layer is one batch x out = (batch x in) * W^T product, run as
  // bias-seeded i-k-j GEMM against a transposed weight copy so the inner loop
  // streams contiguously (vectorizes at SSE peak). Every output element still
  // sums bias-first then ascending over `in`, exactly like the per-sample
  // dot-product loop.
  const int wt_slot_base = kSlotActBase + num_layers() + 2;
  std::span<double> input = x;
  std::span<double> act;
  for (int l = 0; l < num_layers(); ++l) {
    const int in = layer_sizes_[static_cast<size_t>(l)];
    const int out = layer_sizes_[static_cast<size_t>(l) + 1];
    std::span<double> wt = workspace.Scratch(
        wt_slot_base + l, static_cast<size_t>(in) * static_cast<size_t>(out));
    linalg::Transpose(out, in, params_.data() + WeightOffset(l), in, wt.data(),
                      out);
    act = workspace.Scratch(kSlotActBase + l, batch * static_cast<size_t>(out));
    linalg::GemmBias(static_cast<int>(batch), out, in, input.data(), in,
                     wt.data(), out, params_.data() + BiasOffset(l),
                     act.data(), out);
    if (l + 1 < num_layers()) {
      for (double& v : act) v = std::max(0.0, v);  // ReLU
    }
    input = act;
  }
  return act;  // batch x num_classes logits
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
  NETMAX_CHECK(!leaf.empty());
  NETMAX_CHECK_EQ(data.feature_dim(), layer_sizes_.front());
  const bool want_gradient = !gradient.empty();
  if (want_gradient) {
    NETMAX_CHECK_EQ(static_cast<int>(gradient.size()), num_parameters());
    netmax::linalg::Fill(gradient, 0.0);
  }

  const size_t batch = leaf.size();
  std::span<double> logits = ForwardBatch(data, leaf, workspace);
  const size_t num_classes =
      static_cast<size_t>(layer_sizes_.back());

  // Per-row softmax; the logits matrix becomes the probability matrix. Losses
  // accumulate in batch order, as in the per-sample loop.
  double total_loss = 0.0;
  for (size_t s = 0; s < batch; ++s) {
    std::span<double> row = logits.subspan(s * num_classes, num_classes);
    SoftmaxInPlace(row);
    total_loss += CrossEntropyFromProbabilities(row, data.label(leaf[s]));
  }
  if (!want_gradient) return total_loss;

  // The probability matrix becomes the delta matrix: dL/dlogits = p - onehot.
  for (size_t s = 0; s < batch; ++s) {
    const size_t label = static_cast<size_t>(data.label(leaf[s]));
    logits[s * num_classes + label] -= 1.0;
  }

  // Backward: weight gradients are delta^T * input (rank-1 updates in batch
  // order — the same sample-ascending accumulation as the seed loop), bias
  // gradients are delta column sums, and delta propagates through W with the
  // previous layer's ReLU mask.
  const int delta_slot_base = kSlotActBase + num_layers();
  int ping = 0;
  std::span<double> delta = logits;
  for (int l = num_layers() - 1; l >= 0; --l) {
    const int in = layer_sizes_[static_cast<size_t>(l)];
    const int out = layer_sizes_[static_cast<size_t>(l) + 1];
    const std::span<const double> layer_input =
        l == 0 ? std::span<const double>(
                     workspace.Scratch(kSlotInput,
                                       batch * static_cast<size_t>(in)))
               : std::span<const double>(
                     workspace.Scratch(kSlotActBase + l - 1,
                                       batch * static_cast<size_t>(in)));
    linalg::GemmAtBAccumulate(static_cast<int>(batch), out, in, delta.data(),
                              out, layer_input.data(), in,
                              gradient.data() + WeightOffset(l), in);
    linalg::AddRowsAccumulate(static_cast<int>(batch), out, delta.data(), out,
                              gradient.data() + BiasOffset(l));
    if (l > 0) {
      std::span<double> prev_delta = workspace.Scratch(
          delta_slot_base + ping, batch * static_cast<size_t>(in));
      ping ^= 1;
      linalg::Gemm(static_cast<int>(batch), in, out, delta.data(), out,
                   params_.data() + WeightOffset(l), in, prev_delta.data(), in);
      // ReLU mask as a branchless select (the branchy form mispredicts on
      // ~half the units and costs more than the surrounding GEMMs).
      for (size_t i = 0; i < prev_delta.size(); ++i) {
        prev_delta[i] = layer_input[i] > 0.0 ? prev_delta[i] : 0.0;
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
  if (indices.empty()) return;
  NETMAX_CHECK_EQ(data.feature_dim(), layer_sizes_.front());
  const std::span<const double> logits =
      ForwardBatch(data, indices, workspace);
  ArgmaxRows(logits, indices.size(), static_cast<size_t>(layer_sizes_.back()),
             out);
}

}  // namespace netmax::ml
