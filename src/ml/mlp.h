#ifndef NETMAX_ML_MLP_H_
#define NETMAX_ML_MLP_H_

// Multi-layer perceptron with ReLU activations and a softmax cross-entropy
// head: the one trainable model of the reproduction. Decentralized SGD needs
// three things from a model: a flat parameter vector (what workers exchange
// in Algorithm 2), minibatch loss+gradient (line 11's local update), and
// prediction (test accuracy). The consensus / gossip dynamics only interact
// with the flat parameter vector, so an MLP exercises exactly the code path a
// ResNet would, at laptop scale; the paper's networks enter only through
// their ml::ModelProfile costs. Gradients are verified against finite
// differences and the seed's per-sample reference in tests.

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/workspace.h"

namespace netmax::ml {

class Mlp {
 public:
  // layer_sizes = {input_dim, hidden..., num_classes}; at least {in, out}.
  // Parameters are stored flat, layer by layer, each layer as
  // [W row-major (out x in) | b (out)]. Copies are deep (architecture +
  // parameters).
  explicit Mlp(std::vector<int> layer_sizes);

  int num_parameters() const;

  // Flat view of the parameters; consensus updates mutate this in place.
  std::span<double> parameters() { return params_; }
  std::span<const double> parameters() const { return params_; }

  // (Re-)initializes the parameters (He fan-in Gaussian weights, zero
  // biases), deterministically in `seed`.
  void InitializeParameters(uint64_t seed);

  // Computes the mean cross-entropy loss over `batch_indices` of `data` and,
  // if `gradient` is non-empty, writes d(loss)/d(parameters) into it
  // (`gradient.size()` must equal num_parameters()). Does not modify the
  // model. Returns the loss. Runs the workspace overload below on the calling
  // thread's workspace.
  double LossAndGradient(const Dataset& data,
                         std::span<const int> batch_indices,
                         std::span<double> gradient) const;

  // Workspace overload: the zero-allocation batched hot path. Each gradient
  // leaf (ml/sharding.h, at most 8 samples) runs in lane layout
  // (linalg/blas.h): the leaf's samples fill one 8-double vector per unit,
  // and each layer is one lane GEMM against the weights as stored — W
  // forward, W^T for the deltas — with the weight and bias gradients written
  // from 0.0 by the write-form kernels. Every buffer is carved from
  // `workspace`; leaf partials combine by the fixed pairwise tree, so this
  // serial call is bit-identical to the sharded parallel evaluation at any
  // shard/thread count. Within a leaf the summation order is the per-sample
  // formulation's (bias first, then ascending indices; samples ascending).
  double LossAndGradient(const Dataset& data,
                         std::span<const int> batch_indices,
                         std::span<double> gradient,
                         TrainingWorkspace& workspace) const;

  // Shard-range entry point of the leaf decomposition (ml/sharding.h): for
  // each leaf l in [leaf_begin, leaf_end) of GradientLeafRange(batch, l),
  // writes the UNSCALED loss sum over the leaf's samples into
  // loss_sums[l - leaf_begin] and, when `gradient_sums` is non-empty, the
  // unscaled gradient sum into
  //   gradient_sums.subspan((l - leaf_begin) * num_parameters(),
  //                         num_parameters()).
  // Pure with respect to the model and dataset (safe to run concurrently for
  // disjoint output slices and distinct workspaces). This slicing loop is
  // the bit-identity contract: a leaf's partial depends only on its samples,
  // never on which task or which range evaluates it.
  void EvalGradientLeaves(const Dataset& data,
                          std::span<const int> batch_indices, int leaf_begin,
                          int leaf_end, std::span<double> loss_sums,
                          std::span<double> gradient_sums,
                          TrainingWorkspace& workspace) const;

  // Predicted class for example `index` of `data`.
  int Predict(const Dataset& data, int index) const;

  // Batched prediction: writes the predicted class of every `indices[i]` to
  // `out[i]` (`out.size()` must equal `indices.size()`), running the lane
  // forward pass over blocks of 8 samples; bit-identical to single-example
  // Predict.
  // Contract: this and LossAndGradient use only the workspace's double
  // Scratch slots — IntScratch slots are reserved for callers, whose index
  // spans may be backed by them, and ReduceScratch slots for the sharding
  // driver.
  void PredictBatch(const Dataset& data, std::span<const int> indices,
                    std::span<int> out, TrainingWorkspace& workspace) const;

  // Sizes of the contiguous parameter segments that layer-wise partial sync
  // (ml/compression.h) masks over: weights + bias of layer l as one block
  // (the flat [W | b] layout above). Entries sum to num_parameters().
  std::vector<int64_t> LayerSegments() const;

  const std::vector<int>& layer_sizes() const { return layer_sizes_; }
  int num_layers() const { return static_cast<int>(layer_sizes_.size()) - 1; }

  // Offset of layer l's weight / bias block within parameters() (exposed for
  // the naive reference implementation used by the golden tests).
  size_t WeightOffset(int layer) const;
  size_t BiasOffset(int layer) const;

 private:
  // Lane-layout forward pass over `block` (1 to kGradientLeafSamples
  // samples, one lane each; linalg/blas.h): gathers the features into a
  // (input_dim x lanes) block, zeroing the lanes past the block, and runs
  // each layer as one lane GEMM against the weights as stored. Also writes
  // the block's features row-major into `input_rows` when it is non-empty.
  // Returns the (num_classes x lanes) logits block.
  std::span<double> LaneForward(const Dataset& data,
                                std::span<const int> block,
                                std::span<double> input_rows,
                                TrainingWorkspace& workspace) const;

  // One leaf of EvalGradientLeaves: the unscaled loss sum over `leaf`, with
  // the unscaled gradient sums written into `gradient` (size
  // num_parameters(), every coordinate overwritten; empty = loss only).
  double LeafLossAndGradientSums(const Dataset& data,
                                 std::span<const int> leaf,
                                 std::span<double> gradient,
                                 TrainingWorkspace& workspace) const;

  std::vector<int> layer_sizes_;
  std::vector<size_t> layer_offsets_;  // start of each layer's block
  std::vector<double> params_;
};

// Computes softmax probabilities of `logits` in place, numerically stably.
void SoftmaxInPlace(std::span<double> logits);

// Returns -log(probabilities[label]) with clamping away from 0.
double CrossEntropyFromProbabilities(std::span<const double> probabilities,
                                     int label);

}  // namespace netmax::ml

#endif  // NETMAX_ML_MLP_H_
