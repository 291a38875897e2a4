#ifndef NETMAX_ML_DATASET_H_
#define NETMAX_ML_DATASET_H_

// In-memory classification datasets, synthetic generators, and the paper's
// partition schemes.
//
// The paper trains on MNIST / CIFAR10 / CIFAR100 / Tiny-ImageNet / ImageNet;
// those corpora are not available here, so each is substituted by a seeded
// Gaussian-mixture classification problem with the same class structure
// (10/100/200/1000 classes). What the decentralized-training experiments
// exercise is data heterogeneity across workers, which is reproduced exactly:
//  * uniform partitioning (Section V-B..E),
//  * segment-weighted partitioning with per-worker batch sizes
//    (Section V-F, e.g. <1,1,1,1,2,1,2,1> segments),
//  * label-removal non-IID partitioning (Tables IV and VII).

#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"

namespace netmax::ml {

// Dense feature vectors with integer class labels, stored flat.
class Dataset {
 public:
  Dataset(int feature_dim, int num_classes);

  int feature_dim() const { return feature_dim_; }
  int num_classes() const { return num_classes_; }
  int size() const { return static_cast<int>(labels_.size()); }
  bool empty() const { return labels_.empty(); }

  // Appends one example. `features.size()` must equal feature_dim(); `label`
  // must be in [0, num_classes).
  void Add(std::span<const double> features, int label);

  std::span<const double> features(int index) const;
  int label(int index) const;

  // Number of examples carrying `label`.
  int CountLabel(int label) const;

 private:
  int feature_dim_;
  int num_classes_;
  std::vector<double> features_;  // size() * feature_dim_
  std::vector<int> labels_;
};

// Train/test pair drawn from the same distribution.
struct DatasetPair {
  Dataset train;
  Dataset test;
};

// Parameters of the synthetic Gaussian-mixture generator. Class means are
// placed at random on the sphere of radius `class_separation`; features are
// mean + N(0, noise_stddev^2 I). The separation:noise ratio controls the Bayes
// accuracy (how high test accuracy can go), which each named preset calibrates
// to its paper counterpart.
struct SyntheticSpec {
  std::string name;
  int num_classes = 10;
  int feature_dim = 32;
  int num_train = 4096;
  int num_test = 1024;
  double class_separation = 3.0;
  double noise_stddev = 1.0;
  uint64_t seed = 1;
};

// Generates a train/test pair per `spec`. Deterministic in spec.seed.
DatasetPair GenerateSynthetic(const SyntheticSpec& spec);

// Named presets standing in for the paper's datasets. The seeds differ per
// preset so their mixtures are unrelated.
SyntheticSpec MnistSimSpec();
SyntheticSpec Cifar10SimSpec();
SyntheticSpec Cifar100SimSpec();
SyntheticSpec TinyImageNetSimSpec();
SyntheticSpec ImageNetSimSpec();

// --- Partitioners -----------------------------------------------------------

// Shuffles and splits `data` into `num_workers` near-equal shards.
std::vector<Dataset> PartitionUniform(const Dataset& data, int num_workers,
                                      uint64_t seed);

// Splits `data` into sum(segments) equal segments and gives worker i
// `segments[i]` of them (Section V-F). Workers with more segments hold
// proportionally more data; the paper pairs this with batch size
// 64 * segments[i].
StatusOr<std::vector<Dataset>> PartitionBySegments(
    const Dataset& data, const std::vector<int>& segments, uint64_t seed);

// Non-IID label-removal partitioning (Tables IV and VII): worker i receives an
// equal share of every label NOT listed in `lost_labels[i]`; examples of a
// label are divided evenly among the workers that retain that label. Labels
// lost by every worker vanish from the training set. Label ids outside
// [0, num_classes) are invalid.
StatusOr<std::vector<Dataset>> PartitionWithLostLabels(
    const Dataset& data, const std::vector<std::vector<int>>& lost_labels,
    uint64_t seed);

// Table IV of the paper: lost labels for 8 workers training MNIST across two
// servers (w0..w3 on server 1, w4..w7 on server 2).
std::vector<std::vector<int>> MnistLostLabels();

// Table VII of the paper: lost labels for the 6 EC2 regions
// (US West, US East, Ireland, Mumbai, Singapore, Tokyo).
std::vector<std::vector<int>> CloudRegionLostLabels();

// Iterates a worker's shard in shuffled minibatches; reshuffles at every epoch
// boundary so "epoch" means one pass over the shard, as in the paper.
class BatchSampler {
 public:
  // `dataset` must outlive the sampler. batch_size >= 1.
  BatchSampler(const Dataset* dataset, int batch_size, uint64_t seed);

  // Returns the indices of the next minibatch (size <= batch_size; the last
  // batch of an epoch may be short). Advances epoch counters.
  std::vector<int> NextBatch();

  // Allocation-free variant for the training hot loop: clears and refills
  // `batch` in place (its capacity is reused across calls).
  void NextBatch(std::vector<int>& batch);

  // Number of completed passes over the shard.
  int64_t epochs_completed() const { return epochs_completed_; }
  int64_t batches_per_epoch() const;
  int batch_size() const { return batch_size_; }

  // Checkpoint support: the shuffle RNG, the current epoch's permutation,
  // the position within it, and the epoch count. The dataset pointer and
  // batch size stay whatever this instance was constructed with; a restore
  // rejects a saved permutation whose length differs from the shard size.
  Status TransferState(StateIo& io);

 private:
  void Reshuffle();

  const Dataset* dataset_;
  int batch_size_;
  netmax::Rng rng_;
  std::vector<int> order_;
  size_t cursor_ = 0;
  int64_t epochs_completed_ = 0;
};

}  // namespace netmax::ml

#endif  // NETMAX_ML_DATASET_H_
