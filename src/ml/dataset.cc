#include "ml/dataset.h"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.h"

namespace netmax::ml {

Dataset::Dataset(int feature_dim, int num_classes)
    : feature_dim_(feature_dim), num_classes_(num_classes) {
  NETMAX_CHECK_GT(feature_dim, 0);
  NETMAX_CHECK_GT(num_classes, 1);
}

void Dataset::Add(std::span<const double> features, int label) {
  NETMAX_CHECK_EQ(static_cast<int>(features.size()), feature_dim_);
  NETMAX_CHECK(label >= 0 && label < num_classes_) << "label " << label;
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

std::span<const double> Dataset::features(int index) const {
  NETMAX_CHECK(index >= 0 && index < size());
  return {features_.data() + static_cast<size_t>(index) * feature_dim_,
          static_cast<size_t>(feature_dim_)};
}

int Dataset::label(int index) const {
  NETMAX_CHECK(index >= 0 && index < size());
  return labels_[static_cast<size_t>(index)];
}

int Dataset::CountLabel(int label) const {
  int count = 0;
  for (int l : labels_) {
    if (l == label) ++count;
  }
  return count;
}

DatasetPair GenerateSynthetic(const SyntheticSpec& spec) {
  NETMAX_CHECK_GT(spec.num_classes, 1);
  NETMAX_CHECK_GT(spec.feature_dim, 0);
  Rng rng(spec.seed);

  // Class means: random directions scaled to the separation radius.
  std::vector<std::vector<double>> means(static_cast<size_t>(spec.num_classes));
  Rng mean_rng = rng.Fork(0);
  for (auto& mean : means) {
    mean.resize(static_cast<size_t>(spec.feature_dim));
    for (double& v : mean) v = mean_rng.Gaussian();
    const double norm = netmax::linalg::Norm(mean);
    if (norm > 0.0) {
      netmax::linalg::Scale(spec.class_separation / norm, mean);
    }
  }

  auto sample_into = [&](Dataset& out, int count, Rng& sample_rng) {
    std::vector<double> x(static_cast<size_t>(spec.feature_dim));
    for (int i = 0; i < count; ++i) {
      const int label =
          static_cast<int>(sample_rng.UniformInt(0, spec.num_classes - 1));
      const auto& mean = means[static_cast<size_t>(label)];
      for (int d = 0; d < spec.feature_dim; ++d) {
        x[static_cast<size_t>(d)] =
            mean[static_cast<size_t>(d)] +
            sample_rng.Gaussian(0.0, spec.noise_stddev);
      }
      out.Add(x, label);
    }
  };

  DatasetPair pair{Dataset(spec.feature_dim, spec.num_classes),
                   Dataset(spec.feature_dim, spec.num_classes)};
  Rng train_rng = rng.Fork(1);
  Rng test_rng = rng.Fork(2);
  sample_into(pair.train, spec.num_train, train_rng);
  sample_into(pair.test, spec.num_test, test_rng);
  return pair;
}

SyntheticSpec MnistSimSpec() {
  SyntheticSpec spec;
  spec.name = "mnist-sim";
  spec.num_classes = 10;
  spec.feature_dim = 32;
  spec.num_train = 4096;
  spec.num_test = 1024;
  // MNIST is nearly separable; this separation gives a high-90s ceiling
  // under IID sharding while leaving room for a visible non-IID penalty.
  spec.class_separation = 5.0;
  spec.noise_stddev = 1.0;
  spec.seed = 101;
  return spec;
}

SyntheticSpec Cifar10SimSpec() {
  SyntheticSpec spec;
  spec.name = "cifar10-sim";
  spec.num_classes = 10;
  spec.feature_dim = 32;
  spec.num_train = 4096;
  spec.num_test = 1024;
  // Overlap tuned so well-trained models plateau near the paper's ~90%.
  spec.class_separation = 3.1;
  spec.noise_stddev = 1.0;
  spec.seed = 102;
  return spec;
}

SyntheticSpec Cifar100SimSpec() {
  SyntheticSpec spec;
  spec.name = "cifar100-sim";
  spec.num_classes = 100;
  spec.feature_dim = 64;
  spec.num_train = 8192;
  spec.num_test = 2048;
  // 100-way problem with heavy overlap: ~72% ceiling (paper: 71-72%).
  spec.class_separation = 4.2;
  spec.noise_stddev = 1.0;
  spec.seed = 103;
  return spec;
}

SyntheticSpec TinyImageNetSimSpec() {
  SyntheticSpec spec;
  spec.name = "tiny-imagenet-sim";
  spec.num_classes = 200;
  spec.feature_dim = 64;
  spec.num_train = 10000;
  spec.num_test = 2000;
  // Hard 200-way problem: ~57% band (paper: ~57%) at bench-scale training
  // budgets (a few thousand samples, ~24 epochs).
  spec.class_separation = 4.6;
  spec.noise_stddev = 1.0;
  spec.seed = 104;
  return spec;
}

SyntheticSpec ImageNetSimSpec() {
  SyntheticSpec spec;
  spec.name = "imagenet-sim";
  spec.num_classes = 1000;
  spec.feature_dim = 96;
  spec.num_train = 20000;
  spec.num_test = 4000;
  // 1000-way with few samples per class at bench scale; wide separation
  // keeps prototype learning feasible there (paper ResNet50: ~73%).
  spec.class_separation = 8.0;
  spec.noise_stddev = 1.0;
  spec.seed = 105;
  return spec;
}

std::vector<Dataset> PartitionUniform(const Dataset& data, int num_workers,
                                      uint64_t seed) {
  NETMAX_CHECK_GT(num_workers, 0);
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);

  std::vector<Dataset> shards;
  shards.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    shards.emplace_back(data.feature_dim(), data.num_classes());
  }
  for (int i = 0; i < data.size(); ++i) {
    const int w = i % num_workers;
    const int idx = order[static_cast<size_t>(i)];
    shards[static_cast<size_t>(w)].Add(data.features(idx), data.label(idx));
  }
  return shards;
}

StatusOr<std::vector<Dataset>> PartitionBySegments(
    const Dataset& data, const std::vector<int>& segments, uint64_t seed) {
  if (segments.empty()) return InvalidArgumentError("no workers");
  int total_segments = 0;
  for (int s : segments) {
    if (s <= 0) return InvalidArgumentError("segment counts must be positive");
    total_segments += s;
  }
  if (total_segments > data.size()) {
    return InvalidArgumentError("more segments than examples");
  }
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);

  std::vector<Dataset> shards;
  shards.reserve(segments.size());
  for (size_t w = 0; w < segments.size(); ++w) {
    shards.emplace_back(data.feature_dim(), data.num_classes());
  }
  // Assign examples round-robin over "segment slots" so every segment has a
  // near-equal share, then fold slots into workers.
  std::vector<int> slot_to_worker;
  for (size_t w = 0; w < segments.size(); ++w) {
    for (int s = 0; s < segments[w]; ++s) {
      slot_to_worker.push_back(static_cast<int>(w));
    }
  }
  for (int i = 0; i < data.size(); ++i) {
    const int slot = i % total_segments;
    const int w = slot_to_worker[static_cast<size_t>(slot)];
    const int idx = order[static_cast<size_t>(i)];
    shards[static_cast<size_t>(w)].Add(data.features(idx), data.label(idx));
  }
  return shards;
}

StatusOr<std::vector<Dataset>> PartitionWithLostLabels(
    const Dataset& data, const std::vector<std::vector<int>>& lost_labels,
    uint64_t seed) {
  const int num_workers = static_cast<int>(lost_labels.size());
  if (num_workers == 0) return InvalidArgumentError("no workers");
  for (const auto& lost : lost_labels) {
    for (int label : lost) {
      if (label < 0 || label >= data.num_classes()) {
        return InvalidArgumentError("lost label out of range");
      }
    }
  }
  // retains[w][label]: worker w keeps examples of `label`.
  std::vector<std::vector<bool>> retains(
      static_cast<size_t>(num_workers),
      std::vector<bool>(static_cast<size_t>(data.num_classes()), true));
  for (int w = 0; w < num_workers; ++w) {
    for (int label : lost_labels[static_cast<size_t>(w)]) {
      retains[static_cast<size_t>(w)][static_cast<size_t>(label)] = false;
    }
  }

  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(data.size()));
  for (int i = 0; i < data.size(); ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);

  std::vector<Dataset> shards;
  shards.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    shards.emplace_back(data.feature_dim(), data.num_classes());
  }
  // Round-robin each label's examples over the workers that retain it.
  std::vector<int> label_cursor(static_cast<size_t>(data.num_classes()), 0);
  for (int i = 0; i < data.size(); ++i) {
    const int idx = order[static_cast<size_t>(i)];
    const int label = data.label(idx);
    std::vector<int> holders;
    for (int w = 0; w < num_workers; ++w) {
      if (retains[static_cast<size_t>(w)][static_cast<size_t>(label)]) {
        holders.push_back(w);
      }
    }
    if (holders.empty()) continue;  // label lost by everyone
    const int w = holders[static_cast<size_t>(
        label_cursor[static_cast<size_t>(label)]++ %
        static_cast<int>(holders.size()))];
    shards[static_cast<size_t>(w)].Add(data.features(idx), data.label(idx));
  }
  return shards;
}

std::vector<std::vector<int>> MnistLostLabels() {
  // Table IV: w0..w3 on server 1, w4..w7 on server 2.
  return {
      {0, 1, 2},  // w0
      {0, 1, 3},  // w1
      {0, 1, 4},  // w2
      {0, 1, 5},  // w3
      {5, 6, 7},  // w4
      {5, 6, 8},  // w5
      {5, 6, 9},  // w6
      {5, 6, 0},  // w7
  };
}

std::vector<std::vector<int>> CloudRegionLostLabels() {
  // Table VII: US West, US East, Ireland, Mumbai, Singapore, Tokyo.
  return {
      {0, 1, 2},  // US West
      {1, 2, 3},  // US East
      {2, 3, 4},  // Ireland
      {4, 5, 6},  // Mumbai
      {5, 6, 7},  // Singapore
      {6, 7, 8},  // Tokyo
  };
}

BatchSampler::BatchSampler(const Dataset* dataset, int batch_size,
                           uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), rng_(seed) {
  NETMAX_CHECK(dataset != nullptr);
  NETMAX_CHECK_GT(dataset->size(), 0) << "empty shard";
  NETMAX_CHECK_GE(batch_size, 1);
  order_.resize(static_cast<size_t>(dataset->size()));
  for (int i = 0; i < dataset->size(); ++i) order_[static_cast<size_t>(i)] = i;
  Reshuffle();
}

void BatchSampler::Reshuffle() {
  rng_.Shuffle(order_);
  cursor_ = 0;
}

std::vector<int> BatchSampler::NextBatch() {
  std::vector<int> batch;
  NextBatch(batch);
  return batch;
}

void BatchSampler::NextBatch(std::vector<int>& batch) {
  batch.clear();
  batch.reserve(static_cast<size_t>(batch_size_));
  for (int k = 0; k < batch_size_ && cursor_ < order_.size(); ++k) {
    batch.push_back(order_[cursor_++]);
  }
  if (cursor_ >= order_.size()) {
    ++epochs_completed_;
    Reshuffle();
  }
}

int64_t BatchSampler::batches_per_epoch() const {
  return (dataset_->size() + batch_size_ - 1) / batch_size_;
}

Status BatchSampler::TransferState(StateIo& io) {
  const size_t shard_size = order_.size();
  NETMAX_RETURN_IF_ERROR(io(rng_, order_));
  if (io.restoring() && order_.size() != shard_size) {
    return InvalidArgumentError(
        "checkpointed sampler permutation covers " +
        std::to_string(order_.size()) + " examples, shard has " +
        std::to_string(shard_size));
  }
  uint64_t cursor = cursor_;
  NETMAX_RETURN_IF_ERROR(io(cursor, epochs_completed_));
  if (io.restoring() && cursor > order_.size()) {
    return InvalidArgumentError("checkpointed sampler cursor out of range");
  }
  cursor_ = static_cast<size_t>(cursor);
  return Status::Ok();
}

}  // namespace netmax::ml
