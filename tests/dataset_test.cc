#include "ml/dataset.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace netmax::ml {
namespace {

TEST(DatasetTest, AddAndAccess) {
  Dataset d(2, 3);
  d.Add(std::vector<double>{1.0, 2.0}, 0);
  d.Add(std::vector<double>{3.0, 4.0}, 2);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.label(1), 2);
  EXPECT_DOUBLE_EQ(d.features(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.features(1)[0], 3.0);
}

TEST(DatasetTest, RejectsBadLabel) {
  Dataset d(2, 3);
  EXPECT_DEATH({ d.Add(std::vector<double>{1.0, 2.0}, 3); }, "label");
  EXPECT_DEATH({ d.Add(std::vector<double>{1.0, 2.0}, -1); }, "label");
}

TEST(DatasetTest, RejectsBadDim) {
  Dataset d(2, 3);
  EXPECT_DEATH({ d.Add(std::vector<double>{1.0}, 0); }, "Check failed");
}

TEST(DatasetTest, CountLabel) {
  Dataset d(1, 2);
  d.Add(std::vector<double>{0.0}, 0);
  d.Add(std::vector<double>{0.0}, 1);
  d.Add(std::vector<double>{0.0}, 1);
  EXPECT_EQ(d.CountLabel(0), 1);
  EXPECT_EQ(d.CountLabel(1), 2);
}

TEST(SyntheticTest, GeneratesRequestedShape) {
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 8;
  spec.num_train = 100;
  spec.num_test = 40;
  DatasetPair pair = GenerateSynthetic(spec);
  EXPECT_EQ(pair.train.size(), 100);
  EXPECT_EQ(pair.test.size(), 40);
  EXPECT_EQ(pair.train.feature_dim(), 8);
  EXPECT_EQ(pair.train.num_classes(), 4);
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.num_train = 50;
  spec.num_test = 10;
  DatasetPair a = GenerateSynthetic(spec);
  DatasetPair b = GenerateSynthetic(spec);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (int i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train.label(i), b.train.label(i));
    EXPECT_DOUBLE_EQ(a.train.features(i)[0], b.train.features(i)[0]);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticSpec spec_a;
  spec_a.seed = 1;
  SyntheticSpec spec_b;
  spec_b.seed = 2;
  DatasetPair a = GenerateSynthetic(spec_a);
  DatasetPair b = GenerateSynthetic(spec_b);
  bool any_diff = false;
  for (int i = 0; i < a.train.size() && !any_diff; ++i) {
    if (a.train.features(i)[0] != b.train.features(i)[0]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, AllLabelsPresent) {
  DatasetPair pair = GenerateSynthetic(Cifar10SimSpec());
  for (int c = 0; c < 10; ++c) {
    EXPECT_GT(pair.train.CountLabel(c), 0) << "class " << c;
  }
}

TEST(SyntheticTest, PresetClassCountsMatchPaperDatasets) {
  EXPECT_EQ(MnistSimSpec().num_classes, 10);
  EXPECT_EQ(Cifar10SimSpec().num_classes, 10);
  EXPECT_EQ(Cifar100SimSpec().num_classes, 100);
  EXPECT_EQ(TinyImageNetSimSpec().num_classes, 200);
  EXPECT_EQ(ImageNetSimSpec().num_classes, 1000);
}

TEST(PartitionUniformTest, CoversAllExamplesEvenly) {
  DatasetPair pair = GenerateSynthetic(Cifar10SimSpec());
  const int workers = 8;
  std::vector<Dataset> shards = PartitionUniform(pair.train, workers, 7);
  ASSERT_EQ(shards.size(), static_cast<size_t>(workers));
  int total = 0;
  for (const Dataset& shard : shards) {
    total += shard.size();
    EXPECT_NEAR(shard.size(), pair.train.size() / workers, 1);
  }
  EXPECT_EQ(total, pair.train.size());
}

TEST(PartitionBySegmentsTest, SizesProportionalToSegments) {
  DatasetPair pair = GenerateSynthetic(Cifar10SimSpec());
  // Paper Section V-F: first server <1,1,1,1>, second server <2,1,2,1>.
  const std::vector<int> segments = {1, 1, 1, 1, 2, 1, 2, 1};
  auto shards = PartitionBySegments(pair.train, segments, 7);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 8u);
  int total = 0;
  for (const Dataset& s : *shards) total += s.size();
  EXPECT_EQ(total, pair.train.size());
  const double per_segment = pair.train.size() / 10.0;
  for (size_t w = 0; w < segments.size(); ++w) {
    EXPECT_NEAR((*shards)[w].size(), segments[w] * per_segment,
                per_segment * 0.05 + 2);
  }
  // Worker 4 (2 segments) holds about twice worker 0 (1 segment).
  EXPECT_NEAR(static_cast<double>((*shards)[4].size()) / (*shards)[0].size(),
              2.0, 0.1);
}

TEST(PartitionBySegmentsTest, RejectsBadInput) {
  DatasetPair pair = GenerateSynthetic(Cifar10SimSpec());
  EXPECT_FALSE(PartitionBySegments(pair.train, {}, 1).ok());
  EXPECT_FALSE(PartitionBySegments(pair.train, {1, 0}, 1).ok());
  EXPECT_FALSE(PartitionBySegments(pair.train, {1, -2}, 1).ok());
}

TEST(PartitionWithLostLabelsTest, LostLabelsAbsent) {
  DatasetPair pair = GenerateSynthetic(MnistSimSpec());
  const auto lost = MnistLostLabels();
  auto shards = PartitionWithLostLabels(pair.train, lost, 3);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 8u);
  for (size_t w = 0; w < lost.size(); ++w) {
    for (int label : lost[w]) {
      EXPECT_EQ((*shards)[w].CountLabel(label), 0)
          << "worker " << w << " should have lost label " << label;
    }
  }
}

TEST(PartitionWithLostLabelsTest, RetainedLabelsSharedEvenly) {
  DatasetPair pair = GenerateSynthetic(MnistSimSpec());
  const auto lost = MnistLostLabels();
  auto shards = PartitionWithLostLabels(pair.train, lost, 3);
  ASSERT_TRUE(shards.ok());
  // Label 2 is lost only by w0, so 7 workers share it roughly equally.
  const int total_label2 = pair.train.CountLabel(2);
  for (size_t w = 1; w < 8; ++w) {
    EXPECT_NEAR((*shards)[w].CountLabel(2), total_label2 / 7.0,
                total_label2 * 0.05 + 2);
  }
}

TEST(PartitionWithLostLabelsTest, NoExamplesDroppedUnlessLostByAll) {
  DatasetPair pair = GenerateSynthetic(MnistSimSpec());
  auto shards = PartitionWithLostLabels(pair.train, MnistLostLabels(), 3);
  ASSERT_TRUE(shards.ok());
  int total = 0;
  for (const Dataset& s : *shards) total += s.size();
  // In Table IV every label is retained by at least one worker.
  EXPECT_EQ(total, pair.train.size());
}

TEST(PartitionWithLostLabelsTest, RejectsOutOfRangeLabel) {
  DatasetPair pair = GenerateSynthetic(MnistSimSpec());
  EXPECT_FALSE(PartitionWithLostLabels(pair.train, {{10}}, 1).ok());
  EXPECT_FALSE(PartitionWithLostLabels(pair.train, {{-1}}, 1).ok());
}

TEST(PaperLabelMapsTest, ShapesMatchTables) {
  EXPECT_EQ(MnistLostLabels().size(), 8u);         // Table IV: 8 workers
  EXPECT_EQ(CloudRegionLostLabels().size(), 6u);   // Table VII: 6 regions
  for (const auto& lost : MnistLostLabels()) EXPECT_EQ(lost.size(), 3u);
  for (const auto& lost : CloudRegionLostLabels()) EXPECT_EQ(lost.size(), 3u);
}

TEST(BatchSamplerTest, EpochCoversShardExactlyOnce) {
  Dataset d(1, 2);
  for (int i = 0; i < 10; ++i) d.Add(std::vector<double>{0.0}, i % 2);
  BatchSampler sampler(&d, 3, 5);
  std::multiset<int> seen;
  // One epoch = ceil(10/3) = 4 batches.
  EXPECT_EQ(sampler.batches_per_epoch(), 4);
  for (int b = 0; b < 4; ++b) {
    for (int idx : sampler.NextBatch()) seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1u);
  EXPECT_EQ(sampler.epochs_completed(), 1);
}

TEST(BatchSamplerTest, ReshufflesBetweenEpochs) {
  Dataset d(1, 2);
  for (int i = 0; i < 64; ++i) d.Add(std::vector<double>{0.0}, 0);
  BatchSampler sampler(&d, 64, 5);
  const std::vector<int> epoch1 = sampler.NextBatch();
  const std::vector<int> epoch2 = sampler.NextBatch();
  EXPECT_NE(epoch1, epoch2);  // astronomically unlikely to coincide
}

TEST(BatchSamplerTest, DiesOnEmptyShard) {
  Dataset d(1, 2);
  EXPECT_DEATH({ BatchSampler sampler(&d, 4, 5); }, "empty");
}

}  // namespace
}  // namespace netmax::ml
