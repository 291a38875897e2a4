#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace netmax {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, DiscreteMatchesWeights) {
  Rng rng(19);
  const std::vector<double> p = {0.1, 0.0, 0.6, 0.3};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.Discrete(p))];
  EXPECT_EQ(counts[1], 0);  // zero-probability entry never drawn
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, DiscreteUnnormalizedWeights) {
  Rng rng(23);
  const std::vector<double> w = {2.0, 6.0};  // sums to 8, not 1
  int zero = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Discrete(w) == 0) ++zero;
  }
  EXPECT_NEAR(zero / static_cast<double>(n), 0.25, 0.01);
}

TEST(RngTest, DiscreteDiesOnAllZero) {
  Rng rng(23);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_DEATH({ (void)rng.Discrete(w); }, "zero");
}

TEST(RngTest, ForkIsIndependentOfParentSequence) {
  Rng parent(99);
  Rng child_before = parent.Fork(0);
  (void)parent.Next64();
  (void)parent.Next64();
  Rng child_after = parent.Fork(0);
  // Forking does not depend on how far the parent stream has advanced.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_before.Next64(), child_after.Next64());
  }
}

TEST(RngTest, ForkStreamsAreDistinct) {
  Rng parent(99);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i;
  rng.Shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[static_cast<size_t>(i)] != i) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t a = SplitMix64(state);
  const uint64_t b = SplitMix64(state);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), a);
  EXPECT_EQ(SplitMix64(state2), b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace netmax
