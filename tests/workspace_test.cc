// TrainingWorkspace behaviour plus the no-allocation contract of the batched
// training hot path: after a warm-up batch has sized the workspace, the
// steady-state loop (sample batch -> loss+gradient -> evaluate) must perform
// zero heap allocations. Verified with a global operator new/delete override
// local to this binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/workspace.h"

// The counting operator new below forwards to malloc, which defeats the
// compiler's new/free pairing heuristic and yields false mismatch reports.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// Counting overrides. Every form forwards to malloc/free so sanitizer builds
// still see the underlying allocations.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmax::ml {
namespace {

int64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

Dataset MakeDataset(int feature_dim, int num_classes, int count) {
  SyntheticSpec spec;
  spec.feature_dim = feature_dim;
  spec.num_classes = num_classes;
  spec.num_train = count;
  spec.num_test = 1;
  spec.seed = 5;
  return GenerateSynthetic(spec).train;
}

TEST(TrainingWorkspaceTest, ScratchGrowsOnceAndReuses) {
  TrainingWorkspace workspace;
  EXPECT_EQ(workspace.growth_count(), 0);

  std::span<double> a = workspace.Scratch(0, 100);
  EXPECT_EQ(a.size(), 100u);
  const int64_t after_first = workspace.growth_count();
  EXPECT_GT(after_first, 0);

  // Same or smaller request: same backing buffer, no growth.
  std::span<double> b = workspace.Scratch(0, 100);
  EXPECT_EQ(b.data(), a.data());
  std::span<double> c = workspace.Scratch(0, 40);
  EXPECT_EQ(c.data(), a.data());
  EXPECT_EQ(c.size(), 40u);
  EXPECT_EQ(workspace.growth_count(), after_first);

  // Larger request grows.
  workspace.Scratch(0, 200);
  EXPECT_GT(workspace.growth_count(), after_first);
}

TEST(TrainingWorkspaceTest, SlotsAreIndependent) {
  TrainingWorkspace workspace;
  std::span<double> a = workspace.Scratch(0, 16);
  std::span<double> b = workspace.Scratch(3, 16);
  std::span<int> c = workspace.IntScratch(0, 16);
  std::span<double> r = workspace.ReduceScratch(0, 16);
  EXPECT_NE(a.data(), b.data());
  EXPECT_NE(a.data(), r.data());
  a[0] = 1.0;
  b[0] = 2.0;
  c[0] = 3;
  r[0] = 4.0;
  EXPECT_EQ(workspace.Scratch(0, 16)[0], 1.0);
  EXPECT_EQ(workspace.Scratch(3, 16)[0], 2.0);
  EXPECT_EQ(workspace.IntScratch(0, 16)[0], 3);
  EXPECT_EQ(workspace.ReduceScratch(0, 16)[0], 4.0);
}

TEST(TrainingWorkspaceTest, ShardChildrenArePersistentAndIndependent) {
  TrainingWorkspace workspace;
  TrainingWorkspace& first = workspace.ShardWorkspace(0);
  TrainingWorkspace& second = workspace.ShardWorkspace(1);
  EXPECT_NE(&first, &second);
  EXPECT_NE(&first, &workspace);
  // Children persist: the same object comes back, with its buffers.
  first.Scratch(0, 8)[0] = 5.0;
  workspace.Scratch(0, 8)[0] = 6.0;
  EXPECT_EQ(&workspace.ShardWorkspace(0), &first);
  EXPECT_EQ(workspace.ShardWorkspace(0).Scratch(0, 8)[0], 5.0);
  EXPECT_EQ(workspace.Scratch(0, 8)[0], 6.0);
}

TEST(TrainingWorkspaceTest, GrowthCountIncludesShardChildren) {
  TrainingWorkspace workspace;
  workspace.Scratch(0, 8);
  const int64_t before_children = workspace.growth_count();
  TrainingWorkspace& child = workspace.ShardWorkspace(0);
  const int64_t after_child = workspace.growth_count();
  EXPECT_GT(after_child, before_children);  // child creation is a growth
  child.Scratch(0, 64);
  EXPECT_GT(workspace.growth_count(), after_child);
  // Steady state across parent + child: no further growth.
  const int64_t steady = workspace.growth_count();
  workspace.Scratch(0, 8);
  workspace.ShardWorkspace(0).Scratch(0, 64);
  EXPECT_EQ(workspace.growth_count(), steady);
}

// The tentpole contract: steady-state batches allocate nothing, on both the
// training and the evaluation path.
TEST(ZeroAllocationTest, MlpSteadyStateBatchLoop) {
  Dataset data = MakeDataset(32, 10, 64);
  Mlp model({32, 32, 10});
  model.InitializeParameters(7);
  TrainingWorkspace workspace;
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  std::vector<int> batch(32);
  std::iota(batch.begin(), batch.end(), 0);
  std::vector<int> predictions(batch.size());

  // Warm up: first batch sizes every workspace buffer.
  model.LossAndGradient(data, batch, gradient, workspace);
  model.PredictBatch(data, batch, predictions, workspace);
  const int64_t workspace_growth = workspace.growth_count();

  const int64_t allocations_before = AllocationCount();
  for (int step = 0; step < 50; ++step) {
    model.LossAndGradient(data, batch, gradient, workspace);
    model.PredictBatch(data, batch, predictions, workspace);
  }
  EXPECT_EQ(AllocationCount(), allocations_before)
      << "heap allocations in the steady-state batch loop";
  EXPECT_EQ(workspace.growth_count(), workspace_growth)
      << "workspace grew after warm-up";

  // Short (epoch-tail) batches reuse the same buffers too.
  const int64_t allocations_short = AllocationCount();
  model.LossAndGradient(data, std::span<const int>(batch).first(7), gradient,
                        workspace);
  EXPECT_EQ(AllocationCount(), allocations_short);
}

TEST(ZeroAllocationTest, BatchSamplerReusesBatchBuffer) {
  Dataset data = MakeDataset(8, 3, 100);
  BatchSampler sampler(&data, 32, 3);
  std::vector<int> batch;
  sampler.NextBatch(batch);  // sizes the buffer
  const int64_t before = AllocationCount();
  for (int i = 0; i < 20; ++i) sampler.NextBatch(batch);
  EXPECT_EQ(AllocationCount(), before);
}

TEST(ZeroAllocationTest, BatchedAccuracyIsAllocationFreeAfterWarmup) {
  Dataset data = MakeDataset(16, 4, 300);
  Mlp model({16, 8, 4});
  model.InitializeParameters(3);
  TrainingWorkspace workspace;
  const double first = Accuracy(model, data, workspace);  // warm-up
  const int64_t before = AllocationCount();
  double accuracy = 0.0;
  for (int i = 0; i < 10; ++i) accuracy = Accuracy(model, data, workspace);
  EXPECT_EQ(AllocationCount(), before);
  EXPECT_EQ(accuracy, first);
}

}  // namespace
}  // namespace netmax::ml
