#include "ml/sharding.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "ml/mlp.h"
#include "ml/workspace.h"

namespace netmax::ml {
namespace {

// ReduceScratch slot layout of the sharding driver.
constexpr int kSlotLossSums = 0;
constexpr int kSlotGradientSums = 1;

// Minimum columns per pooled reduce task: below this the slice is too small
// to amortize the fan-out.
constexpr size_t kReduceChunkColumns = 1 << 12;

}  // namespace

// Tree-reduces `count` partials of `width` doubles into `out`, scaled,
// fanning the column range onto `pool` for wide models (width >=
// kPooledReduceMinWidth). Bits are identical either way: chunking only
// changes who reduces a column.
void TreeReducePartials(std::span<double> partials, int count, size_t width,
                        double scale, std::span<double> out,
                        ThreadPool* pool) {
  const auto reduce = [&](size_t lo, size_t hi) {
    linalg::TreeSumScaled(count, static_cast<int>(hi - lo),
                          partials.data() + lo, static_cast<int>(width),
                          scale, out.data() + lo);
  };
  if (pool != nullptr && count >= 2 && width >= kPooledReduceMinWidth) {
    const size_t max_tasks = static_cast<size_t>(pool->num_threads()) + 1;
    const size_t tasks = std::min(max_tasks, width / kReduceChunkColumns);
    if (tasks >= 2) {
      ParallelFor(*pool, static_cast<int>(tasks), [&](int t) {
        reduce(width * static_cast<size_t>(t) / tasks,
               width * (static_cast<size_t>(t) + 1) / tasks);
      });
      return;
    }
  }
  reduce(0, width);
}

int GradientLeafCount(size_t batch) {
  return static_cast<int>((batch + kGradientLeafSamples - 1) /
                          kGradientLeafSamples);
}

LeafRange GradientLeafRange(size_t batch, int leaf) {
  LeafRange range;
  range.begin = static_cast<size_t>(leaf) * kGradientLeafSamples;
  range.end = std::min(batch, range.begin + kGradientLeafSamples);
  NETMAX_CHECK_LT(range.begin, range.end) << "leaf out of range";
  return range;
}

double ShardedLossAndGradient(const Mlp& model, const Dataset& data,
                              std::span<const int> batch_indices,
                              std::span<double> gradient,
                              TrainingWorkspace& workspace, ThreadPool* pool,
                              int shards) {
  NETMAX_CHECK(!batch_indices.empty());
  const bool want_gradient = !gradient.empty();
  const size_t width =
      want_gradient ? static_cast<size_t>(model.num_parameters()) : 0;
  if (want_gradient) {
    NETMAX_CHECK_EQ(static_cast<int>(gradient.size()),
                    model.num_parameters());
  }
  const int num_leaves = GradientLeafCount(batch_indices.size());

  std::span<double> loss_sums =
      workspace.ReduceScratch(kSlotLossSums, static_cast<size_t>(num_leaves));
  std::span<double> gradient_sums =
      want_gradient
          ? workspace.ReduceScratch(kSlotGradientSums,
                                    static_cast<size_t>(num_leaves) * width)
          : std::span<double>{};

  const int tasks =
      pool == nullptr ? 1 : std::clamp(shards, 1, num_leaves);
  if (tasks <= 1) {
    model.EvalGradientLeaves(data, batch_indices, 0, num_leaves, loss_sums,
                             gradient_sums, workspace);
  } else {
    // Contiguous balanced leaf ranges, one per task. Task 0 reuses the parent
    // workspace (its model scratch stays warm across serial/sharded calls);
    // every other task gets its own persistent child. Which task evaluates a
    // leaf never matters to the result — leaf partials are pure functions of
    // (model, data, indices).
    //
    // Materialize the children before fanning out: ShardWorkspace grows the
    // child table on first use, and the tasks look their child up
    // concurrently — the lookups must be reads of a settled table.
    for (int t = 1; t < tasks; ++t) workspace.ShardWorkspace(t - 1);
    ParallelFor(*pool, tasks, [&](int t) {
      const int lo = num_leaves * t / tasks;
      const int hi = num_leaves * (t + 1) / tasks;
      if (lo == hi) return;
      TrainingWorkspace& shard_workspace =
          t == 0 ? workspace : workspace.ShardWorkspace(t - 1);
      model.EvalGradientLeaves(
          data, batch_indices, lo, hi,
          loss_sums.subspan(static_cast<size_t>(lo),
                            static_cast<size_t>(hi - lo)),
          want_gradient
              ? gradient_sums.subspan(static_cast<size_t>(lo) * width,
                                      static_cast<size_t>(hi - lo) * width)
              : std::span<double>{},
          shard_workspace);
    });
  }

  const double inv_batch = 1.0 / static_cast<double>(batch_indices.size());
  double loss = 0.0;
  TreeReducePartials(loss_sums, num_leaves, 1, inv_batch, {&loss, 1},
                     nullptr);
  if (want_gradient) {
    TreeReducePartials(gradient_sums, num_leaves, width, inv_batch, gradient,
                       pool);
  }
  return loss;
}

}  // namespace netmax::ml
