#ifndef NETMAX_ML_WORKSPACE_H_
#define NETMAX_ML_WORKSPACE_H_

// Reusable scratch memory for the batched model compute paths.
//
// The training hot loop of every decentralized algorithm is millions of
// LossAndGradient calls; heap-allocating activations per sample (the seed
// implementation) dominates wall time at this model scale. A
// TrainingWorkspace owns a set of grow-only buffers that a model's batched
// forward/backward passes carve their activation/delta matrices from, so the
// steady-state batch loop performs zero heap allocations: the first batch
// sizes the buffers, every later batch (same size or smaller) reuses them.
//
// Workspaces are not thread-safe; give each thread its own (the per-thread
// workspace below, on which core::ExperimentHarness runs every compute half
// and test-set evaluation) or own one per caller. Intra-worker
// gradient sharding (ml/sharding.h) evaluates one worker's batch on several
// threads at once: shard task t borrows the grow-only child workspace
// ShardWorkspace(t) — children are independent TrainingWorkspaces, so the
// not-thread-safe rule holds per (child) workspace, not per worker.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace netmax::ml {

class TrainingWorkspace {
 public:
  TrainingWorkspace() = default;
  TrainingWorkspace(const TrainingWorkspace&) = delete;
  TrainingWorkspace& operator=(const TrainingWorkspace&) = delete;
  // Movable so owners can live in contiguous storage; moving steals the
  // grow-only buffers, it never copies them.
  TrainingWorkspace(TrainingWorkspace&&) = default;
  TrainingWorkspace& operator=(TrainingWorkspace&&) = default;

  // Returns a span of `size` doubles backed by buffer `slot` (any small dense
  // index; slots are created on first use). Contents are unspecified whenever
  // the buffer had to grow — callers fully overwrite what they read.
  std::span<double> Scratch(int slot, size_t size);

  // Same, for index buffers (batched Predict gathers).
  std::span<int> IntScratch(int slot, size_t size);

  // Same, for the sharding driver's per-leaf partial sums. A separate slot
  // family from Scratch so the driver can hold loss/gradient partials in the
  // workspace while a model eval running through the same workspace uses its
  // own Scratch layout; models must never touch these slots.
  std::span<double> ReduceScratch(int slot, size_t size);

  // The child workspace backing concurrent shard task `shard` (>= 0).
  // Children are created on first use and persist, so a steady-state sharded
  // training loop reuses their buffers exactly like the parent's.
  TrainingWorkspace& ShardWorkspace(int shard);

  // Number of buffer growths (heap allocations) since construction,
  // including in shard children. A steady-state training loop must keep this
  // constant after its first batch; tests assert on it, and it is cheap
  // enough to monitor in production.
  int64_t growth_count() const;

 private:
  std::span<double> DoubleScratch(std::vector<std::vector<double>>& family,
                                  int slot, size_t size);

  std::vector<std::vector<double>> slots_;
  std::vector<std::vector<int>> int_slots_;
  std::vector<std::vector<double>> reduce_slots_;
  std::vector<std::unique_ptr<TrainingWorkspace>> shard_children_;
  int64_t growth_count_ = 0;
};

// A lazily constructed workspace owned by the calling thread, sized to the
// largest batch any model on this thread has seen. The harness's compute
// halves run on it, and the workspace-free Model API overloads use it so
// one-off callers (tests, evaluations) get the batched path without
// threading a workspace through.
TrainingWorkspace& ThreadLocalWorkspace();

}  // namespace netmax::ml

#endif  // NETMAX_ML_WORKSPACE_H_
