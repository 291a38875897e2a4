#ifndef NETMAX_CORE_EXECUTION_BACKEND_H_
#define NETMAX_CORE_EXECUTION_BACKEND_H_

// Concrete execution backends for the event simulator, plus the selection
// plumbing (kind enum, flag parsing, factory) the experiment harness and the
// benches share. The abstract net::ExecutionBackend interface is declared in
// net/event_sim.h, beside the simulator it drives (the net layer cannot
// depend on core); everything that picks or implements a strategy lives
// here.
//
// Three dispatch strategies, all bit-identical to each other by the
// soundness contract in net/event_sim.h:
//
//  * serial — no backend at all: EventSimulator::RunUntilIdle runs every
//    event inline at its turn on the simulator thread. The reference
//    semantics; also what the pooled kinds degrade to without a pool.
//  * SpeculativeBackend — the PR 3/4 frontier machinery: collect the longest
//    prefix of pending compute events with pairwise-distinct worker keys,
//    evaluate them concurrently on the pool behind a barrier, then drain the
//    whole batch in order. Invalidated speculations are re-dispatched onto
//    the pool in a second pass instead of recomputing inline.
//  * AsyncPipelineBackend — no barrier: compute halves stream through a
//    bounded reorder window (`reorder_window` in-flight evaluations). The
//    commit drain waits only for the entry at the head of the window, never
//    for the slowest in-flight compute; dispatch applies backpressure when
//    the window fills, and NotifyStateWrite invalidation covers every
//    window-resident evaluation (in-flight ones are waited out before the
//    caller's write, then re-dispatched).

#include <cstdint>
#include <future>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/event_sim.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::core {

// The seam interface, re-exported under the layer that implements it.
using net::ExecutionBackend;
using net::ExecutionStats;

enum class ExecutionBackendKind {
  kSerial,         // no backend: the simulator's own inline loop
  kSpeculative,    // default: today's frontier speculation + re-dispatch
  kAsyncPipeline,  // bounded-reorder-window commit pipeline
};

// Strict parse of a --backend / NETMAX_BACKEND value ("serial",
// "speculative", "async"); returns false on anything else, leaving *kind
// untouched.
bool ParseExecutionBackendKind(std::string_view text,
                               ExecutionBackendKind* kind);

// The flag spelling of `kind` (inverse of ParseExecutionBackendKind).
std::string_view ExecutionBackendKindName(ExecutionBackendKind kind);

// Builds the backend for one simulator run, or returns null when the run
// dispatches serially: for kSerial, and for every kind without a pool (there
// is nothing to overlap with). `pool` is borrowed and must outlive the
// backend. The async window is 2x the thread budget (the pool's workers plus
// the simulator thread), enough slack that a straggling compute never idles
// the pool.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(
    ExecutionBackendKind kind, ThreadPool* pool);

// Frontier speculation with a barrier (the PR 3/4 machinery): at most one
// compute half per distinct worker key joins a parallel batch, the batch is
// evaluated to completion on the pool, then drained in order. A same-key
// duplicate ends the frontier scan, so adversarial interleavings degrade to
// serial order.
class SpeculativeBackend : public ExecutionBackend {
 public:
  explicit SpeculativeBackend(ThreadPool* pool);

  std::string_view name() const override { return "speculative"; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;

 protected:
  void OnHalt(net::EventSimulator& sim) override;

 private:
  // One frontier member, evaluated by the Dispatch barrier. `value` is ready
  // once Dispatch returns; invalidation replaces it through `redispatch`.
  struct Speculation {
    int64_t sequence = 0;
    double time = 0.0;
    net::EventSimulator::ComputeFn compute;  // copy, for re-dispatch
    double value = 0.0;
  };
  // One invalidated compute half re-dispatched onto the pool for the second
  // speculation pass. Heap-allocated so the pooled task's writes target a
  // stable address; `done` orders those writes before any read of `value`
  // (and before any state write by a second invalidator).
  struct Redispatch {
    double value = 0.0;
    bool invalidated = false;  // a later write dirtied the key again
    std::future<void> done;
  };

  // SpeculationProvider body: commits the batch value for (sequence, key),
  // routing invalidated keys through their re-dispatch entry.
  bool ProvideValue(int64_t sequence, int worker_key, double* value);
  // Submits the second-pass recomputes queued by OnStateWrite during the
  // handler that just returned, in (time, sequence) order of their events.
  void FlushRedispatches();

  ThreadPool* pool_;
  // Speculations of the current batch awaiting their turn, by worker key
  // (frontier keys are pairwise distinct). Drain erases an entry when its
  // event commits.
  std::unordered_map<int, Speculation> inflight_;
  // Keys whose speculation a commit since the batch formed invalidated.
  std::unordered_set<int> dirty_keys_;
  // Second-pass state: keys queued by the current handler (flushed right
  // after it returns) and the in-flight re-dispatches by key.
  std::vector<int> pending_redispatch_keys_;
  std::unordered_map<int, std::unique_ptr<Redispatch>> redispatches_;
};

// Bounded-reorder commit pipeline: up to `reorder_window` (>= 1) compute
// halves are in flight on the pool at once, entering in (time, sequence)
// order and leaving at their commit. There is no batch barrier — the drain
// waits only for the head entry's own future, so one slow compute never
// stalls the commits (or re-dispatches) of everything behind it; it only
// occupies one window slot. The window size never affects simulation output
// (the backend bit-identity invariant), only real-machine throughput.
class AsyncPipelineBackend : public ExecutionBackend {
 public:
  AsyncPipelineBackend(ThreadPool* pool, int reorder_window);

  std::string_view name() const override { return "async"; }
  int reorder_window() const { return reorder_window_; }
  void Dispatch(net::EventSimulator& sim) override;
  int64_t DrainCommits(net::EventSimulator& sim) override;
  void OnStateWrite(net::EventSimulator& sim, int worker_key) override;

 protected:
  void OnIdle(net::EventSimulator& sim) override;
  void OnHalt(net::EventSimulator& sim) override;

 private:
  // One window-resident evaluation. Heap-allocated so the pooled task's
  // writes target a stable address while the map rehashes; `done` orders the
  // task's `value` write before any read (and before any state write by an
  // invalidator).
  struct Entry {
    int64_t sequence = 0;
    int worker_key = -1;
    double time = 0.0;
    net::EventSimulator::ComputeFn compute;  // copy, safe off-thread
    double value = 0.0;
    bool invalidated = false;  // awaiting re-dispatch after the handler
    std::future<void> done;
  };

  void Submit(Entry& entry);
  void FlushRedispatches();

  ThreadPool* pool_;
  const int reorder_window_;
  // Window entries by worker key: at most one in-flight evaluation per key
  // (a same-key duplicate is skipped by the dispatch scan, preserving the
  // chained-commit order), at most reorder_window_ entries total.
  std::unordered_map<int, std::unique_ptr<Entry>> window_;
  std::vector<int> pending_redispatch_keys_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_EXECUTION_BACKEND_H_
