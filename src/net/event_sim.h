#ifndef NETMAX_NET_EVENT_SIM_H_
#define NETMAX_NET_EVENT_SIM_H_

// Deterministic discrete-event simulator with a virtual clock, a two-phase
// compute/commit event model, and optional pooled evaluation of compute
// halves.
//
// All decentralized-training algorithms in this repo run inside this
// simulator: compute and communication delays are scheduled as events, so
// "iteration time = max{compute, communication}" (paper Section II-B) and the
// asynchrony between workers fall out of the event ordering. Ties in event
// time are broken by insertion order, which makes every run bit-reproducible.
//
// Events come in two kinds:
//
//  * Plain events (ScheduleAt/ScheduleAfter): an opaque callback, always run
//    on the simulator thread in (time, sequence) order.
//  * Compute events (ScheduleCompute): a pure `compute` half paired with a
//    `commit` half. The compute half may touch ONLY the state owned by its
//    `worker_key` (model parameters read-only, gradient/workspace scratch
//    read-write) plus immutable shared state; it must not query Now(), draw
//    random numbers, or write anything another worker's compute reads. The
//    commit half runs on the simulator thread, strictly in (time, sequence)
//    order, and receives the compute half's result; all bookkeeping, RNG
//    draws, parameter updates, and scheduling of follow-up events belong
//    there.
//
// The simulator owns the queue (one calendar queue that never moves a pending
// closure, net/event_queue.h), the ordering contract, and the dispatch of
// compute halves. Without a pool (set_pool) RunUntilIdle runs every event
// inline at its turn (serial dispatch). With one it speculates: the longest
// prefix of pending compute events with pairwise-distinct worker keys (the
// frontier) is evaluated on the pool behind a barrier, then drained in
// (time, sequence) order, and speculations invalidated by an earlier commit
// are re-dispatched onto the pool in a second pass.
//
// Both dispatches give bit-identical results under one soundness contract:
// any callback or commit that writes state some compute half might read MUST
// call NotifyStateWrite(worker_key) for the owning key BEFORE performing the
// write. The simulator then discards (and later re-dispatches) any compute
// result it evaluated against the pre-write state, first waiting out an
// in-flight evaluation so the caller's write cannot race its reads.
//
// One asymmetry to respect: a dispatched compute half's scratch writes (the
// worker's gradient buffer) may land before earlier-ordered events run.
// While a worker has a compute event pending, no OTHER event may read
// that worker's scratch — only the paired commit (and events it schedules
// afterwards, e.g. a parameter-server upload consuming the gradient) may.
// Engines satisfy this naturally by keeping at most one outstanding compute
// event per worker and consuming scratch only downstream of its commit; new
// engines must preserve it.

#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "net/event_queue.h"

namespace netmax {
class ThreadPool;
}  // namespace netmax

namespace netmax::net {

// --- Checkpointable event descriptions --------------------------------------
//
// Closures cannot be serialized, so checkpointing the queue relies on each
// engine tagging every event it schedules with a reified description (an
// EventPayload, defined beside SimEvent in event_queue.h): a small
// engine-defined `tag` naming the event kind plus the doubles its closure
// captured. At restore time the engine's rebuilder maps the saved
// description back to closures identical to the ones it schedules live.

// One pending event as captured by SaveQueue: full (time, sequence) identity
// plus the engine payload. Restoring with the exact saved sequence numbers is
// what keeps post-restore tie-breaking bit-identical to the original run.
struct SavedEvent {
  double time = 0.0;
  int64_t sequence = 0;
  int worker_key = -1;  // -1: plain callback event
  EventPayload payload;
};

// Closures rebuilt from one SavedEvent. Plain events (worker_key < 0) set
// only `plain`; compute events set `compute` and `commit`.
struct RebuiltEvent {
  SimEvent::Callback plain;
  SimEvent::ComputeFn compute;
  SimEvent::CommitFn commit;
};

// Maps a SavedEvent back to live closures; returns an error for unknown tags
// or malformed args (a corrupted or version-skewed checkpoint).
using EventRebuilder = std::function<StatusOr<RebuiltEvent>(const SavedEvent&)>;

// Pooled-dispatch diagnostics (all zero on the serial path). Excluded from
// the bit-identity contract, which covers simulation outputs only; every
// counter is deterministic per config.
struct ExecutionStats {
  // Frontiers that put at least two compute halves on the pool.
  int64_t parallel_batches = 0;
  // Compute halves evaluated ahead of their turn in a frontier.
  int64_t computes_speculated = 0;
  // Invalidated speculations re-dispatched onto the pool after the
  // invalidating handler returned (double invalidations re-count).
  int64_t computes_redispatched = 0;
};

class EventSimulator {
 public:
  // Inline-storage closures (see SimEvent / common/small_fn.h): scheduling
  // an event whose captures fit the inline capacity never allocates.
  using Callback = SimEvent::Callback;
  // Compute half: returns a scalar payload (engines return the batch loss)
  // that is handed to the paired commit half.
  using ComputeFn = SimEvent::ComputeFn;
  using CommitFn = SimEvent::CommitFn;

  EventSimulator() = default;
  EventSimulator(const EventSimulator&) = delete;
  EventSimulator& operator=(const EventSimulator&) = delete;

  // Current virtual time in seconds.
  double Now() const { return now_; }

  // Schedules `callback` at absolute virtual time `time` (>= Now()).
  void ScheduleAt(double time, Callback callback);

  // Schedules `callback` `delay` seconds from now (delay >= 0).
  void ScheduleAfter(double delay, Callback callback);

  // Schedules a two-phase compute/commit event at absolute virtual time
  // `time` (>= Now()). `worker_key` (>= 0) names the state partition the
  // compute half touches; two compute halves with the same key are never
  // evaluated concurrently, so adversarial same-key interleavings degrade to
  // serial order instead of racing.
  void ScheduleCompute(double time, int worker_key, ComputeFn compute,
                       CommitFn commit);

  // Tagged variants: identical scheduling semantics, but the event also
  // carries a checkpointable description (see EventPayload above). Engines
  // that support checkpoint/restore schedule exclusively through these.
  void ScheduleAt(double time, EventPayload payload, Callback callback);
  void ScheduleCompute(double time, int worker_key, EventPayload payload,
                       ComputeFn compute, CommitFn commit);

  // Declares that the caller (an event callback or commit half) is ABOUT to
  // write state owned by `worker_key` that a compute half may read — model
  // parameters, chiefly; the call must precede the write. With a pool, any
  // not-yet-committed speculation for that key is invalidated (and
  // re-dispatched onto the pool after the current handler returns), and an
  // in-flight re-dispatch is waited out first so the caller's write cannot
  // race its reads. Redundant calls (own key, keys without pending computes)
  // are harmless; forgetting a call breaks parallel determinism, so write
  // sites should over- rather than under-notify. A no-op without a pool.
  void NotifyStateWrite(int worker_key);

  // The pool RunUntilIdle speculates compute halves on; nullptr (default)
  // keeps serial dispatch. Borrowed, not owned: it must outlive every
  // RunUntilIdle call, and must not be swapped while a run is in progress.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  // Pops and runs the earliest event fully serially (compute half inline on
  // this thread, then commit). Returns false when no events remain.
  bool Step();

  // Runs until no events remain, speculating compute halves on the pool when
  // one is set. Returns the number of events processed.
  int64_t RunUntilIdle();

  bool empty() const { return queue_.empty(); }
  int64_t num_events_processed() const { return processed_; }
  int64_t next_sequence() const { return next_sequence_; }

  // --- halt (crash faults) -------------------------------------------------

  // Requests that the run stop at the current virtual time: the event whose
  // handler calls this is the last one applied. RunUntilIdle checks the flag
  // after each handler, waits out and discards every pooled evaluation,
  // drops all pending events, and returns; the clock stays at the halting
  // event's time. Deterministic by construction — the halting event has a
  // fixed (time, sequence) position, so both dispatches stop after the exact
  // same prefix of commits.
  void RequestHalt() { halt_requested_ = true; }

  // --- checkpoint support --------------------------------------------------

  // Snapshots the pending queue in dispatch order. Fails with
  // kFailedPrecondition if any pending event is untagged — the caller (an
  // engine that opted into checkpointing) scheduled an event outside the
  // tagged overloads.
  StatusOr<std::vector<SavedEvent>> SaveQueue() const;

  // Repopulates an EMPTY queue from `events`, mapping each through
  // `rebuilder`. Times and sequence numbers are restored exactly as saved
  // (bypassing Insert), so relative (time, sequence) ordering — and with it
  // every tie-break — replays bit-identically. Call RestoreClock first:
  // events are validated against the restored clock (time >= Now(),
  // sequence < next_sequence(), no duplicate sequences).
  Status RestoreQueue(const std::vector<SavedEvent>& events,
                      const EventRebuilder& rebuilder);

  // Restores the clock and counters saved alongside the queue.
  void RestoreClock(double now, int64_t next_sequence, int64_t processed);

  // Pooled-dispatch diagnostics (all zero without a pool).
  const ExecutionStats& execution_stats() const { return stats_; }

 private:
  static constexpr int kNoKey = kNoWorkerKey;

  // One frontier member: a pending compute event evaluated behind the
  // barrier, awaiting its turn in the ordered drain.
  struct Speculation {
    int64_t sequence = 0;
    double time = 0.0;
    int worker_key = kNoKey;
    ComputeFn compute;  // copy: a re-dispatch may still run as its event pops
    double value = 0.0;
    bool committed = false;  // the drain consumed it
    // A commit since the frontier formed wrote this worker's state, so
    // `value` is stale and the second pass supplies the result.
    bool dirty = false;
    // Second pass: the latest re-dispatch (valid() while one exists), its
    // result once `redispatch.wait()` returns, and whether a later write
    // dirtied the key again (a fresh re-dispatch replaces it after the
    // handler).
    std::future<void> redispatch;
    double redispatch_value = 0.0;
    bool redispatch_invalidated = false;
  };

  void Insert(SimEvent&& event);
  // Builds the frontier from the queue head and evaluates it on the pool.
  void Dispatch();
  // The uncommitted frontier member for `worker_key`, or nullptr.
  Speculation* FindSpeculation(int worker_key);
  // The compute half's result for `event` at its turn: the speculated or
  // re-dispatched value when the frontier holds one, else computed inline.
  double ComputeValue(SimEvent& event);
  // Submits the second-pass re-dispatches queued by the handler that just
  // returned, in (time, sequence) order of their events.
  void FlushRedispatches();
  // Halt path: waits out every re-dispatch, then drops the frontier.
  void DiscardFrontier();

  double now_ = 0.0;
  int64_t next_sequence_ = 0;
  int64_t processed_ = 0;
  bool halt_requested_ = false;
  EventQueue queue_;  // pending events (net/event_queue.h)

  ThreadPool* pool_ = nullptr;
  ExecutionStats stats_;
  // The current frontier (grow-only: cleared, never shrunk, per Dispatch)
  // and how many of its members still await their commit. Frontier keys are
  // pairwise distinct, so a key names at most one member.
  std::vector<Speculation> frontier_;
  int64_t uncommitted_ = 0;
  // Frontier members whose re-dispatch the current handler queued (grow-only).
  std::vector<Speculation*> pending_redispatch_;
};

}  // namespace netmax::net

#endif  // NETMAX_NET_EVENT_SIM_H_
