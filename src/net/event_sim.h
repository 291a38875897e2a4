#ifndef NETMAX_NET_EVENT_SIM_H_
#define NETMAX_NET_EVENT_SIM_H_

// Deterministic discrete-event simulator with a virtual clock, a two-phase
// compute/commit event model, and a pluggable execution backend.
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
// The simulator owns the queue and the ordering contract only. HOW compute
// halves are evaluated relative to the strictly ordered commit drain is an
// ExecutionBackend decision (set_backend): speculate frontier batches of
// distinct-worker events on a ThreadPool behind a barrier (speculative), or
// pipeline them through a bounded reorder window with no barrier at all
// (async). Concrete backends live in core/execution_backend.h; with no
// backend attached the simulator runs every event inline at its turn
// (serial dispatch).
//
// Every backend preserves the same soundness contract, so results are
// bit-identical across all of them: any callback or commit that writes state
// some compute half might read MUST call NotifyStateWrite(worker_key) for the
// owning key BEFORE performing the write. The simulator forwards the call to
// the backend, which discards (and later re-dispatches) any compute result it
// evaluated against the pre-write state, first waiting out an in-flight
// evaluation so the caller's write cannot race its reads.
//
// One asymmetry to respect: a dispatched compute half's scratch writes (the
// worker's gradient buffer, workspace) may land before earlier-ordered events
// run. While a worker has a compute event pending, no OTHER event may read
// that worker's scratch — only the paired commit (and events it schedules
// afterwards, e.g. a parameter-server upload consuming the gradient) may.
// Engines satisfy this naturally by keeping at most one outstanding compute
// event per worker and consuming scratch only downstream of its commit; new
// engines must preserve it.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "net/event_queue.h"

namespace netmax::net {

class ExecutionBackend;

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

// Diagnostics every backend reports (all zero on the serial path). Excluded
// from the bit-identity contract, which covers simulation outputs only;
// `window_stalls` is additionally timing-dependent (it counts real
// not-ready-yet waits), the other counters are deterministic per config.
struct ExecutionStats {
  // Dispatch bursts that put at least two compute halves in flight.
  int64_t parallel_batches = 0;
  // Compute halves evaluated ahead of their turn (frontier or window).
  int64_t computes_speculated = 0;
  // Invalidated speculations re-dispatched onto the pool after the
  // invalidating handler returned (double invalidations re-count).
  int64_t computes_redispatched = 0;
  // Inline recomputes of an invalidated speculation on the simulator thread —
  // a defensive fallback that is unreachable in the current backends (every
  // invalidated in-flight speculation gets a re-dispatch entry), asserted to
  // stay zero by the determinism tests.
  int64_t computes_recomputed = 0;
  // Async backend: commit drain reached a window entry whose compute had not
  // finished yet and had to wait (head-of-window stall).
  int64_t window_stalls = 0;
  // Async backend: the dispatch scan found a runnable compute half but the
  // reorder window was full (backpressure).
  int64_t window_backpressure = 0;
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

  EventSimulator();
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
  // compute half touches; backends never evaluate two compute halves with the
  // same key concurrently, so adversarial same-key interleavings degrade to
  // serial order instead of racing.
  void ScheduleCompute(double time, int worker_key, ComputeFn compute,
                       CommitFn commit);

  // Relative-time convenience (delay >= 0).
  void ScheduleComputeAfter(double delay, int worker_key, ComputeFn compute,
                            CommitFn commit);

  // Tagged variants: identical scheduling semantics, but the event also
  // carries a checkpointable description (see EventPayload above). Engines
  // that support checkpoint/restore schedule exclusively through these.
  void ScheduleAt(double time, EventPayload payload, Callback callback);
  void ScheduleAfter(double delay, EventPayload payload, Callback callback);
  void ScheduleCompute(double time, int worker_key, EventPayload payload,
                       ComputeFn compute, CommitFn commit);
  void ScheduleComputeAfter(double delay, int worker_key, EventPayload payload,
                            ComputeFn compute, CommitFn commit);

  // Declares that the caller (an event callback or commit half) is ABOUT to
  // write state owned by `worker_key` that a compute half may read — model
  // parameters, chiefly; the call must precede the write. Forwarded to the
  // attached backend, which invalidates any not-yet-committed evaluation for
  // that key (re-dispatching it onto the pool after the current handler
  // returns) and blocks until an in-flight evaluation finishes so the
  // caller's write cannot race its reads. Redundant calls (own key, keys
  // without pending computes) are harmless; forgetting a call breaks parallel
  // determinism, so write sites should over- rather than under-notify. A
  // no-op without a backend (serial dispatch needs no write tracking).
  void NotifyStateWrite(int worker_key);

  // Attaches the execution backend RunUntilIdle delegates to; nullptr
  // (default) keeps the built-in fully serial dispatch. The backend is
  // borrowed, not owned, must outlive the simulator (or be detached first),
  // and must not be swapped while a run is in progress.
  void set_backend(ExecutionBackend* backend) { backend_ = backend; }
  ExecutionBackend* backend() const { return backend_; }

  // Swaps in a different priority-queue implementation (see event_queue.h).
  // Queue choice never changes simulation output — the (time, sequence)
  // order is a strict total order — only wall-clock scaling. Must be called
  // while the queue is empty (before scheduling, or after a completed run).
  void ReplaceQueue(std::unique_ptr<EventQueue> queue);
  EventQueueKind queue_kind() const { return queue_->kind(); }
  std::string_view queue_name() const { return queue_->name(); }

  // Pops and runs the earliest event fully serially (compute half inline on
  // this thread, then commit). Returns false when no events remain. Bypasses
  // the backend: callers driving the queue by hand get serial semantics.
  bool Step();

  // Runs events until the queue is empty or the next event is later than
  // `time_limit`; advances Now() to min(time of last event, time_limit).
  // Returns the number of events processed. Always serial dispatch.
  int64_t RunUntil(double time_limit);

  // Runs until no events remain, through the attached backend (serially when
  // none is attached). Returns the number of events processed.
  int64_t RunUntilIdle();

  bool empty() const { return queue_->empty(); }
  int64_t num_events_processed() const { return processed_; }
  int64_t next_sequence() const { return next_sequence_; }

  // --- halt (crash faults) -------------------------------------------------

  // Requests that the run stop at the current virtual time: the event whose
  // handler calls this is the last one applied. RunUntilIdle (both the serial
  // path and every backend) checks the flag after each handler, discards all
  // pending events, and returns; the clock stays at the halting event's time.
  // Deterministic by construction — the halting event has a fixed
  // (time, sequence) position, so every backend stops after the exact same
  // prefix of commits.
  void RequestHalt() { halt_requested_ = true; }
  bool halt_requested() const { return halt_requested_; }

  // Drops every pending event (halt path; backends must have discarded their
  // in-flight evaluations first — see ExecutionBackend::OnHalt).
  void ClearQueue() { queue_->Clear(); }

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

  // Backend diagnostics (all zero without a backend). The individual
  // accessors are kept for the common counters; stats() has the full set.
  ExecutionStats execution_stats() const;
  int64_t parallel_batches() const {
    return execution_stats().parallel_batches;
  }
  int64_t computes_speculated() const {
    return execution_stats().computes_speculated;
  }
  int64_t computes_redispatched() const {
    return execution_stats().computes_redispatched;
  }
  int64_t computes_recomputed() const {
    return execution_stats().computes_recomputed;
  }

  // --- backend API ---------------------------------------------------------
  // The surface ExecutionBackend implementations drive the simulator
  // through. Engine code never calls these.

  // Lightweight view of one pending compute event. `sequence` is the stable
  // identity (unique, never reused); `compute` references the queue entry and
  // is only valid during the ScanPendingComputes visit — backends copy it
  // when they dispatch.
  struct PendingComputeView {
    double time = 0.0;
    int64_t sequence = 0;
    int worker_key = -1;
    const ComputeFn& compute;
  };
  enum class ScanAction { kContinue, kStop };

  // Visits pending compute events in dispatch order (earliest first),
  // skipping plain events, examining at most `max_scan` queue entries (plain
  // events count toward the cap). Stops early when `visit` returns kStop.
  void ScanPendingComputes(
      int64_t max_scan,
      const std::function<ScanAction(const PendingComputeView&)>& visit) const;

  // Value provider consulted when the earliest event is a compute event:
  // return true and set *value to commit a result the backend evaluated ahead
  // of time; return false to run the compute half inline on this thread
  // (plain events never consult it).
  using SpeculationProvider =
      std::function<bool(int64_t sequence, int worker_key, double* value)>;

  // Pops and applies the earliest event in (time, sequence) order, consulting
  // `provider` (may be null) for compute events. Returns false when no events
  // remain. The handler runs before this returns, so backends flush
  // invalidation re-dispatches right after the call.
  bool StepWith(const SpeculationProvider& provider);

 private:
  static constexpr int kNoKey = kNoWorkerKey;

  void Insert(SimEvent event);

  double now_ = 0.0;
  int64_t next_sequence_ = 0;
  int64_t processed_ = 0;
  bool halt_requested_ = false;
  // Pending events, behind the pluggable EventQueue seam. Defaults to the
  // sorted vector (fastest at the paper's O(10) worker scale); large-N runs
  // swap in the calendar queue via ReplaceQueue.
  std::unique_ptr<EventQueue> queue_;
  ExecutionBackend* backend_ = nullptr;
};

// Strategy interface between the simulation schedule and how compute halves
// actually get evaluated. One backend instance drives one simulator run:
// RunUntilIdle alternates Dispatch (offer pending compute halves to the
// backend — inline, pooled frontier, bounded window, ...) with DrainCommits
// (apply at least one event in strict (time, sequence) order, consuming
// dispatched results through the SpeculationProvider). Concrete
// implementations and the selection plumbing live in
// core/execution_backend.h; the interface is declared here, beside the
// simulator it drives, because the net layer cannot depend on core.
//
// Contract for implementations:
//  * Commits and plain callbacks run on the simulator thread, strictly in
//    (time, sequence) order — only compute halves may run elsewhere.
//  * Never evaluate two compute halves with the same worker_key
//    concurrently, and never hold a result across a state write to its key:
//    OnStateWrite must wait out an in-flight evaluation of that key, discard
//    the result, and re-evaluate against post-write state (after the writing
//    handler returns). This is what makes results bit-identical to serial
//    dispatch for every backend.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  // Short stable identifier ("speculative", "async") used in RunResult and
  // bench tables.
  virtual std::string_view name() const = 0;

  // Offers pending compute halves to the backend ahead of the drain. Called
  // before every drain step; may do nothing.
  virtual void Dispatch(EventSimulator& sim) = 0;

  // Applies at least one pending event in order (typically via sim.StepWith)
  // and flushes any invalidation re-dispatches the handler queued. Returns
  // the number of events processed. Only called while the queue is
  // non-empty.
  virtual int64_t DrainCommits(EventSimulator& sim) = 0;

  // The notify-before-write contract, forwarded from
  // EventSimulator::NotifyStateWrite (see there).
  virtual void OnStateWrite(EventSimulator& sim, int worker_key) = 0;

  // Runs the simulator to completion: alternates Dispatch and DrainCommits
  // until the queue is empty, then checks the backend's end-of-run
  // invariants. Returns the number of events processed.
  int64_t RunUntilIdle(EventSimulator& sim);

  const ExecutionStats& stats() const { return stats_; }

 protected:
  // End-of-run invariant hook for RunUntilIdle (e.g. "the window is empty").
  virtual void OnIdle(EventSimulator& /*sim*/) {}

  // Halt hook for RunUntilIdle: the simulator requested a halt (a crash
  // fault), so the backend must wait out and discard every in-flight
  // evaluation — their pooled tasks reference engine state that the caller
  // is about to tear down — before the pending queue is cleared. Results
  // stay deterministic because discarded evaluations never committed.
  virtual void OnHalt(EventSimulator& /*sim*/) {}

  ExecutionStats stats_;
};

}  // namespace netmax::net

#endif  // NETMAX_NET_EVENT_SIM_H_
