#ifndef NETMAX_NET_EVENT_QUEUE_H_
#define NETMAX_NET_EVENT_QUEUE_H_

// Pluggable priority queues behind EventSimulator.
//
// The simulator's ordering contract is a strict total order on
// (time, sequence): sequence numbers are unique, so ANY correct priority
// queue pops the exact same event stream — the queue choice affects
// wall-clock performance only, never simulation output. The determinism
// suite and the pinned golden traces hold every implementation here to that
// bit-identity standard, tie-breaks included.
//
// Two implementations, selectable per run (--event-queue):
//
//  * kSortedVector — a vector sorted by descending (time, sequence), next
//    event at the back. O(n) insert / O(1) pop; the fastest at the paper's
//    8-32 worker scale (PR 3 measured ~20% over a heap at 32 workers) and
//    the default.
//  * kCalendar    — a bucketed calendar queue (R. Brown, CACM 1988):
//    amortized O(1) insert+pop independent of n; the choice once thousands
//    of events are pending (~1.45x faster end to end on perfbench's
//    4096-worker gossip workload; see bench_scale_frontier /
//    BENCH_scale.json for the 10^5-worker frontier).
//
// Both keep their storage grow-only (Clear() and pops retain capacity), so
// steady-state push/pop performs no heap allocation once warm — the
// simulator-core half of the zero-alloc workspace discipline (event closures
// are inline SmallFns, see common/small_fn.h).

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/small_fn.h"
#include "common/status.h"

namespace netmax::net {

// --- checkpointable event description ---------------------------------------
// Closures cannot be serialized, so checkpointing the queue relies on each
// engine tagging every event it schedules with a reified description: a
// small engine-defined `tag` naming the event kind plus the doubles its
// closure captured (see event_sim.h's SavedEvent/EventRebuilder).

struct EventPayload {
  // Engine-defined event kind; -1 marks an untagged event, which cannot be
  // checkpointed (SaveQueue fails if one is pending).
  int64_t tag = -1;
  // Engine-defined arguments (captured scalars; ints are stored exactly as
  // doubles up to 2^53).
  std::vector<double> args;
};

inline constexpr int kNoWorkerKey = -1;

// One pending simulator event. The closures are inline-storage SmallFns:
// every lambda the engines schedule fits the inline capacity, so moving an
// event through a queue never touches the heap.
struct SimEvent {
  using Callback = SmallFn<void()>;
  // Compute half: returns a scalar payload (engines return the batch loss)
  // that is handed to the paired commit half.
  using ComputeFn = SmallFn<double()>;
  using CommitFn = SmallFn<void(double)>;

  double time = 0.0;
  int64_t sequence = 0;         // tie-breaker: FIFO among equal times
  int worker_key = kNoWorkerKey;  // kNoWorkerKey: plain callback event
  Callback plain;               // plain events only
  ComputeFn compute;            // compute events only
  CommitFn commit;              // compute events only
  EventPayload payload;         // checkpointable description; tag -1 untagged

  // Dispatch-before: earlier time wins, sequence breaks ties.
  bool DispatchesBefore(const SimEvent& other) const {
    if (time != other.time) return time < other.time;
    return sequence < other.sequence;
  }
};

enum class EventQueueKind {
  kSortedVector,
  kCalendar,
};

// "vector" | "calendar"; an unknown name is an InvalidArgument error naming
// the accepted spellings.
StatusOr<EventQueueKind> ParseEventQueueKind(std::string_view text);
std::string_view EventQueueKindName(EventQueueKind kind);

// The queue contract EventSimulator drives. All operations assume the
// caller already assigned a unique `sequence` to each pushed event; PopNext
// and NextTime require a non-empty queue.
class EventQueue {
 public:
  enum class VisitAction { kContinue, kStop };
  using Visitor = std::function<VisitAction(const SimEvent&)>;

  virtual ~EventQueue() = default;

  // Short stable identifier ("vector", "calendar") used in diagnostics and
  // bench tables.
  virtual std::string_view name() const = 0;
  virtual EventQueueKind kind() const = 0;

  virtual void Push(SimEvent event) = 0;

  // Removes and returns the event that DispatchesBefore all others.
  virtual SimEvent PopNext() = 0;

  // Time of the event PopNext would return.
  virtual double NextTime() const = 0;

  virtual int64_t size() const = 0;
  bool empty() const { return size() == 0; }

  // Drops all pending events but keeps storage capacity (halt path).
  virtual void Clear() = 0;

  // Visits up to `max_visit` pending events in dispatch order (earliest
  // first), stopping early when `visit` returns kStop. Non-destructive; the
  // reference passed to `visit` is only valid during that call.
  virtual void VisitInOrder(int64_t max_visit, const Visitor& visit) const = 0;
};

std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);

}  // namespace netmax::net

#endif  // NETMAX_NET_EVENT_QUEUE_H_
