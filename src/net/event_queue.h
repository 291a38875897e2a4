#ifndef NETMAX_NET_EVENT_QUEUE_H_
#define NETMAX_NET_EVENT_QUEUE_H_

// The simulator's priority queue of pending events.
//
// The simulator's ordering contract is a strict total order on
// (time, sequence): sequence numbers are unique, so the queue pops exactly
// one possible event stream. The determinism suite and the pinned golden
// traces (generated under the sorted vector that tests/reference_impls.h
// keeps as the order oracle) hold it to that stream, tie-breaks included.
//
// EventQueue is a calendar queue (R. Brown, CACM 1988) that never moves a
// pending closure:
//
//  * Each SimEvent is moved into a grow-only slab once by Push and out of it
//    once by PopNext. Slab chunks never reallocate, so a pending event stays
//    where Push put it.
//  * The buckets order trivially copyable {time, sequence, slot} keys,
//    ascending from a head index. A push that is its bucket's latest key
//    appends in O(1); any other push binary-searches and shifts keys only.
//    A pop advances the head. A full bucket drops its dead prefix before it
//    grows.
//  * The bucket width is derived from the number of distinct pending times,
//    so an equal-time cluster (thousands of workers finishing a compute step
//    together) cannot shrink it.
//
// All storage is grow-only (Clear() and pops retain capacity), so
// steady-state push/pop performs no heap allocation once warm — the
// simulator-core half of the zero-alloc workspace discipline (event closures
// are inline SmallFns, see common/small_fn.h).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/small_fn.h"

namespace netmax::net {

// --- checkpointable event description ---------------------------------------
// Closures cannot be serialized, so checkpointing the queue relies on each
// engine tagging every event it schedules with a description: a small
// engine-defined `tag` naming the event kind plus the doubles its closure
// captures (see event_sim.h's EventBuilder).

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
// event into and out of the queue never touches the heap.
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

// All operations assume the caller already assigned a unique `sequence` to
// each pushed event; PopNext and NextTime require a non-empty queue.
class EventQueue {
 public:
  enum class VisitAction { kContinue, kStop };
  using Visitor = std::function<VisitAction(const SimEvent&)>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void Push(SimEvent&& event);

  // Removes and returns the event that DispatchesBefore all others.
  SimEvent PopNext();

  // Time of the event PopNext would return. Not const: finding it may
  // recalibrate the buckets, as PopNext does.
  double NextTime();

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Drops all pending events but keeps storage capacity (halt path).
  void Clear();

  // Visits up to `max_visit` pending events in dispatch order (earliest
  // first), stopping early when `visit` returns kStop. Non-destructive; the
  // reference passed to `visit` is only valid during that call.
  void VisitInOrder(int64_t max_visit, const Visitor& visit) const;

 private:
  // Where a pending event sits in the order; `slot` names its slab entry.
  struct Key {
    double time = 0.0;
    int64_t sequence = 0;
    uint32_t slot = 0;
    bool operator<(const Key& other) const {
      if (time != other.time) return time < other.time;
      return sequence < other.sequence;
    }
  };
  // Live keys are keys[head, end), ascending.
  struct Bucket {
    std::vector<Key> keys;
    size_t head = 0;
    bool empty() const { return head == keys.size(); }
  };

  static constexpr int kChunkBits = 7;  // 128 slab entries per chunk

  SimEvent& Slot(uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & ((1u << kChunkBits) - 1)];
  }
  size_t BucketIndex(int64_t vb) const;
  int64_t VirtualBucket(double time) const;
  void InsertKey(const Key& key);
  // Index of the bucket holding the earliest key, found by scanning a year
  // of windows from the cached position (which it advances).
  size_t NextBucket();
  size_t& Cursor(size_t index) const;
  void Recalibrate(size_t bucket_count);

  // Slab: chunks never reallocate, so a pending event never moves.
  std::vector<std::unique_ptr<SimEvent[]>> chunks_;
  uint32_t slab_size_ = 0;  // slots handed out so far
  std::vector<uint32_t> free_slots_;

  std::vector<Bucket> buckets_;  // always a power-of-two count
  std::vector<Key> scratch_;     // Recalibrate staging, grow-only
  double width_ = 1.0;
  int64_t size_ = 0;
  // Scan position: no pending event has a virtual bucket below this.
  int64_t current_virtual_bucket_ = 0;
  // VisitInOrder's epoch-stamped per-bucket cursors.
  mutable std::vector<size_t> cursor_;
  mutable std::vector<uint64_t> cursor_epoch_;
  mutable uint64_t scan_epoch_ = 0;
};

// Kept only because perfbench's queue probe compiles against them (only a
// benchmark change may edit perfbench/); the probe rewrite retires both,
// with ExperimentConfig::event_queue.
enum class EventQueueKind { kCalendar };
std::unique_ptr<EventQueue> MakeEventQueue(EventQueueKind kind);

}  // namespace netmax::net

#endif  // NETMAX_NET_EVENT_QUEUE_H_
