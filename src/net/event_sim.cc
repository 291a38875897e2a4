#include "net/event_sim.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_pool.h"

namespace netmax::net {
namespace {

// Dispatch scan bound: how many queue entries a frontier scan examines
// (plain events count toward the cap). Bounds the cost of skipping over
// plain events.
constexpr int64_t kMaxScannedEvents = 256;

// Frontier bound: scales with the pool so the ordered drain (serial) phase
// stays short relative to the compute phase. The RunUntilIdle caller
// participates in the compute barrier, hence +1.
int64_t FrontierCap(const ThreadPool& pool) {
  return 4 * (static_cast<int64_t>(pool.num_threads()) + 1);
}

}  // namespace

void EventSimulator::Insert(SimEvent&& event) {
  NETMAX_CHECK_GE(event.time, now_) << "cannot schedule into the past";
  event.sequence = next_sequence_++;
  queue_.Push(std::move(event));
}

void EventSimulator::ScheduleAt(double time, Callback callback) {
  NETMAX_CHECK(callback != nullptr);
  SimEvent event;
  event.time = time;
  event.plain = std::move(callback);
  Insert(std::move(event));
}

void EventSimulator::ScheduleAfter(double delay, Callback callback) {
  NETMAX_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(callback));
}

void EventSimulator::ScheduleCompute(double time, int worker_key,
                                     ComputeFn compute, CommitFn commit) {
  NETMAX_CHECK_GE(worker_key, 0) << "worker_key must be non-negative";
  NETMAX_CHECK(compute != nullptr);
  NETMAX_CHECK(commit != nullptr);
  SimEvent event;
  event.time = time;
  event.worker_key = worker_key;
  event.compute = std::move(compute);
  event.commit = std::move(commit);
  Insert(std::move(event));
}

Status EventSimulator::Build(SimEvent& event) {
  NETMAX_CHECK(builder_ != nullptr) << "no event builder set";
  if (event.worker_key < 0) event.worker_key = kNoKey;
  NETMAX_RETURN_IF_ERROR(builder_(event));
  const bool plain = event.worker_key == kNoKey;
  const bool shaped =
      plain ? event.plain != nullptr && event.compute == nullptr &&
                  event.commit == nullptr
            : event.plain == nullptr && event.compute != nullptr &&
                  event.commit != nullptr;
  if (shaped) return Status::Ok();
  return InternalError(std::string("builder returned ") +
                       (plain ? "a non-plain closure set for plain"
                              : "an incomplete closure set for compute") +
                       " event tag " + std::to_string(event.payload.tag));
}

void EventSimulator::Schedule(double time, int worker_key,
                              EventPayload payload) {
  NETMAX_CHECK_GE(payload.tag, 0) << "Schedule requires a tag";
  SimEvent event;
  event.time = time;
  event.worker_key = worker_key;
  event.payload = std::move(payload);
  const Status status = Build(event);
  NETMAX_CHECK(status.ok()) << "event tag " << event.payload.tag
                            << " rejected by its own builder: "
                            << status.ToString();
  Insert(std::move(event));
}

bool EventSimulator::Step() {
  if (queue_.empty()) return false;
  // Pop by value so the handlers may schedule new events.
  SimEvent event = queue_.PopNext();
  now_ = event.time;
  ++processed_;
  if (event.compute != nullptr) {
    event.commit(event.compute());
  } else {
    event.plain();
  }
  return true;
}

StatusOr<std::vector<SimEvent>> EventSimulator::SaveQueue() const {
  std::vector<SimEvent> events;
  events.reserve(static_cast<size_t>(queue_.size()));
  Status status = Status::Ok();
  queue_.VisitInOrder(
      queue_.size(), [&events, &status](const SimEvent& event) {
        if (event.payload.tag < 0) {
          status = FailedPreconditionError(
              "cannot checkpoint: pending event at t=" +
              std::to_string(event.time) + " (sequence " +
              std::to_string(event.sequence) +
              ") was scheduled without a payload tag");
          return EventQueue::VisitAction::kStop;
        }
        SimEvent& saved = events.emplace_back();
        saved.time = event.time;
        saved.sequence = event.sequence;
        saved.worker_key = event.worker_key;
        saved.payload = event.payload;
        return EventQueue::VisitAction::kContinue;
      });
  NETMAX_RETURN_IF_ERROR(status);
  return events;
}

Status EventSimulator::RestoreQueue(double now, int64_t next_sequence,
                                    int64_t processed,
                                    std::vector<SimEvent> events) {
  if (!queue_.empty()) {
    return FailedPreconditionError(
        "RestoreQueue requires an empty event queue");
  }
  now_ = now;
  next_sequence_ = next_sequence;
  processed_ = processed;
  // Validate before touching the queue, so a failed restore leaves it empty.
  std::vector<int64_t> sequences;
  sequences.reserve(events.size());
  for (const SimEvent& event : events) {
    const std::string where = "event tag " + std::to_string(event.payload.tag) +
                              " (sequence " + std::to_string(event.sequence) +
                              ")";
    if (event.time < now_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " is scheduled before the restored clock");
    }
    if (event.sequence < 0 || event.sequence >= next_sequence_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " has a sequence outside the restored "
                                  "counter range");
    }
    sequences.push_back(event.sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  for (size_t i = 1; i < sequences.size(); ++i) {
    if (sequences[i] == sequences[i - 1]) {
      return InvalidArgumentError(
          "checkpointed queue contains duplicate sequence " +
          std::to_string(sequences[i]));
    }
  }
  for (SimEvent& event : events) NETMAX_RETURN_IF_ERROR(Build(event));
  // Sequence numbers are restored exactly as saved (Insert is bypassed), so
  // relative (time, sequence) ordering — and with it every tie-break —
  // replays bit-identically.
  for (SimEvent& event : events) queue_.Push(std::move(event));
  return Status::Ok();
}

int64_t EventSimulator::RunUntilIdle() {
  int64_t count = 0;
  while (!halt_requested_ && !queue_.empty()) {
    if (pool_ != nullptr && uncommitted_ == 0) Dispatch();
    SimEvent event = queue_.PopNext();
    now_ = event.time;
    ++processed_;
    if (event.compute != nullptr) {
      event.commit(ComputeValue(event));
    } else {
      event.plain();
    }
    // Handlers queue invalidated speculations; the second pass starts here,
    // after the handler's writes are complete.
    FlushRedispatches();
    ++count;
  }
  if (halt_requested_) {
    // Crash fault: discard pooled evaluations (waiting their tasks out),
    // then drop the pending queue. Everything already committed stays;
    // nothing else runs.
    DiscardFrontier();
    queue_.Clear();
  }
  NETMAX_CHECK_EQ(uncommitted_, 0) << "speculated event vanished from queue";
  return count;
}

// --- pooled dispatch --------------------------------------------------------

void EventSimulator::Dispatch() {
  // Frontier scan: the longest prefix of compute events with pairwise-
  // distinct worker keys. Plain events are skipped, not barriers: they run at
  // their exact position during the drain, and any state they write is
  // covered by NotifyStateWrite invalidation. A duplicate key ends the scan
  // so no two speculations ever target the same state partition.
  frontier_.clear();
  const size_t cap = static_cast<size_t>(FrontierCap(*pool_));
  queue_.VisitInOrder(kMaxScannedEvents, [this, cap](const SimEvent& event) {
    if (event.compute == nullptr) return EventQueue::VisitAction::kContinue;
    if (frontier_.size() >= cap ||
        FindSpeculation(event.worker_key) != nullptr) {
      return EventQueue::VisitAction::kStop;
    }
    Speculation& speculation = frontier_.emplace_back();
    speculation.sequence = event.sequence;
    speculation.time = event.time;
    speculation.worker_key = event.worker_key;
    speculation.compute = event.compute;
    return EventQueue::VisitAction::kContinue;
  });
  if (frontier_.size() < 2) {
    frontier_.clear();  // the drain runs a lone compute inline
    return;
  }
  // Barrier compute: every frontier compute half runs concurrently on the
  // pool (the caller participates). No commit runs in parallel with this
  // phase, and each compute half touches only its own worker's state, so the
  // phase is race-free by construction.
  ParallelFor(*pool_, static_cast<int>(frontier_.size()), [this](int i) {
    Speculation& speculation = frontier_[static_cast<size_t>(i)];
    speculation.value = speculation.compute();
  });
  uncommitted_ = static_cast<int64_t>(frontier_.size());
  ++stats_.parallel_batches;
  stats_.computes_speculated += uncommitted_;
}

EventSimulator::Speculation* EventSimulator::FindSpeculation(int worker_key) {
  for (Speculation& speculation : frontier_) {
    if (speculation.worker_key == worker_key && !speculation.committed) {
      return &speculation;
    }
  }
  return nullptr;
}

double EventSimulator::ComputeValue(SimEvent& event) {
  Speculation* speculation =
      uncommitted_ > 0 ? FindSpeculation(event.worker_key) : nullptr;
  if (speculation == nullptr || speculation->sequence != event.sequence) {
    return event.compute();
  }
  speculation->committed = true;
  --uncommitted_;
  if (!speculation->dirty) {
    // Sound speculation: no commit since the frontier formed wrote this
    // worker's compute-visible state, so the pooled result is exactly what
    // an inline run would produce now.
    return speculation->value;
  }
  // Invalidated speculation: its second-pass re-dispatch carries the value
  // an inline recompute would produce (the key has not been written since
  // the re-dispatch, or NotifyStateWrite would have invalidated and replaced
  // it). FlushRedispatches runs after every handler, so by the event's turn
  // a dirty speculation always holds a live re-dispatch.
  std::future<void> redispatch = std::move(speculation->redispatch);
  NETMAX_CHECK(redispatch.valid() && !speculation->redispatch_invalidated)
      << "invalidated speculation without a live re-dispatch: event time "
      << event.time << " sequence " << event.sequence << " worker key "
      << event.worker_key;
  redispatch.wait();
  return speculation->redispatch_value;
}

void EventSimulator::NotifyStateWrite(int worker_key) {
  if (uncommitted_ == 0) return;  // nothing to invalidate
  Speculation* speculation = FindSpeculation(worker_key);
  if (speculation == nullptr) return;
  if (speculation->redispatch.valid() &&
      !speculation->redispatch_invalidated) {
    // A second-pass recompute for this key is in flight (or done): finish it
    // before the caller's write can race its reads, discard its value, and
    // queue yet another re-dispatch — it will observe the caller's write
    // once the current handler returns.
    speculation->redispatch.wait();
    speculation->redispatch_invalidated = true;
    pending_redispatch_.push_back(speculation);
    return;
  }
  if (speculation->dirty) return;  // already queued by this handler
  // First invalidation in the frontier: queue the second-pass re-dispatch
  // (flushed after the current handler returns, so the recompute reads
  // post-write state).
  speculation->dirty = true;
  pending_redispatch_.push_back(speculation);
}

void EventSimulator::FlushRedispatches() {
  if (pending_redispatch_.empty()) return;
  // Event order, so the pool starts the earliest-committing recompute first.
  std::sort(pending_redispatch_.begin(), pending_redispatch_.end(),
            [](const Speculation* a, const Speculation* b) {
              if (a->time != b->time) return a->time < b->time;
              return a->sequence < b->sequence;
            });
  for (Speculation* speculation : pending_redispatch_) {
    // The task writes into the frontier member, which stays put until the
    // drain consumes it (after waiting on `redispatch`) or the halt path
    // waits it out.
    speculation->redispatch_invalidated = false;
    speculation->redispatch = pool_->Submit(std::packaged_task<void()>(
        [speculation] {
          speculation->redispatch_value = speculation->compute();
        }));
    ++stats_.computes_redispatched;
  }
  pending_redispatch_.clear();
}

void EventSimulator::DiscardFrontier() {
  // Wait out the second-pass tasks (their pooled writes target the frontier
  // members being dropped here), then drop every uncommitted speculation.
  // Nothing here was committed, so discarding it cannot perturb the halted
  // run's result.
  for (Speculation& speculation : frontier_) {
    if (speculation.redispatch.valid()) speculation.redispatch.wait();
  }
  frontier_.clear();
  uncommitted_ = 0;
  pending_redispatch_.clear();
}

}  // namespace netmax::net
