#include "net/event_sim.h"

#include <algorithm>
#include <string>
#include <utility>

namespace netmax::net {

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

void EventSimulator::ScheduleComputeAfter(double delay, int worker_key,
                                          ComputeFn compute, CommitFn commit) {
  NETMAX_CHECK_GE(delay, 0.0);
  ScheduleCompute(now_ + delay, worker_key, std::move(compute),
                  std::move(commit));
}

void EventSimulator::ScheduleAt(double time, EventPayload payload,
                                Callback callback) {
  NETMAX_CHECK(callback != nullptr);
  NETMAX_CHECK_GE(payload.tag, 0) << "tagged overload requires a tag";
  SimEvent event;
  event.time = time;
  event.plain = std::move(callback);
  event.payload = std::move(payload);
  Insert(std::move(event));
}

void EventSimulator::ScheduleAfter(double delay, EventPayload payload,
                                   Callback callback) {
  NETMAX_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(payload), std::move(callback));
}

void EventSimulator::ScheduleCompute(double time, int worker_key,
                                     EventPayload payload, ComputeFn compute,
                                     CommitFn commit) {
  NETMAX_CHECK_GE(worker_key, 0) << "worker_key must be non-negative";
  NETMAX_CHECK(compute != nullptr);
  NETMAX_CHECK(commit != nullptr);
  NETMAX_CHECK_GE(payload.tag, 0) << "tagged overload requires a tag";
  SimEvent event;
  event.time = time;
  event.worker_key = worker_key;
  event.compute = std::move(compute);
  event.commit = std::move(commit);
  event.payload = std::move(payload);
  Insert(std::move(event));
}

void EventSimulator::ScheduleComputeAfter(double delay, int worker_key,
                                          EventPayload payload,
                                          ComputeFn compute, CommitFn commit) {
  NETMAX_CHECK_GE(delay, 0.0);
  ScheduleCompute(now_ + delay, worker_key, std::move(payload),
                  std::move(compute), std::move(commit));
}

void EventSimulator::NotifyStateWrite(int worker_key) {
  if (backend_ != nullptr) backend_->OnStateWrite(*this, worker_key);
}

ExecutionStats EventSimulator::execution_stats() const {
  return backend_ != nullptr ? backend_->stats() : ExecutionStats{};
}

void EventSimulator::ScanPendingComputes(
    int64_t max_scan,
    const std::function<ScanAction(const PendingComputeView&)>& visit) const {
  queue_.VisitInOrder(max_scan, [&visit](const SimEvent& event) {
    if (event.compute == nullptr) return EventQueue::VisitAction::kContinue;
    const PendingComputeView view{event.time, event.sequence,
                                  event.worker_key, event.compute};
    return visit(view) == ScanAction::kStop
               ? EventQueue::VisitAction::kStop
               : EventQueue::VisitAction::kContinue;
  });
}

bool EventSimulator::StepWith(const SpeculationProvider& provider) {
  if (queue_.empty()) return false;
  // Pop by value so the handlers may schedule new events.
  SimEvent event = queue_.PopNext();
  now_ = event.time;
  ++processed_;
  if (event.compute != nullptr) {
    double value;
    if (provider == nullptr ||
        !provider(event.sequence, event.worker_key, &value)) {
      value = event.compute();
    }
    event.commit(value);
  } else {
    event.plain();
  }
  return true;
}

bool EventSimulator::Step() { return StepWith(nullptr); }

int64_t EventSimulator::RunUntil(double time_limit) {
  int64_t count = 0;
  while (!queue_.empty() && queue_.NextTime() <= time_limit) {
    Step();
    ++count;
  }
  if (now_ < time_limit) now_ = time_limit;
  return count;
}

StatusOr<std::vector<SavedEvent>> EventSimulator::SaveQueue() const {
  std::vector<SavedEvent> events;
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
        events.push_back(SavedEvent{event.time, event.sequence,
                                    event.worker_key, event.payload});
        return EventQueue::VisitAction::kContinue;
      });
  NETMAX_RETURN_IF_ERROR(status);
  return events;
}

Status EventSimulator::RestoreQueue(const std::vector<SavedEvent>& events,
                                    const EventRebuilder& rebuilder) {
  if (!queue_.empty()) {
    return FailedPreconditionError(
        "RestoreQueue requires an empty event queue");
  }
  NETMAX_CHECK(rebuilder != nullptr);
  // Validate before touching the queue, so a failed restore leaves it empty.
  std::vector<int64_t> sequences;
  sequences.reserve(events.size());
  for (const SavedEvent& saved : events) {
    const std::string where = "event tag " + std::to_string(saved.payload.tag) +
                              " (sequence " + std::to_string(saved.sequence) +
                              ")";
    if (saved.time < now_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " is scheduled before the restored clock");
    }
    if (saved.sequence < 0 || saved.sequence >= next_sequence_) {
      return InvalidArgumentError("checkpointed " + where +
                                  " has a sequence outside the restored "
                                  "counter range");
    }
    sequences.push_back(saved.sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  for (size_t i = 1; i < sequences.size(); ++i) {
    if (sequences[i] == sequences[i - 1]) {
      return InvalidArgumentError(
          "checkpointed queue contains duplicate sequence " +
          std::to_string(sequences[i]));
    }
  }
  std::vector<SimEvent> rebuilt_events;
  rebuilt_events.reserve(events.size());
  for (const SavedEvent& saved : events) {
    const std::string where = "event tag " + std::to_string(saved.payload.tag) +
                              " (sequence " + std::to_string(saved.sequence) +
                              ")";
    NETMAX_ASSIGN_OR_RETURN(RebuiltEvent rebuilt, rebuilder(saved));
    SimEvent event;
    event.time = saved.time;
    event.sequence = saved.sequence;
    event.worker_key = saved.worker_key < 0 ? kNoKey : saved.worker_key;
    event.payload = saved.payload;
    if (event.worker_key == kNoKey) {
      if (rebuilt.plain == nullptr || rebuilt.compute != nullptr ||
          rebuilt.commit != nullptr) {
        return InternalError("rebuilder returned a non-plain closure set for "
                             "plain " +
                             where);
      }
      event.plain = std::move(rebuilt.plain);
    } else {
      if (rebuilt.compute == nullptr || rebuilt.commit == nullptr ||
          rebuilt.plain != nullptr) {
        return InternalError(
            "rebuilder returned an incomplete closure set for compute " +
            where);
      }
      event.compute = std::move(rebuilt.compute);
      event.commit = std::move(rebuilt.commit);
    }
    rebuilt_events.push_back(std::move(event));
  }
  // Sequence numbers are restored exactly as saved (Insert is bypassed), so
  // relative (time, sequence) ordering — and with it every tie-break —
  // replays bit-identically.
  for (SimEvent& event : rebuilt_events) queue_.Push(std::move(event));
  return Status::Ok();
}

void EventSimulator::RestoreClock(double now, int64_t next_sequence,
                                  int64_t processed) {
  NETMAX_CHECK(queue_.empty()) << "restore the clock before the queue";
  now_ = now;
  next_sequence_ = next_sequence;
  processed_ = processed;
}

int64_t EventSimulator::RunUntilIdle() {
  if (backend_ != nullptr) return backend_->RunUntilIdle(*this);
  int64_t count = 0;
  while (!halt_requested_ && Step()) ++count;
  if (halt_requested_) queue_.Clear();
  return count;
}

int64_t ExecutionBackend::RunUntilIdle(EventSimulator& sim) {
  int64_t count = 0;
  while (!sim.halt_requested() && !sim.empty()) {
    Dispatch(sim);
    count += DrainCommits(sim);
  }
  if (sim.halt_requested()) {
    // Crash fault: discard in-flight evaluations (waiting their pooled tasks
    // out), then drop the pending queue. Everything already committed stays;
    // nothing else runs.
    OnHalt(sim);
    sim.ClearQueue();
    return count;
  }
  OnIdle(sim);
  return count;
}

}  // namespace netmax::net
