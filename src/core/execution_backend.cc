#include "core/execution_backend.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "common/thread_pool.h"

namespace netmax::core {
namespace {

using net::EventSimulator;

// Dispatch scan bound: how many queue entries a backend examines per
// Dispatch call while looking for compute halves to run ahead (plain events
// count toward the cap). Bounds the cost of skipping over plain events.
constexpr int64_t kMaxScannedEvents = 256;

// Speculative frontier bound: scales with the pool so the ordered drain
// (serial) phase stays short relative to the compute phase. The RunUntilIdle
// caller participates in the compute barrier, hence +1.
int64_t FrontierCap(const ThreadPool& pool) {
  return 4 * (static_cast<int64_t>(pool.num_threads()) + 1);
}

// Sorts invalidated worker keys into (time, sequence) order of their events
// so the pool starts the earliest-committing recompute first. Shared by both
// pooled backends' FlushRedispatches — the re-dispatch protocol itself
// (wait out the in-flight read in OnStateWrite, queue the key, resubmit here
// after the handler) must stay in lockstep between them too.
void SortKeysByEventOrder(
    std::vector<int>& keys,
    const std::function<std::pair<double, int64_t>(int)>& event_order) {
  std::sort(keys.begin(), keys.end(), [&event_order](int a, int b) {
    return event_order(a) < event_order(b);
  });
}

}  // namespace

bool ParseExecutionBackendKind(std::string_view text,
                               ExecutionBackendKind* kind) {
  if (text == "serial") {
    *kind = ExecutionBackendKind::kSerial;
    return true;
  }
  if (text == "speculative") {
    *kind = ExecutionBackendKind::kSpeculative;
    return true;
  }
  if (text == "async") {
    *kind = ExecutionBackendKind::kAsyncPipeline;
    return true;
  }
  return false;
}

std::string_view ExecutionBackendKindName(ExecutionBackendKind kind) {
  switch (kind) {
    case ExecutionBackendKind::kSerial:
      return "serial";
    case ExecutionBackendKind::kSpeculative:
      return "speculative";
    case ExecutionBackendKind::kAsyncPipeline:
      return "async";
  }
  return "unknown";
}

std::unique_ptr<ExecutionBackend> MakeExecutionBackend(
    ExecutionBackendKind kind, ThreadPool* pool) {
  if (pool == nullptr || kind == ExecutionBackendKind::kSerial) return nullptr;
  if (kind == ExecutionBackendKind::kSpeculative) {
    return std::make_unique<SpeculativeBackend>(pool);
  }
  // Twice the thread budget: the pool's workers plus the RunUntilIdle caller.
  return std::make_unique<AsyncPipelineBackend>(
      pool, 2 * (pool->num_threads() + 1));
}

// --- SpeculativeBackend -----------------------------------------------------

SpeculativeBackend::SpeculativeBackend(ThreadPool* pool) : pool_(pool) {
  NETMAX_CHECK(pool_ != nullptr) << "SpeculativeBackend needs a pool";
}

void SpeculativeBackend::Dispatch(EventSimulator& sim) {
  if (!inflight_.empty()) return;  // mid-batch: DrainCommits empties it first
  // Frontier scan: the longest prefix of compute events with pairwise-
  // distinct worker keys. Plain events are skipped, not barriers: they run at
  // their exact position during the drain, and any state they write is
  // covered by NotifyStateWrite invalidation. A duplicate key ends the scan
  // so no two speculations ever target the same state partition.
  std::vector<Speculation> frontier;
  std::vector<int> frontier_keys;
  std::unordered_set<int> seen_keys;
  const int64_t frontier_cap = FrontierCap(*pool_);
  sim.ScanPendingComputes(
      kMaxScannedEvents,
      [&](const EventSimulator::PendingComputeView& view) {
        if (static_cast<int64_t>(frontier.size()) >= frontier_cap) {
          return EventSimulator::ScanAction::kStop;
        }
        if (!seen_keys.insert(view.worker_key).second) {
          return EventSimulator::ScanAction::kStop;
        }
        frontier.push_back(
            Speculation{view.sequence, view.time, view.compute, 0.0});
        frontier_keys.push_back(view.worker_key);
        return EventSimulator::ScanAction::kContinue;
      });
  if (frontier.size() < 2) return;  // the drain runs it inline

  // Barrier compute: every frontier compute half runs concurrently on the
  // pool (the caller participates). No commit runs in parallel with this
  // phase, and each compute half touches only its own worker's state, so the
  // phase is race-free by construction.
  ParallelFor(*pool_, static_cast<int>(frontier.size()), [&frontier](int i) {
    Speculation& speculation = frontier[static_cast<size_t>(i)];
    speculation.value = speculation.compute();
  });
  ++stats_.parallel_batches;
  stats_.computes_speculated += static_cast<int64_t>(frontier.size());

  dirty_keys_.clear();
  for (size_t i = 0; i < frontier.size(); ++i) {
    inflight_.emplace(frontier_keys[i], std::move(frontier[i]));
  }
}

int64_t SpeculativeBackend::DrainCommits(EventSimulator& sim) {
  if (inflight_.empty()) {
    // Frontier of one (or an all-plain queue head): plain serial step.
    const bool stepped = sim.StepWith(nullptr);
    return stepped ? 1 : 0;
  }
  // Ordered drain: apply events strictly in (time, sequence) order until
  // every speculation is consumed. Commits may schedule new events (which
  // run inline at their correct position, even before later frontier
  // members) and may dirty keys via NotifyStateWrite (which re-dispatches
  // the affected speculation onto the pool after the handler returns).
  const EventSimulator::SpeculationProvider provider =
      [this](int64_t sequence, int worker_key, double* value) {
        return ProvideValue(sequence, worker_key, value);
      };
  int64_t count = 0;
  while (!inflight_.empty()) {
    NETMAX_CHECK(!sim.empty()) << "speculated event vanished from queue";
    sim.StepWith(provider);
    // Handlers queue invalidated keys; the second speculation pass starts
    // here, after the handler's writes are complete.
    FlushRedispatches();
    ++count;
    // A crash fault mid-batch: stop draining immediately — the uncommitted
    // speculations are discarded by OnHalt, exactly as if they were never
    // evaluated.
    if (sim.halt_requested()) break;
  }
  NETMAX_CHECK(sim.halt_requested() || redispatches_.empty())
      << "second-pass re-dispatch outlived its batch";
  return count;
}

void SpeculativeBackend::OnHalt(EventSimulator& /*sim*/) {
  // Wait out the second-pass tasks (their pooled writes target the
  // heap-stable Redispatch entries being destroyed here), then drop every
  // uncommitted speculation. Nothing here was committed, so discarding it
  // cannot perturb the halted run's result.
  for (auto& [key, redispatch] : redispatches_) redispatch->done.wait();
  redispatches_.clear();
  inflight_.clear();
  dirty_keys_.clear();
  pending_redispatch_keys_.clear();
}

bool SpeculativeBackend::ProvideValue(int64_t sequence, int worker_key,
                                      double* value) {
  const auto it = inflight_.find(worker_key);
  if (it == inflight_.end() || it->second.sequence != sequence) return false;
  bool provided = true;
  if (dirty_keys_.find(worker_key) == dirty_keys_.end()) {
    // Sound speculation: no commit since the frontier formed wrote this
    // worker's compute-visible state, so the pooled result is exactly what
    // an inline run would produce now.
    *value = it->second.value;
  } else {
    // Invalidated speculation: its second-pass re-dispatch carries the value
    // an inline recompute would produce (the key has not been written since
    // the re-dispatch, or OnStateWrite would have invalidated and replaced
    // it). The inline fallback only covers the defensive no-entry case and
    // is expected to stay cold.
    const auto redispatch = redispatches_.find(worker_key);
    if (redispatch != redispatches_.end() && !redispatch->second->invalidated) {
      redispatch->second->done.wait();
      *value = redispatch->second->value;
    } else {
      ++stats_.computes_recomputed;
      provided = false;  // StepWith runs the compute half inline
    }
    if (redispatch != redispatches_.end()) redispatches_.erase(redispatch);
  }
  inflight_.erase(it);
  return provided;
}

void SpeculativeBackend::OnStateWrite(EventSimulator& /*sim*/,
                                      int worker_key) {
  if (inflight_.empty()) return;  // nothing to invalidate
  const auto redispatch = redispatches_.find(worker_key);
  if (redispatch != redispatches_.end() && !redispatch->second->invalidated) {
    // A second-pass recompute for this key is in flight (or done): finish it
    // before the caller's write can race its reads, discard its value, and
    // queue yet another re-dispatch — it will observe the caller's write
    // once the current handler returns.
    redispatch->second->done.wait();
    redispatch->second->invalidated = true;
    pending_redispatch_keys_.push_back(worker_key);
    return;
  }
  if (!dirty_keys_.insert(worker_key).second) return;  // already dirty
  // First invalidation of this key in the batch: if its speculation is still
  // awaiting its turn, queue the second-pass re-dispatch (flushed after the
  // current handler returns, so the recompute reads post-write state).
  // Without a pending speculation the insert alone records the write.
  if (inflight_.find(worker_key) != inflight_.end()) {
    pending_redispatch_keys_.push_back(worker_key);
  }
}

void SpeculativeBackend::FlushRedispatches() {
  if (pending_redispatch_keys_.empty()) return;
  std::vector<int> keys;
  keys.swap(pending_redispatch_keys_);
  SortKeysByEventOrder(keys, [this](int key) {
    const Speculation& speculation = inflight_.at(key);
    return std::make_pair(speculation.time, speculation.sequence);
  });
  for (const int key : keys) {
    const auto it = inflight_.find(key);
    NETMAX_CHECK(it != inflight_.end()) << "invalidated speculation vanished";
    auto redispatch = std::make_unique<Redispatch>();
    std::packaged_task<void()> task(
        [compute = it->second.compute, result = redispatch.get()] {
          result->value = compute();
        });
    redispatch->done = pool_->Submit(std::move(task));
    ++stats_.computes_redispatched;
    redispatches_[key] = std::move(redispatch);
  }
}

// --- AsyncPipelineBackend ---------------------------------------------------

AsyncPipelineBackend::AsyncPipelineBackend(ThreadPool* pool, int reorder_window)
    : pool_(pool), reorder_window_(reorder_window) {
  NETMAX_CHECK(pool_ != nullptr) << "AsyncPipelineBackend needs a pool";
  NETMAX_CHECK_GE(reorder_window_, 1);
}

void AsyncPipelineBackend::Submit(Entry& entry) {
  // The pooled task writes into the heap-stable Entry; `done` publishes the
  // write to the simulator thread.
  std::packaged_task<void()> task([&entry] { entry.value = entry.compute(); });
  entry.done = pool_->Submit(std::move(task));
}

void AsyncPipelineBackend::Dispatch(EventSimulator& sim) {
  // Admit pending compute halves into the window in (time, sequence) order.
  // A key already resident is skipped — its later same-key events must
  // observe the resident event's commit — but the scan continues past it, so
  // one busy worker never blocks the pipeline for the others.
  int64_t admitted = 0;
  sim.ScanPendingComputes(
      kMaxScannedEvents,
      [&](const EventSimulator::PendingComputeView& view) {
        if (window_.find(view.worker_key) != window_.end()) {
          return EventSimulator::ScanAction::kContinue;
        }
        if (static_cast<int>(window_.size()) >= reorder_window_) {
          ++stats_.window_backpressure;  // runnable work held back: full
          return EventSimulator::ScanAction::kStop;
        }
        auto entry = std::make_unique<Entry>();
        entry->sequence = view.sequence;
        entry->worker_key = view.worker_key;
        entry->time = view.time;
        entry->compute = view.compute;
        Submit(*entry);
        window_.emplace(view.worker_key, std::move(entry));
        ++stats_.computes_speculated;
        ++admitted;
        return EventSimulator::ScanAction::kContinue;
      });
  if (admitted > 0 && window_.size() >= 2) ++stats_.parallel_batches;
}

int64_t AsyncPipelineBackend::DrainCommits(EventSimulator& sim) {
  const EventSimulator::SpeculationProvider provider =
      [this](int64_t sequence, int worker_key, double* value) {
        const auto it = window_.find(worker_key);
        if (it == window_.end()) return false;  // not resident: run inline
        if (it->second->sequence != sequence) {
          // A different same-key event is resident — only possible when two
          // same-key computes were pending at once, which engines never do
          // (one outstanding compute per worker). Defensive: finish the
          // resident evaluation before this event's inline compute can race
          // its scratch writes; its value stays usable because any commit
          // that writes the key must notify (invalidating it) anyway.
          it->second->done.wait();
          return false;
        }
        Entry& entry = *it->second;
        // The head of the window is the only compute the drain ever waits
        // for — later in-flight entries keep running while this commit (and
        // everything it schedules) applies.
        if (entry.done.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++stats_.window_stalls;
        }
        entry.done.wait();
        const bool provided = !entry.invalidated;
        if (!provided) ++stats_.computes_recomputed;  // defensive fallback
        if (provided) *value = entry.value;
        window_.erase(it);
        return provided;
      };
  const bool stepped = sim.StepWith(provider);
  // Handlers queue invalidated keys; re-dispatch them now that the handler's
  // writes are complete, so the recompute reads post-write state.
  FlushRedispatches();
  return stepped ? 1 : 0;
}

void AsyncPipelineBackend::OnStateWrite(EventSimulator& /*sim*/,
                                        int worker_key) {
  const auto it = window_.find(worker_key);
  if (it == window_.end() || it->second->invalidated) return;
  // Unlike the speculative backend's barrier, a window-resident evaluation
  // may still be RUNNING when a handler writes its state: finish it before
  // the caller's write can race its reads, then discard the stale value by
  // queueing a re-dispatch (flushed after the handler returns).
  it->second->done.wait();
  it->second->invalidated = true;
  pending_redispatch_keys_.push_back(worker_key);
}

void AsyncPipelineBackend::FlushRedispatches() {
  if (pending_redispatch_keys_.empty()) return;
  std::vector<int> keys;
  keys.swap(pending_redispatch_keys_);
  SortKeysByEventOrder(keys, [this](int key) {
    const Entry& entry = *window_.at(key);
    return std::make_pair(entry.time, entry.sequence);
  });
  for (const int key : keys) {
    Entry& entry = *window_.at(key);
    entry.invalidated = false;
    Submit(entry);
    ++stats_.computes_redispatched;
  }
}

void AsyncPipelineBackend::OnIdle(EventSimulator& /*sim*/) {
  NETMAX_CHECK(window_.empty()) << "window entry outlived its event";
  NETMAX_CHECK(pending_redispatch_keys_.empty())
      << "re-dispatch queued after the last handler";
}

void AsyncPipelineBackend::OnHalt(EventSimulator& /*sim*/) {
  // Wait out every window-resident evaluation (their pooled tasks write into
  // the Entry objects being destroyed here), then discard the window. None of
  // it was committed, so the halted result is untouched.
  for (auto& [key, entry] : window_) entry->done.wait();
  window_.clear();
  pending_redispatch_keys_.clear();
}

}  // namespace netmax::core
