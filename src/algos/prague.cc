#include "algos/prague.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "linalg/vector_ops.h"

namespace netmax::algos {
namespace {

class PragueEngine : public core::Engine {
 public:
  PragueEngine(const core::ExperimentConfig& config, int group_size)
      : Engine(config, "Prague"), group_size_(group_size) {}

 private:
  // Event tags: each tag and its args describe one event (core/engine.h).
  // An in-flight group reduce checkpoints as its kGroupFinish event (the
  // member models were already averaged at launch); the waiting room
  // (`ready_`), per-worker iteration starts, and the in-flight group count
  // ride in the engine blob.
  enum Tag : int64_t {
    kCompute = 0,       // compute event: args []
    kGroupFinish = 1,   // plain event: args [members...]
    kReadyTimeout = 2,  // plain event: args [worker, ready_since]
  };

  Status Setup() override {
    const int n = harness_.num_workers();
    if (group_size_ <= 1) group_size_ = n <= 4 ? 2 : 4;
    group_size_ = std::min(group_size_, n);
    iteration_start_.assign(static_cast<size_t>(n), 0.0);
    ready_since_.assign(static_cast<size_t>(n), -1.0);
    return Status::Ok();
  }

  void StartIteration(int w) override {
    if (ParkIfDone(w)) {
      // A finished worker no longer joins groups; flush stragglers so the
      // remaining ready workers are not stranded waiting for it.
      MaybeFormGroup(/*flush=*/true);
      return;
    }
    iteration_start_[static_cast<size_t>(w)] = harness_.sim().Now();
    const double compute = harness_.EffectiveComputeSeconds(w);
    harness_.SampleBatch(w);
    Emit(compute, w, {kCompute, {}});
  }

  // A leaving worker is evicted from the waiting room (a dead member must
  // not be averaged into a group), and the remaining ready workers are
  // re-examined: the active-worker count just changed.
  void OnFault(const net::FaultEvent& fault) override {
    if (fault.kind != net::FaultKind::kLeave) return;
    auto it = std::find(ready_.begin(), ready_.end(), fault.worker);
    if (it != ready_.end()) {
      ready_.erase(it);
      ready_since_[static_cast<size_t>(fault.worker)] = -1.0;
      Park(fault.worker);
      harness_.CountDegradedRound();
    }
    MaybeFormGroup(/*flush=*/false);
  }

  Status BuildEvent(net::SimEvent& event) override {
    const std::vector<double>& args = event.payload.args;
    switch (event.payload.tag) {
      case kCompute: {
        if (!IsComputeEvent(event, 0)) break;
        const int w = event.worker_key;
        return GradientEvent(event, [this, w](double loss) {
          // Local SGD step, then wait for a partial-allreduce group.
          harness_.CommitBatchStats(w, loss);
          harness_.ApplyStoredGradient(w);
          if (!harness_.WorkerAlive(w)) {
            // The worker left while this batch was in flight: the local step
            // counts, but it must not enter the waiting room.
            Park(w);
            harness_.CountDegradedRound();
            MaybeFormGroup(/*flush=*/false);
            return;
          }
          EnterWaitingRoom(w);
        });
      }
      case kGroupFinish: {
        if (event.worker_key >= 0 || args.size() < 2) break;
        std::vector<int> group(args.begin(), args.end());
        if (!std::all_of(group.begin(), group.end(),
                         [this](int w) { return IsWorker(w); })) {
          break;
        }
        return PlainEvent(event, [this, group = std::move(group)] {
          --active_groups_;
          for (int w : group) FinishGroupMember(w);
        });
      }
      case kReadyTimeout: {
        if (!IsPlainEvent(event, 2)) break;
        const int w = static_cast<int>(args[0]);
        if (!IsWorker(w)) break;
        const double since = args[1];
        return PlainEvent(event, [this, w, since] { ReadyTimeout(w, since); });
      }
      default:
        break;
    }
    return Malformed(event);
  }

  void SaveState(Serializer& out) const override {
    out.WriteIntVec(ready_);
    out.WriteDoubleVec(iteration_start_);
    out.WriteInt(active_groups_);
    out.WriteDoubleVec(ready_since_);
  }

  Status RestoreState(Deserializer& in) override {
    NETMAX_RETURN_IF_ERROR(in.ReadIntVec(&ready_));
    for (int w : ready_) {
      if (!IsWorker(w)) return InvalidArgumentError("ready worker out of range");
    }
    NETMAX_RETURN_IF_ERROR(in.ReadDoubleSpan(iteration_start_));
    NETMAX_ASSIGN_OR_RETURN(active_groups_, in.ReadInt());
    if (active_groups_ < 0) {
      return InvalidArgumentError("negative active group count");
    }
    return in.ReadDoubleSpan(ready_since_);
  }

  // The worker's local step committed: it waits for a group. Under
  // kTimeoutAndContinue it also arms a deadline — if it is still waiting
  // (same episode, identified by the entry time) when the deadline fires, it
  // gives up on group formation and continues alone.
  void EnterWaitingRoom(int w) {
    ready_.push_back(w);
    ready_since_[static_cast<size_t>(w)] = harness_.sim().Now();
    if (config().peer_policy == core::PeerPolicy::kTimeoutAndContinue) {
      Emit(config().peer_timeout_seconds, core::kPlainEvent,
           {kReadyTimeout,
            {static_cast<double>(w), ready_since_[static_cast<size_t>(w)]}});
    }
    MaybeFormGroup(/*flush=*/false);
  }

  void ReadyTimeout(int w, double since) {
    // Stale deadline: the worker was grouped (or evicted) since it was
    // armed. Entry times are strictly increasing per worker, so equality
    // identifies the episode exactly.
    if (ready_since_[static_cast<size_t>(w)] != since) return;
    auto it = std::find(ready_.begin(), ready_.end(), w);
    if (it == ready_.end()) return;
    ready_.erase(it);
    ready_since_[static_cast<size_t>(w)] = -1.0;
    harness_.CountPeerTimeout();
    harness_.CountDegradedRound();
    FinishGroupMember(w);
  }

  // Number of workers that can still produce a ready event.
  int ActiveWorkers() const {
    int active = 0;
    for (int w = 0; w < harness_.num_workers(); ++w) {
      if (!harness_.WorkerDone(w)) ++active;
    }
    return active;
  }

  void MaybeFormGroup(bool flush) {
    while (static_cast<int>(ready_.size()) >= group_size_) {
      std::vector<int> group(ready_.begin(), ready_.begin() + group_size_);
      ready_.erase(ready_.begin(), ready_.begin() + group_size_);
      LaunchGroup(group);
    }
    // When too few active workers remain to ever fill a group, reduce what is
    // left (pairs at minimum) or let singletons continue alone.
    if (!ready_.empty() &&
        (flush || ActiveWorkers() < group_size_) &&
        static_cast<int>(ready_.size()) >= ActiveWorkers()) {
      std::vector<int> group = ready_;
      ready_.clear();
      if (group.size() >= 2) {
        LaunchGroup(group);
      } else {
        ready_since_[static_cast<size_t>(group[0])] = -1.0;
        FinishGroupMember(group[0]);
      }
    }
  }

  void LaunchGroup(const std::vector<int>& group) {
    for (int w : group) ready_since_[static_cast<size_t>(w)] = -1.0;
    // Ring allreduce within the group. Concurrent groups share the physical
    // network: the paper attributes Prague's congestion to exactly this, so
    // the reduce is stretched by the number of in-flight groups. One
    // communication round per group reduce, indexed by the first member's
    // counter (groups always have >= 2 members here).
    const int64_t round = harness_.NextCommRound(group.front());
    const double ring_seconds = harness_.RingAllreduceSeconds(group, round);
    ++active_groups_;
    const double reduce_seconds =
        ring_seconds * static_cast<double>(active_groups_);

    // Average the group's models. Members are idle (their next compute is
    // scheduled only in FinishGroupMember), so no backend holds an
    // evaluation for them; AdoptModel notifies anyway, per the contract.
    std::vector<std::vector<double>> params;
    params.reserve(group.size());
    for (int w : group) {
      const auto p = harness_.worker(w).model->parameters();
      params.emplace_back(p.begin(), p.end());
    }
    const std::vector<double> mean = linalg::Mean(params);
    // Each member receives C(mean - x_w).
    for (int w : group) harness_.AdoptModel(w, mean, round);
    Emit(reduce_seconds, core::kPlainEvent,
         {kGroupFinish, std::vector<double>(group.begin(), group.end())});
  }

  void FinishGroupMember(int w) {
    const double wall =
        harness_.sim().Now() - iteration_start_[static_cast<size_t>(w)];
    harness_.AccountIteration(w, harness_.EffectiveComputeSeconds(w), wall);
    StartIteration(w);
  }

  int group_size_;
  std::vector<int> ready_;
  std::vector<double> iteration_start_;
  int active_groups_ = 0;
  // Waiting-room entry time per worker (-1 while not waiting): the episode
  // identity for kReadyTimeout deadlines.
  std::vector<double> ready_since_;
};

}  // namespace

StatusOr<core::RunResult> PragueAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  PragueEngine engine(config, group_size_);
  return engine.Run();
}

}  // namespace netmax::algos
