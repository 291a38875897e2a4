#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "linalg/vector_ops.h"

namespace netmax::core {

StatusOr<RunResult> Engine::Run() {
  NETMAX_RETURN_IF_ERROR(harness_.Init());
  parked_.assign(static_cast<size_t>(harness_.num_workers()), 0);
  NETMAX_RETURN_IF_ERROR(Setup());
  harness_.set_engine_builder(
      [this](net::SimEvent& event) { return BuildEvent(event); });
  if (harness_.restore_requested()) {
    NETMAX_RETURN_IF_ERROR(harness_.Restore([this](Deserializer& in) {
      for (uint8_t& parked : parked_) {
        NETMAX_ASSIGN_OR_RETURN(const bool flag, in.ReadBool());
        parked = flag ? 1 : 0;
      }
      return RestoreState(in);
    }));
  } else {
    Start();
  }
  harness_.ArmCheckpoint([this](Serializer& out) {
    for (const uint8_t parked : parked_) out.WriteBool(parked != 0);
    SaveState(out);
    return Status::Ok();
  });
  harness_.set_fault_listener([this](const net::FaultEvent& fault) {
    if (fault.kind == net::FaultKind::kJoin &&
        parked_[static_cast<size_t>(fault.worker)] != 0) {
      StartIteration(fault.worker);
    }
    OnFault(fault);
  });
  harness_.sim().RunUntilIdle();
  NETMAX_RETURN_IF_ERROR(harness_.checkpoint_status());
  return harness_.Finalize();
}

void Engine::Start() {
  for (int w = 0; w < harness_.num_workers(); ++w) StartIteration(w);
}

void Engine::EmitAt(double time, int worker_key, net::EventPayload payload) {
  harness_.sim().Schedule(time, worker_key, std::move(payload));
}

bool Engine::ParkIfDone(int w) {
  const bool done = harness_.WorkerDone(w);
  parked_[static_cast<size_t>(w)] = done ? 1 : 0;
  return done;
}

Status Engine::GradientEvent(net::SimEvent& event,
                             net::SimEvent::CommitFn commit) {
  const int w = event.worker_key;
  event.compute = [this, w] { return harness_.EvalBatchGradient(w); };
  event.commit = std::move(commit);
  return Status::Ok();
}

Status Engine::PlainEvent(net::SimEvent& event,
                          net::SimEvent::Callback callback) {
  event.plain = std::move(callback);
  return Status::Ok();
}

Status Engine::Malformed(const net::SimEvent& event) const {
  return InvalidArgumentError("malformed " + harness_.algorithm_name() +
                              " event (tag " +
                              std::to_string(event.payload.tag) + ")");
}

void RoundEngine::Start() { Emit(0.0, kPlainEvent, {kRunRound, {}}); }

Status RoundEngine::BuildEvent(net::SimEvent& event) {
  switch (event.payload.tag) {
    case kRoundCompute: {
      if (!IsComputeEvent(event, 0)) break;
      const int w = event.worker_key;
      return GradientEvent(event, [this, w](double loss) {
        harness_.CommitBatchStats(w, loss);
        // Commits run in membership order; the last one reduces. On full
        // membership that is worker n-1's commit.
        if (--pending_ == 0) EmitAt(Reduce(), kPlainEvent, {kRunRound, {}});
      });
    }
    case kRunRound:
      if (!IsPlainEvent(event, 0)) break;
      return PlainEvent(event, [this] { RunRound(); });
    default:
      break;
  }
  return Malformed(event);
}

void RoundEngine::RunRound() {
  if (harness_.AllDone()) return;
  const int n = harness_.num_workers();
  members_.clear();
  if (config().peer_policy == PeerPolicy::kWait) {
    for (int w = 0; w < n; ++w) {
      if (!harness_.WorkerAlive(w)) {
        if (!round_waiting_) {
          round_waiting_ = true;
          harness_.CountDegradedRound();
        }
        Emit(config().peer_poll_seconds, kPlainEvent, {kRunRound, {}});
        return;
      }
    }
    round_waiting_ = false;
    for (int w = 0; w < n; ++w) members_.push_back(w);
  } else {
    double min_compute = 0.0;
    bool has_alive = false;
    for (int w = 0; w < n; ++w) {
      if (!harness_.WorkerAlive(w)) continue;
      const double compute = harness_.EffectiveComputeSeconds(w);
      min_compute = has_alive ? std::min(min_compute, compute) : compute;
      has_alive = true;
    }
    bool degraded = false;
    for (int w = 0; w < n; ++w) {
      if (!harness_.WorkerAlive(w)) {
        degraded = true;
        continue;
      }
      if (harness_.EffectiveComputeSeconds(w) >
          min_compute + config().peer_timeout_seconds) {
        // The fastest member never exceeds its own bound, so the membership
        // is non-empty whenever anyone is alive.
        degraded = true;
        harness_.CountPeerTimeout();
        continue;
      }
      members_.push_back(w);
    }
    if (members_.empty()) {
      // Everyone is dead: re-probe until a join revives the round.
      Emit(config().peer_poll_seconds, kPlainEvent, {kRunRound, {}});
      return;
    }
    if (degraded) harness_.CountDegradedRound();
  }
  pending_ = static_cast<int>(members_.size());
  for (int w : members_) {
    harness_.SampleBatch(w);
    Emit(0.0, w, {kRoundCompute, {}});
  }
}

std::vector<double> RoundEngine::MeanGradient(bool decode, int64_t round) {
  if (decode) {
    for (int w : members_) {
      harness_.ApplyCompression(w, round, harness_.worker(w).gradient);
    }
  }
  std::vector<double> mean(harness_.worker(0).gradient.size(), 0.0);
  for (int w : members_) {
    linalg::AddInPlace(harness_.worker(w).gradient, mean);
  }
  linalg::Scale(1.0 / static_cast<double>(members_.size()), mean);
  return mean;
}

void RoundEngine::SaveState(Serializer& out) const {
  out.WriteIntVec(members_);
  out.WriteInt(pending_);
  out.WriteBool(round_waiting_);
}

Status RoundEngine::RestoreState(Deserializer& in) {
  NETMAX_RETURN_IF_ERROR(in.ReadIntVec(&members_));
  for (int w : members_) {
    if (!IsWorker(w)) return InvalidArgumentError("round member out of range");
  }
  NETMAX_ASSIGN_OR_RETURN(pending_, in.ReadInt());
  if (pending_ < 0 || pending_ > static_cast<int>(members_.size())) {
    return InvalidArgumentError("pending commit count out of range");
  }
  NETMAX_ASSIGN_OR_RETURN(round_waiting_, in.ReadBool());
  return Status::Ok();
}

}  // namespace netmax::core
