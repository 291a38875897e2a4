#include "core/pull_engine.h"

#include <utility>

namespace netmax::core {
namespace {

// Smoothing of the per-link iteration-time EMAs the monitor reads.
constexpr double kEmaBeta = 0.5;

}  // namespace

void PullEngine::UsePolicy(const PolicyGeneratorOptions* monitor_generator) {
  policy_ = std::make_unique<CommunicationPolicy>(
      CommunicationPolicy::Uniform(harness_.topology()));
  if (monitor_generator == nullptr) return;
  PolicyGeneratorOptions generator = *monitor_generator;
  generator.alpha = config().learning_rate;
  monitor_ = std::make_unique<NetworkMonitor>(harness_.topology(), generator);
  const size_t n = static_cast<size_t>(harness_.num_workers());
  ema_times_.assign(n, std::vector<ExponentialMovingAverage>(
                           n, ExponentialMovingAverage(kEmaBeta)));
}

void PullEngine::ScheduleMonitorTick() {
  Emit(config().monitor_period_seconds, kPlainEvent, {kMonitorTick, {}});
}

void PullEngine::StartIteration(int w) {
  if (ParkIfDone(w)) return;
  const int m = DrawPeer(w);
  if (m == w) {
    LocalStep(w, 0.0);
  } else if (!harness_.WorkerAlive(m)) {
    // The drawn peer is dead: hold the iteration per the peer policy. The
    // batch is sampled only when the pull (or the fallback step) goes out.
    BeginPeerWait(w, m);
  } else {
    Pull(w, m, 0.0);
  }
}

// The draw, the batch and the claimed round all happen here, in the commit
// context; the gradient is the pure compute half and CompletePull the
// ordered commit.
void PullEngine::Pull(int w, int m, double waited) {
  const double compute = harness_.EffectiveComputeSeconds(w);
  harness_.SampleBatch(w);
  const int64_t round = harness_.NextCommRound(w);
  const double wall = PullWall(compute, harness_.SendSeconds(m, w, round));
  // The wait already elapsed in virtual time: the event is due after the
  // pull's own leg, but the iteration's wall time counts both.
  Emit(wall, w,
       {kPull,
        {static_cast<double>(m), compute, waited + wall,
         static_cast<double>(round)}});
}

void PullEngine::LocalStep(int w, double waited) {
  const double compute = harness_.EffectiveComputeSeconds(w);
  harness_.SampleBatch(w);
  Emit(compute, w, {kLocalStep, {compute, waited + compute}});
}

void PullEngine::BeginPeerWait(int w, int m) {
  harness_.CountDegradedRound();
  if (config().peer_policy == PeerPolicy::kTimeoutAndContinue) {
    Emit(config().peer_timeout_seconds, kPlainEvent,
         {kPeerTimeout, {static_cast<double>(w), static_cast<double>(m)}});
  } else {
    Emit(config().peer_poll_seconds, kPlainEvent,
         {kPeerWait,
          {static_cast<double>(w), static_cast<double>(m),
           config().peer_poll_seconds}});
  }
}

void PullEngine::PeerWaitTick(int w, int m, double waited) {
  if (ParkIfDone(w)) return;
  if (harness_.WorkerAlive(m)) {
    Pull(w, m, waited);
    return;
  }
  Emit(config().peer_poll_seconds, kPlainEvent,
       {kPeerWait,
        {static_cast<double>(w), static_cast<double>(m),
         waited + config().peer_poll_seconds}});
}

void PullEngine::PeerTimeoutExpired(int w, int m) {
  if (ParkIfDone(w)) return;
  if (harness_.WorkerAlive(m)) {
    Pull(w, m, config().peer_timeout_seconds);
    return;
  }
  harness_.CountPeerTimeout();
  LocalStep(w, config().peer_timeout_seconds);
}

void PullEngine::CompletePull(int w, int m, double compute, double wall,
                              int64_t round, double loss) {
  harness_.CommitBatchStats(w, loss);
  const bool peer_alive = harness_.WorkerAlive(m);
  if (step_before_mix_ || !peer_alive) harness_.ApplyStoredGradient(w);
  if (peer_alive) {
    Mix(w, m, round);
    if (!step_before_mix_) harness_.ApplyStoredGradient(w);
    // Iteration-time EMA (Algorithm 2, UPDATETIMEVECTOR).
    if (monitor_ != nullptr) {
      ema_times_[static_cast<size_t>(w)][static_cast<size_t>(m)].Add(wall);
    }
  } else {
    // The peer died while the pull was in flight: the gradient progress
    // stands, the mix (and its EMA sample) does not.
    harness_.CountDegradedRound();
  }
  harness_.AccountIteration(w, compute, wall);
  StartIteration(w);
}

void PullEngine::MonitorTick() {
  if (harness_.AllDone()) return;  // training is over; the monitor stops
  const int n = harness_.num_workers();
  linalg::Matrix times(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int m : harness_.topology().Neighbors(i)) {
      const auto& ema =
          ema_times_[static_cast<size_t>(i)][static_cast<size_t>(m)];
      if (ema.has_value()) times(i, m) = ema.value();
    }
  }
  StatusOr<GeneratedPolicy> generated =
      monitor_->ComputePolicy(times, harness_.pool());
  // Warm-up (no measurements yet) or an infeasible configuration keeps the
  // previous policy; either way the monitor keeps running.
  if (generated.ok()) {
    policy_ = std::make_unique<CommunicationPolicy>(
        std::move(generated.value().policy));
    rho_ = generated->rho;
    harness_.CountPolicyGenerated();
  }
  ScheduleMonitorTick();
}

Status PullEngine::BuildEvent(net::SimEvent& event) {
  const std::vector<double>& args = event.payload.args;
  const int w = event.worker_key;
  switch (event.payload.tag) {
    case kLocalStep: {
      if (!IsComputeEvent(event, 2)) break;
      const double compute = args[0];
      const double wall = args[1];
      return GradientEvent(event, [this, w, compute, wall](double loss) {
        harness_.CommitBatchStats(w, loss);
        harness_.ApplyStoredGradient(w);
        harness_.AccountIteration(w, compute, wall);
        StartIteration(w);
      });
    }
    case kPull: {
      if (!IsComputeEvent(event, 4)) break;
      const int m = static_cast<int>(args[0]);
      if (!IsWorker(m) || m == w) break;
      const double compute = args[1];
      const double wall = args[2];
      const int64_t round = static_cast<int64_t>(args[3]);
      return GradientEvent(event,
                           [this, w, m, compute, wall, round](double loss) {
                             CompletePull(w, m, compute, wall, round, loss);
                           });
    }
    case kMonitorTick:
      if (!IsPlainEvent(event, 0) || monitor_ == nullptr) break;
      return PlainEvent(event, [this] { MonitorTick(); });
    case kPeerWait:
    case kPeerTimeout: {
      const bool wait = event.payload.tag == kPeerWait;
      if (!IsPlainEvent(event, wait ? 3 : 2)) break;
      const int worker = static_cast<int>(args[0]);
      const int m = static_cast<int>(args[1]);
      if (!IsWorker(worker) || !IsWorker(m) || m == worker) break;
      if (!wait) {
        return PlainEvent(
            event, [this, worker, m] { PeerTimeoutExpired(worker, m); });
      }
      const double waited = args[2];
      return PlainEvent(event, [this, worker, m, waited] {
        PeerWaitTick(worker, m, waited);
      });
    }
    default:
      break;
  }
  return Malformed(event);
}

Status PullEngine::TransferState(StateIo& io) {
  // Only a monitor moves the policy; the EMAs exist only with one.
  if (monitor_ == nullptr) return Status::Ok();
  linalg::Matrix matrix = policy_->matrix();
  NETMAX_RETURN_IF_ERROR(matrix.TransferState(io));
  if (io.restoring()) {
    const int n = harness_.num_workers();
    if (matrix.rows() != n || matrix.cols() != n) {
      return InvalidArgumentError("checkpoint policy matrix shape mismatch");
    }
    policy_ = std::make_unique<CommunicationPolicy>(std::move(matrix));
  }
  NETMAX_RETURN_IF_ERROR(io(rho_));
  // The per-link iteration-time EMAs (the monitor's UPDATETIMEVECTOR state).
  // The grid is built from the config before a restore, which must find the
  // saved shape; each cell keeps its beta.
  uint64_t rows = ema_times_.size();
  NETMAX_RETURN_IF_ERROR(io(rows));
  if (io.restoring() && rows != ema_times_.size()) {
    return InvalidArgumentError("checkpointed EMA grid row count mismatch");
  }
  for (std::vector<ExponentialMovingAverage>& row : ema_times_) {
    uint64_t cols = row.size();
    NETMAX_RETURN_IF_ERROR(io(cols));
    if (io.restoring() && cols != row.size()) {
      return InvalidArgumentError("checkpointed EMA grid column count "
                                  "mismatch");
    }
    for (ExponentialMovingAverage& ema : row) {
      NETMAX_RETURN_IF_ERROR(io(ema));
    }
  }
  return Status::Ok();
}

}  // namespace netmax::core
