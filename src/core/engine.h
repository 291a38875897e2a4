#ifndef NETMAX_CORE_ENGINE_H_
#define NETMAX_CORE_ENGINE_H_

// The run skeleton every training engine shares, and the round loop of the
// synchronous ones.
//
// An engine supplies three things: its event kinds (small non-negative tags
// with double args, core/checkpoint.h), one BuildEvent that fills an event's
// closures from its tag and args, and one TransferState that saves and
// restores whatever state the harness does not own. Engine::Run does the
// rest, the same way for every algorithm:
//
//   harness Init -> Setup -> hand BuildEvent to the harness ->
//   restore-or-Start -> ArmCheckpoint -> fault listener -> RunUntilIdle ->
//   checkpoint_status -> Finalize
//
// Every event is a description (worker key, tag, args) that the simulator's
// one builder turns into closures through BuildEvent, when it is scheduled
// (Emit / EmitAt) and when a checkpoint restores it, so a live event and its
// restored twin cannot drift.
//
// Engines whose workers run iteration chains follow the parked-chain
// protocol: StartIteration parks the chain when its worker is done
// (finished, dead, or out of virtual time), and a kJoin fault restarts the
// chain only if it is parked, so a worker never runs two chains. The
// skeleton owns the parked flags and saves them ahead of the engine blob.
//
// The peer-pull loop of NetMax, AD-PSGD and SAPS is core/pull_engine.h.

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "net/event_sim.h"
#include "net/fault_schedule.h"

namespace netmax::core {

class Engine {
 public:
  Engine(const ExperimentConfig& config, std::string algorithm_name)
      : harness_(config, std::move(algorithm_name)) {}
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs the configured experiment to its end, resuming from the configured
  // checkpoint instead of starting afresh when one is set. Call once.
  StatusOr<RunResult> Run();

 protected:
  // --- what an engine supplies ---------------------------------------------
  // Deterministic setup after harness Init (policies, monitors, subgraphs).
  // Restored runs run it too, before the checkpoint is read.
  virtual Status Setup() { return Status::Ok(); }
  // Schedules a fresh run's initial events: by default every worker's
  // first iteration.
  virtual void Start();
  // Fills the closures of one event description (see GradientEvent and
  // PlainEvent); rejects an unknown tag or malformed args with Malformed.
  virtual Status BuildEvent(net::SimEvent& event) = 0;
  // The engine blob of a checkpoint, after the skeleton's parked flags: one
  // field list that both saves and restores (common/serialize.h).
  virtual Status TransferState(StateIo& /*io*/) { return Status::Ok(); }
  // Starts worker w's next iteration (chain engines). The kJoin listener
  // calls it for a parked chain.
  virtual void StartIteration(int /*w*/) {}
  // Runs after the parked-chain restart for every applied fault.
  virtual void OnFault(const net::FaultEvent& /*fault*/) {}

  // --- what the skeleton provides ------------------------------------------
  const ExperimentConfig& config() const { return harness_.config(); }

  // Schedules the event (worker_key, payload) `delay` seconds from now, or
  // at absolute virtual time `time`; BuildEvent fills its closures.
  void Emit(double delay, int worker_key, net::EventPayload payload) {
    EmitAt(harness_.sim().Now() + delay, worker_key, std::move(payload));
  }
  void EmitAt(double time, int worker_key, net::EventPayload payload);

  // Parks w's chain and returns true when w is done; otherwise marks the
  // chain running and returns false.
  bool ParkIfDone(int w);
  void Park(int w) { parked_[static_cast<size_t>(w)] = 1; }

  // BuildEvent helpers: shape checks (a compute event keyed by a worker, or
  // a plain event, with exactly `arity` args), the closures of a gradient
  // event (the batch gradient of its worker as the pure half, then `commit`)
  // and of a plain event, and the error for anything else.
  bool IsWorker(int w) const { return w >= 0 && w < harness_.num_workers(); }
  bool IsComputeEvent(const net::SimEvent& event, size_t arity) const {
    return IsWorker(event.worker_key) && event.payload.args.size() == arity;
  }
  static bool IsPlainEvent(const net::SimEvent& event, size_t arity) {
    return event.worker_key < 0 && event.payload.args.size() == arity;
  }
  Status GradientEvent(net::SimEvent& event, net::SimEvent::CommitFn commit);
  static Status PlainEvent(net::SimEvent& event,
                           net::SimEvent::Callback callback);
  Status Malformed(const net::SimEvent& event) const;

  ExperimentHarness harness_;

 private:
  std::vector<uint8_t> parked_;
};

// The synchronous round loop of Allreduce and PS-sync. A round picks its
// membership, samples one batch per member, and schedules every member's
// gradient as a compute event at the current time, so pooled dispatch
// evaluates the whole round concurrently. The commits run in membership order; the
// last one calls Reduce, which returns the time the next round starts.
//
// Membership under faults: kWait blocks the round on any dead worker and
// re-probes at the poll cadence until everyone is back (bounded by the time
// cap). kTimeoutAndContinue runs with the live workers and drops stragglers
// whose slowed compute would hold the round more than peer_timeout_seconds
// past the fastest member. A fault-free round always has every worker.
class RoundEngine : public Engine {
 public:
  enum Tag : int64_t {
    kRoundCompute = 0,  // compute event: one member's gradient, args []
    kRunRound = 1,      // plain event: start the next round, args []
  };

 protected:
  using Engine::Engine;

  // Combines the round's committed gradients and applies the update; returns
  // the virtual time the next round starts.
  virtual double Reduce() = 0;

  const std::vector<int>& members() const { return members_; }
  // The members' mean gradient, each first decoded through round `round`'s
  // encoding when `decode` is set.
  std::vector<double> MeanGradient(bool decode, int64_t round);

  void Start() override;
  Status BuildEvent(net::SimEvent& event) override;
  Status TransferState(StateIo& io) override;

 private:
  void RunRound();

  // The current round's membership, its outstanding commit count, and
  // whether a kWait round is blocked on a dead worker (so the degraded-round
  // count increments once per blockage, not per probe).
  std::vector<int> members_;
  int pending_ = 0;
  bool round_waiting_ = false;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_ENGINE_H_
