#ifndef NETMAX_CORE_PULL_ENGINE_H_
#define NETMAX_CORE_PULL_ENGINE_H_

// The peer-pull loop of NetMax (paper Algorithm 2), AD-PSGD, AD-PSGD+Monitor
// and SAPS, on the engine skeleton (core/engine.h).
//
// Per iteration a worker w draws a peer m (DrawPeer). Drawing itself is a
// local step; otherwise w samples a batch and pulls m's parameters while
// computing its gradient, for PullWall(compute, transfer) seconds. The pull's
// commit applies the gradient step and the mix (Mix) in the algorithm's
// order, folds the iteration time into the per-link EMA when a monitor runs,
// and starts the next iteration.
//
// Dead peers, per the configured PeerPolicy: a drawn peer that is dead holds
// the iteration. kWait re-probes it at the poll cadence until it returns
// (bounded by the time cap); kTimeoutAndContinue arms one deadline, after
// which w takes a local step instead. A held pull's wall time includes the
// wait. A peer that dies while the pull is in flight costs the mix (and the
// EMA sample), never the gradient step.
//
// With a monitor (Algorithm 1), every monitor_period_seconds the policy
// generator regenerates the peer-draw policy (P, rho) from the EMAs.
//
// What an algorithm binds: DrawPeer, PullWall, Mix, whether the gradient
// step precedes the mix, and whether it draws from a (monitored) policy.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/engine.h"
#include "core/monitor.h"
#include "core/policy.h"

namespace netmax::core {

class PullEngine : public Engine {
 public:
  // The loop's event kinds (checkpoint tags, core/checkpoint.h).
  enum Tag : int64_t {
    kLocalStep = 0,    // compute event: args [compute_secs, wall_secs]
    kPull = 1,         // compute event: args [peer, compute_secs, wall_secs,
                       //                      round]
    kMonitorTick = 2,  // plain event: args []
    kPeerWait = 3,     // plain event: args [worker, peer, waited_secs]
    kPeerTimeout = 4,  // plain event: args [worker, peer]
  };

 protected:
  // `step_before_mix`: the gradient step commits before the mix (NetMax)
  // rather than after it (AD-PSGD's average-then-step order).
  PullEngine(const ExperimentConfig& config, std::string algorithm_name,
             bool step_before_mix)
      : Engine(config, std::move(algorithm_name)),
        step_before_mix_(step_before_mix) {}

  // --- what an algorithm binds ---------------------------------------------
  // Draws w's peer for its next iteration, from w's RNG stream (commit
  // context). Returning w makes the iteration a local step.
  virtual int DrawPeer(int w) = 0;
  // Wall seconds of a pull that computes for `compute` seconds while its
  // transfer takes `transfer`; overlapped by default.
  virtual double PullWall(double compute, double transfer) const {
    return std::max(compute, transfer);
  }
  // Mixes w with its live peer m once round `round`'s pull has landed. Must
  // NotifyStateWrite every endpoint it writes, before writing.
  virtual void Mix(int w, int m, int64_t round) = 0;

  // --- the optional policy and monitor -------------------------------------
  // Draws peers from a policy that starts uniform over the topology. A
  // non-null `monitor_generator` also keeps per-link iteration-time EMAs and
  // runs the monitor over them with those generator options (alpha set to
  // the learning rate); ScheduleMonitorTick arms its first tick.
  void UsePolicy(const PolicyGeneratorOptions* monitor_generator);
  int DrawFromPolicy(int w) {
    return harness_.worker(w).rng.Discrete(policy_->Row(w));
  }
  void ScheduleMonitorTick();

  void StartIteration(int w) override;
  Status BuildEvent(net::SimEvent& event) override;
  void SaveState(Serializer& out) const override;
  Status RestoreState(Deserializer& in) override;

  std::unique_ptr<CommunicationPolicy> policy_;
  // The consensus strength of the monitor's latest policy (NetMax's mix is
  // the only one that reads it).
  double rho_ = 0.0;

 private:
  // Sends w's pull from m (or its local step), `waited` seconds after the
  // iteration began.
  void Pull(int w, int m, double waited);
  void LocalStep(int w, double waited);
  void BeginPeerWait(int w, int m);
  void PeerWaitTick(int w, int m, double waited);
  void PeerTimeoutExpired(int w, int m);
  void CompletePull(int w, int m, double compute, double wall, int64_t round,
                    double loss);
  void MonitorTick();

  const bool step_before_mix_;
  std::unique_ptr<NetworkMonitor> monitor_;
  std::vector<std::vector<ExponentialMovingAverage>> ema_times_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_PULL_ENGINE_H_
