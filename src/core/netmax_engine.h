#ifndef NETMAX_CORE_NETMAX_ENGINE_H_
#define NETMAX_CORE_NETMAX_ENGINE_H_

// NetMax: asynchronous decentralized consensus SGD with monitor-driven
// adaptive neighbor selection (paper Algorithms 1-3).
//
// Per local iteration a worker (Algorithm 2):
//   1. draws a peer m from its policy row (p_{i,m}),
//   2. requests m's parameters while computing its local minibatch gradient
//      (overlapped, so the iteration lasts max{C_i, N_{i,m}}),
//   3. applies the gradient step, then the consensus step
//      x_i <- x_i - alpha * rho/p_{i,m} * (x_i - x_m),
//   4. folds the iteration time into its EMA vector T_i[m].
// Every Ts seconds the Network Monitor collects the EMAs and regenerates
// (P, rho) by Algorithm 3. NetMaxOptions switches the overlap of step 2,
// the mix of step 3 and the monitor, for the Fig. 7 ablation and the
// paper's literal pull.

#include "core/experiment.h"

namespace netmax::core {

struct NetMaxOptions {
  // Overlap the pull with the gradient compute. Off, they run back to back
  // (the Fig. 7 "serial" settings).
  bool overlap = true;
  // Run the monitor. Off, the initial uniform policy stays for the whole run
  // (the Fig. 7 "uniform" settings).
  bool adaptive = true;
  // Apply the consensus step as a symmetric exchange: when i pulls from m,
  // m applies the mirrored update, so the pair moves toward each other and
  // the fleet-wide parameter mean is preserved (the update matrix becomes
  // doubly stochastic in the first moment, strengthening the paper's
  // E[D^T D] condition). The literal one-sided pull of Algorithm 2 is
  // row-stochastic only; every pull then discards a fraction of the puller's
  // fresh gradient progress from the mean, which measurably slows per-epoch
  // convergence in this scaled-down high-gradient-noise regime. Off runs the
  // paper-literal pull.
  bool symmetric = true;
};

// Every option set runs, and names its result, as "NetMax".
class NetMaxAlgorithm : public TrainingAlgorithm {
 public:
  explicit NetMaxAlgorithm(NetMaxOptions options = {}) : options_(options) {}

  std::string name() const override { return "NetMax"; }
  StatusOr<RunResult> Run(const ExperimentConfig& config) const override;

 private:
  NetMaxOptions options_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_NETMAX_ENGINE_H_
