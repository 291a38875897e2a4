#ifndef NETMAX_CORE_MONITOR_H_
#define NETMAX_CORE_MONITOR_H_

// Network Monitor (paper Algorithm 1).
//
// The monitor is the only centralized component of NetMax and it never sees
// training data or model parameters: every schedule period Ts it collects the
// per-link iteration-time EMAs [t_{i,m}] from the workers, runs the policy
// generator (Algorithm 3), and pushes the new policy (P, rho) back. Inside
// the simulator the engine schedules a monitor event every Ts and calls
// ComputePolicy; this class holds the policy generator and the handling of
// not-yet-measured links. The engine counts the policies it adopts.

#include <optional>

#include "core/policy_generator.h"

namespace netmax::core {

class NetworkMonitor {
 public:
  NetworkMonitor(net::Topology topology, PolicyGeneratorOptions options);

  // Fills links that no worker has measured yet (entry <= 0) with the largest
  // measured time — a conservative guess that steers traffic away from
  // unknown links until they are probed. Returns nullopt if nothing has been
  // measured at all.
  std::optional<linalg::Matrix> FillMissingTimes(
      const linalg::Matrix& ema_times) const;

  // One monitor tick: assembles the time matrix and runs Algorithm 3.
  // Returns kFailedPrecondition while no link has been measured yet, or the
  // generator's error if no feasible policy exists. A non-null `pool` fans
  // the generator's (rho, t_bar) grid search out across it (same result).
  StatusOr<GeneratedPolicy> ComputePolicy(const linalg::Matrix& ema_times,
                                          ThreadPool* pool = nullptr) const;

 private:
  PolicyGenerator generator_;
};

}  // namespace netmax::core

#endif  // NETMAX_CORE_MONITOR_H_
