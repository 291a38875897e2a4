#include "core/monitor.h"

#include <algorithm>

namespace netmax::core {

NetworkMonitor::NetworkMonitor(net::Topology topology,
                               PolicyGeneratorOptions options)
    : generator_(std::move(topology), options) {}

std::optional<linalg::Matrix> NetworkMonitor::FillMissingTimes(
    const linalg::Matrix& ema_times) const {
  const net::Topology& topo = generator_.topology();
  const int n = topo.num_nodes();
  NETMAX_CHECK_EQ(ema_times.rows(), n);
  NETMAX_CHECK_EQ(ema_times.cols(), n);
  double max_measured = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      max_measured = std::max(max_measured, ema_times(i, m));
    }
  }
  if (max_measured <= 0.0) return std::nullopt;
  linalg::Matrix filled = ema_times;
  for (int i = 0; i < n; ++i) {
    for (int m : topo.Neighbors(i)) {
      if (filled(i, m) <= 0.0) filled(i, m) = max_measured;
    }
  }
  return filled;
}

StatusOr<GeneratedPolicy> NetworkMonitor::ComputePolicy(
    const linalg::Matrix& ema_times, ThreadPool* pool) const {
  std::optional<linalg::Matrix> filled = FillMissingTimes(ema_times);
  if (!filled.has_value()) {
    return FailedPreconditionError(
        "no iteration times measured yet; workers still warming up");
  }
  return generator_.Generate(*filled, pool);
}

}  // namespace netmax::core
