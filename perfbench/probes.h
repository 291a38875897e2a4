#ifndef NETMAX_PERFBENCH_PROBES_H_
#define NETMAX_PERFBENCH_PROBES_H_

// The traced run's instruments, all outside src/: an in-memory span recorder
// and per-call timings of each layer's public entry point, taken on a
// freshly initialised harness of the workload's own config. The runner
// multiplies each per-call time by the call count the training runs report
// (RunResult counters) to get a layer's busy seconds.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"

namespace netmax::perfbench {

// Spans kept in memory (name, start, end, parent; spans of one training run
// share a run id) and written out once, when the benchmark ends.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  // Opens a span and returns its handle for End and for children.
  int Begin(std::string name, int parent, int64_t run_id);
  void End(int span);

  Status WriteJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = kNoParent;
    int64_t run_id = 0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Per-call wall time of each layer, as the median over several timed
// batches of calls. A layer the workload's config never exercises reads 0.
struct LayerTimes {
  double generate_ms = 0.0;   // core::PolicyGenerator::Generate
  double eigen_ms = 0.0;      // linalg::JacobiEigenSymmetric, n = workers
  double grad_us = 0.0;       // ExperimentHarness::EvalBatchGradient
  double optimizer_us = 0.0;  // ExperimentHarness::ApplyStoredGradient
  double compress_us = 0.0;   // ExperimentHarness::ApplyCompression
  double queue_ns = 0.0;      // net::EventQueue Push + PopNext
  double finalize_s = 0.0;    // ExperimentHarness::Finalize
};

// Times every layer on `config`. `with_policy` adds the policy generator and
// eigensolver probes (only workloads whose runs generate policies pay for
// them); `queue_depth` is the pending-event depth the queue probe holds.
StatusOr<LayerTimes> ProbeLayers(const core::ExperimentConfig& config,
                                 bool with_policy, int64_t queue_depth,
                                 Tracer& tracer, int parent_span);

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_PROBES_H_
