#include "algos/allreduce_sgd.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/engine.h"

namespace netmax::algos {
namespace {

class AllreduceEngine : public core::RoundEngine {
 public:
  explicit AllreduceEngine(const core::ExperimentConfig& config)
      : RoundEngine(config, "Allreduce") {}

 private:
  // Ring allreduce of the members' gradients, then the identical averaged
  // update on every member replica (dead or dropped workers keep their
  // stale parameters). Gradients must be ready before the reduce: the round
  // lasts the slowest member's compute plus the ring, with no overlap.
  double Reduce() override {
    const std::vector<int>& group = members();
    // A single surviving member reduces with nobody: nothing crosses the
    // wire, and nothing is compressed.
    const bool ring = group.size() > 1;
    double allreduce_seconds = 0.0;
    int64_t round = 0;
    if (ring) {
      // One communication round per allreduce; the first member's counter
      // indexes the layer-wise schedule for the whole ring.
      round = harness_.NextCommRound(group.front());
      allreduce_seconds = harness_.RingAllreduceSeconds(group, round);
    }
    // Each member contributes C(g_w): its gradient as the ring's encoding
    // reconstructs it.
    const std::vector<double> mean = MeanGradient(ring, round);
    // This round's computes all committed and the next round is not
    // scheduled yet, so no backend holds an evaluation these writes could
    // race; ApplyStoredGradient still notifies each worker per the contract.
    double max_compute = 0.0;
    for (int w : group) {
      harness_.worker(w).gradient = mean;
      harness_.ApplyStoredGradient(w);
      max_compute = std::max(max_compute, harness_.EffectiveComputeSeconds(w));
    }
    const double wall = max_compute + allreduce_seconds;
    for (int w : group) {
      harness_.AccountIteration(w, harness_.EffectiveComputeSeconds(w), wall);
    }
    return harness_.sim().Now() + wall;
  }
};

}  // namespace

StatusOr<core::RunResult> AllreduceSgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AllreduceEngine engine(config);
  return engine.Run();
}

}  // namespace netmax::algos
