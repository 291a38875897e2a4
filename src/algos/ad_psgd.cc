#include "algos/ad_psgd.h"

#include <span>

#include "core/pull_engine.h"

namespace netmax::algos {
namespace {

class AdPsgdEngine : public core::PullEngine {
 public:
  AdPsgdEngine(const core::ExperimentConfig& config, bool with_monitor)
      : PullEngine(config, with_monitor ? "AD-PSGD+Monitor" : "AD-PSGD",
                   /*step_before_mix=*/false),
        with_monitor_(with_monitor) {}

 private:
  Status Setup() override {
    // Section III-D: the monitor runs the same optimization with the
    // averaging-mode Y matrix and the relaxed Eq. (11) bound.
    core::PolicyGeneratorOptions generator = config().generator;
    generator.mode = core::PolicyGeneratorOptions::Mode::kAveraging;
    UsePolicy(with_monitor_ ? &generator : nullptr);
    return Status::Ok();
  }

  // The first monitor tick precedes the workers' first iterations.
  void Start() override {
    if (with_monitor_) ScheduleMonitorTick();
    Engine::Start();
  }

  // Always a real neighbor: redraw until the policy row yields one.
  int DrawPeer(int w) override {
    int m = w;
    while (m == w) m = DrawFromPolicy(w);
    return m;
  }

  // AD-PSGD's atomic, symmetric averaging: both endpoints adopt
  // (x_i + x_m)/2, as in Lian et al.'s W matrix, which preserves the fleet's
  // parameter mean. The gradient computed during the pull applies after it.
  void Mix(int w, int m, int64_t round) override {
    harness_.sim().NotifyStateWrite(w);
    harness_.sim().NotifyStateWrite(m);
    auto x_i = harness_.worker(w).model->parameters();
    auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double mean = 0.5 * (x_i[j] + x_m[j]);
        x_i[j] = mean;
        x_m[j] = mean;
      }
    } else {
      // Compressed averaging: what crossed the wire is C(x_m - x_i), so both
      // endpoints move half of the decoded difference toward each other —
      // the exact averaging above when C is the identity, and still
      // mean-preserving for every lossy variant.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_m[j] - x_i[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double half = 0.5 * diff[j];
        x_i[j] += half;
        x_m[j] -= half;
      }
    }
  }

  const bool with_monitor_;
};

}  // namespace

StatusOr<core::RunResult> AdPsgdAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AdPsgdEngine engine(config, /*with_monitor=*/false);
  return engine.Run();
}

StatusOr<core::RunResult> AdPsgdWithMonitorAlgorithm::Run(
    const core::ExperimentConfig& config) const {
  AdPsgdEngine engine(config, /*with_monitor=*/true);
  return engine.Run();
}

}  // namespace netmax::algos
