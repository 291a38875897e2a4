#include "core/netmax_engine.h"

#include <algorithm>
#include <span>

#include "core/pull_engine.h"

namespace netmax::core {
namespace {

// Consensus coefficients are clamped below this to keep the second-step
// update a contraction even while policy and rho are transiently mismatched
// (e.g. right after a monitor update).
constexpr double kMaxConsensusCoefficient = 0.95;

// The initial consensus strength: rho_0 is chosen so that
// alpha * rho_0 * (M - 1) equals this under the initial uniform policy.
constexpr double kInitialConsensusCoefficient = 0.3;

class NetMaxEngine : public PullEngine {
 public:
  NetMaxEngine(const ExperimentConfig& config, NetMaxOptions options)
      : PullEngine(config, "NetMax", /*step_before_mix=*/true),
        options_(options) {}

 private:
  Status Setup() override {
    UsePolicy(options_.adaptive ? &config().generator : nullptr);
    rho_ = kInitialConsensusCoefficient /
           (config().learning_rate *
            static_cast<double>(harness_.num_workers() - 1));
    return Status::Ok();
  }

  // The first monitor tick follows the workers' first iterations.
  void Start() override {
    Engine::Start();
    if (options_.adaptive) ScheduleMonitorTick();
  }

  // Self-selection (p_ii > 0) is a local step.
  int DrawPeer(int w) override { return DrawFromPolicy(w); }

  double PullWall(double compute, double transfer) const override {
    return options_.overlap ? std::max(compute, transfer) : compute + transfer;
  }

  // Second-step update: the consensus pull (Algorithm 2 lines 13-14)
  // against m's current ("freshest") parameters:
  //   x_i <- x_i - alpha * rho/p_{i,m} * (x_i - x_m).
  // alpha here is the constant learning rate the convergence analysis and
  // the policy generator use (Theorems 1-3 assume a fixed alpha); tying the
  // consensus strength to the *decayed* SGD rate would silently turn off
  // mixing in late training and break the lambda_2-based policy objective.
  void Mix(int w, int m, int64_t round) override {
    const bool symmetric = options_.symmetric;
    const double p = policy_->probability(w, m);
    NETMAX_CHECK_GT(p, 0.0);
    // For feasible policies Eq. (11) gives p >= 2*alpha*rho, so the
    // coefficient is at most 1/2 — exactly the perfect-swap bound of the
    // symmetric exchange below.
    const double coefficient =
        std::min(symmetric ? 0.5 : kMaxConsensusCoefficient,
                 config().learning_rate * rho_ / p);
    // The symmetric exchange writes both endpoints, the literal pull only w.
    harness_.sim().NotifyStateWrite(w);
    if (symmetric) harness_.sim().NotifyStateWrite(m);
    auto x_i = harness_.worker(w).model->parameters();
    auto x_m = harness_.worker(m).model->parameters();
    if (!harness_.compression_enabled()) {
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double delta = coefficient * (x_i[j] - x_m[j]);
        x_i[j] -= delta;
        if (symmetric) x_m[j] += delta;
      }
    } else {
      // Compressed pull: w received C(x_i - x_m) — the difference as the
      // compressor's round-`round` encoding reconstructs it — so both
      // endpoints move along the decoded difference and stay symmetric.
      std::span<double> diff = harness_.CompressionScratch();
      for (size_t j = 0; j < x_i.size(); ++j) diff[j] = x_i[j] - x_m[j];
      harness_.ApplyCompression(w, round, diff);
      for (size_t j = 0; j < x_i.size(); ++j) {
        const double delta = coefficient * diff[j];
        x_i[j] -= delta;
        if (symmetric) x_m[j] += delta;
      }
    }
  }

  const NetMaxOptions options_;
};

}  // namespace

StatusOr<RunResult> NetMaxAlgorithm::Run(const ExperimentConfig& config) const {
  NetMaxEngine engine(config, options_);
  return engine.Run();
}

}  // namespace netmax::core
