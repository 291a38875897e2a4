// Extending the library: implement your own decentralized training algorithm
// on the shared peer-pull loop (core/pull_engine.h) and benchmark it against
// NetMax on the same simulated cluster.
//
//   $ ./examples/custom_algorithm
//
// The toy algorithm below ("LazyGossip") only communicates every K-th
// iteration (local SGD with periodic pairwise averaging). It binds just two
// things to the loop: a peer draw (itself, meaning a local step, except on
// every K-th iteration) and a mix (the symmetric mean). The loop supplies
// the rest exactly as for NetMax and AD-PSGD: two-phase compute/commit events
// that run gradients on the simulator's thread pool with bit-identical
// results at any thread count, dead-peer handling under --faults, wire
// accounting, and checkpoint/restore. The rules a mix follows: it runs in a
// commit, so it may draw randomness and write parameters, but it must
// NotifyStateWrite every worker it writes first.

#include <iostream>
#include <memory>
#include <string>

#include "algos/registry.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/pull_engine.h"

namespace {

namespace core = netmax::core;

// Local SGD with a pairwise averaging exchange every `period` iterations.
class LazyGossipEngine : public core::PullEngine {
 public:
  LazyGossipEngine(const core::ExperimentConfig& config, int period)
      : PullEngine(config, "LazyGossip", /*step_before_mix=*/true),
        period_(period) {}

 private:
  // Drawn at schedule time from w's own RNG stream, so the compute half
  // stays pure.
  int DrawPeer(int w) override {
    core::WorkerRuntime& worker = harness_.worker(w);
    if (worker.iterations % period_ != period_ - 1) return w;  // local step
    const auto& neighbors = harness_.topology().Neighbors(w);
    return neighbors[static_cast<size_t>(
        worker.rng.UniformInt(0, static_cast<int64_t>(neighbors.size()) - 1))];
  }

  // The pairwise averaging writes both endpoints: declare both so the
  // parallel runtime invalidates any speculation on them. (Uncompressed:
  // this toy ignores the round's encoding.)
  void Mix(int w, int m, int64_t /*round*/) override {
    harness_.sim().NotifyStateWrite(w);
    harness_.sim().NotifyStateWrite(m);
    auto x_i = harness_.worker(w).model->parameters();
    auto x_m = harness_.worker(m).model->parameters();
    for (size_t j = 0; j < x_i.size(); ++j) {
      const double mean = 0.5 * (x_i[j] + x_m[j]);
      x_i[j] = mean;
      x_m[j] = mean;
    }
  }

  int period_;
};

class LazyGossipAlgorithm : public core::TrainingAlgorithm {
 public:
  explicit LazyGossipAlgorithm(int period) : period_(period) {}
  std::string name() const override { return "LazyGossip"; }
  netmax::StatusOr<core::RunResult> Run(
      const core::ExperimentConfig& config) const override {
    LazyGossipEngine engine(config, period_);
    return engine.Run();
  }

 private:
  int period_;
};

}  // namespace

int main() {
  core::ExperimentConfig config;
  config.dataset = netmax::ml::Cifar10SimSpec();
  config.num_workers = 8;
  config.network = core::NetworkScenario::kHeterogeneousDynamic;
  config.profile = netmax::ml::ResNet18Profile();
  config.max_epochs = 12;
  config.monitor_period_seconds = 30.0;
  config.seed = 3;

  netmax::TablePrinter table(
      {"algorithm", "virtual_time_s", "final_loss", "test_accuracy"});
  auto add_row = [&](const core::RunResult& result) {
    table.AddRow({result.algorithm,
                  netmax::Fmt(result.total_virtual_seconds, 1),
                  netmax::Fmt(result.final_train_loss, 3),
                  netmax::Fmt(100.0 * result.final_accuracy, 1) + "%"});
  };

  // Plug the custom algorithm into the shared registry so benches and
  // scripts can resolve it by name like any built-in.
  for (int period : {2, 8}) {
    const std::string name = "lazygossip-" + std::to_string(period);
    NETMAX_CHECK_OK(netmax::algos::RegisterAlgorithm(name, [period] {
      return std::make_unique<LazyGossipAlgorithm>(period);
    }));
    auto lazy = netmax::algos::MakeAlgorithm(name);
    NETMAX_CHECK_OK(lazy.status());
    auto result = (*lazy)->Run(config);
    NETMAX_CHECK_OK(result.status());
    result->algorithm += " (every " + std::to_string(period) + ")";
    add_row(*result);
  }
  auto netmax_algo = netmax::algos::MakeAlgorithm("netmax");
  NETMAX_CHECK_OK(netmax_algo.status());
  auto netmax_result = (*netmax_algo)->Run(config);
  NETMAX_CHECK_OK(netmax_result.status());
  add_row(*netmax_result);

  std::cout << "A custom algorithm on the shared harness vs NetMax\n\n";
  table.Print(std::cout);
  std::cout << "\nCommunicating rarely is fast per iteration but pays in "
               "consensus quality;\nNetMax spends its communication budget on "
               "the links where it is cheap.\n";
  return 0;
}
