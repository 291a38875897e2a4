// Figure 10: scalability speedup vs number of workers (4, 8, 16) on the
// heterogeneous network, ResNet18 (a) and VGG19 (b). As in the paper, the
// reference is Allreduce-SGD with 4 workers: speedup(algo, M) =
// T_ref / T(algo, M) where T is the time to finish the fixed epoch budget
// (core::EqualWorkTime).
//
// Paper shape: NetMax scales best and its margin grows with the worker count;
// Prague scales worst.

#include <iostream>
#include <map>

#include "bench/bench_util.h"
#include "algos/registry.h"
#include "common/table.h"
#include "ml/model_profile.h"

namespace netmax {
namespace {

Status Run() {
  const std::vector<int> worker_counts = {4, 8, 16};
  for (const auto& profile : {ml::ResNet18Profile(), ml::Vgg19Profile()}) {
    std::map<std::pair<std::string, int>, double> times;
    // Average over seeds: short scaled-down runs see only a few slow-link
    // windows, so a single draw is noisy.
    const std::vector<uint64_t> seeds = {1, 2, 3};
    for (int workers : worker_counts) {
      core::ExperimentConfig config = bench::PaperBaseConfig();
      config.profile = profile;
      config.num_workers = workers;
      config.max_epochs = 16;
      config.monitor_period_seconds = 8.0;  // short runs: keep several ticks
      for (uint64_t seed : seeds) {
        config.seed = seed;
        NETMAX_ASSIGN_OR_RETURN(const auto results, bench::RunAlgorithms(algos::PaperComparisonAlgorithms(), config));
        for (const auto& entry : results) {
          times[{entry.name, workers}] +=
              core::EqualWorkTime(entry.result) / seeds.size();
        }
      }
    }
    const double reference = times[{"Allreduce", 4}];
    TablePrinter table({"algorithm", "workers", "speedup"});
    for (const std::string name :
         {"Prague", "Allreduce", "AD-PSGD", "NetMax"}) {
      for (int workers : worker_counts) {
        table.AddRow({name, Fmt(workers),
                      Fmt(reference / times[{name, workers}], 2)});
      }
    }
    std::cout << "\n== Fig. 10: scalability, heterogeneous (" << profile.name
              << "; ref = Allreduce@4) ==\n";
    table.Print(std::cout);
    table.PrintCsv(std::cout, "fig10_scalability_hetero_" + profile.name);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
