// Figure 19 (Appendix G): distributed training across six cloud regions
// (Table VII non-IID label distribution, CPU-only instances). Test accuracy
// vs time for MobileNet (a) and GoogLeNet (b), comparing NetMax, AD-PSGD,
// PS-asyn and PS-syn.
//
// Paper shape: NetMax converges ~1.9x faster than AD-PSGD and PS-asyn and
// ~2.1x faster than PS-syn; PS-syn is the slowest (paced by the farthest
// region), PS-asyn slightly behind AD-PSGD.

#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "ml/metrics.h"
#include "ml/model_profile.h"

namespace netmax {
namespace {

Status Run() {
  for (const auto& profile :
       {ml::MobileNetProfile(), ml::GoogLeNetProfile()}) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    config.dataset = ml::MnistSimSpec();
    config.dataset.num_train = 3072;
    config.profile = profile;
    config.profile.compute_seconds *= 8.0;  // c5.4xlarge CPUs, not GPUs
    config.num_workers = 6;  // one worker per region
    config.network = core::NetworkScenario::kWan;
    config.partition = core::PartitionScheme::kLostLabels;
    config.lost_labels = ml::CloudRegionLostLabels();  // Table VII
    config.batch_size = 32;
    config.learning_rate = 0.05;
    config.max_epochs = 16;
    config.eval_every_epochs = 2;
    const std::vector<std::string> algorithms = {"ps-sync", "ps-async",
                                                 "adpsgd", "netmax"};
    NETMAX_ASSIGN_OR_RETURN(const auto results, bench::RunAlgorithms(algorithms, config));
    bench::PrintSeries(std::cout,
                       "Fig. 19 (" + profile.name + ", accuracy vs time)",
                       "time_s", "test_accuracy", results,
                       &core::RunResult::accuracy_vs_time);

    // Time to a common accuracy level, NetMax speedup (paper: 1.9-2.1x).
    double target = 1.0;
    for (const auto& entry : results) {
      target = std::min(
          target, ml::FinalValue(entry.result.accuracy_vs_time));
    }
    target *= 0.98;
    TablePrinter table({"algorithm", "time_to_acc_s", "netmax_speedup"});
    const auto netmax_time = ml::TimeToThresholdAbove(
        results.back().result.accuracy_vs_time, target);
    for (const auto& entry : results) {
      const auto time =
          ml::TimeToThresholdAbove(entry.result.accuracy_vs_time, target);
      const double seconds =
          time.value_or(entry.result.total_virtual_seconds);
      table.AddRow({entry.name, Fmt(seconds, 1),
                    Fmt(netmax_time.has_value() && *netmax_time > 0.0
                            ? seconds / *netmax_time
                            : 0.0,
                        2)});
    }
    std::cout << "\n== Fig. 19 speedups (" << profile.name << ", accuracy "
              << Fmt(100.0 * target, 1) << "%) ==\n";
    table.Print(std::cout);
    table.PrintCsv(std::cout, "fig19_speedups_" + profile.name);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
