// Geo-distributed training: six cloud regions, non-IID data (each region is
// missing some labels, Table VII), CPU-only instances — the paper's
// Appendix G scenario.
//
//   $ ./examples/geo_distributed
//
// Compares NetMax against AD-PSGD and both parameter-server baselines on the
// WAN link model (latency grows with distance; effective bandwidth shrinks).

#include <iostream>

#include "algos/registry.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/experiment.h"
#include "net/cluster.h"

int main() {
  namespace core = netmax::core;

  core::ExperimentConfig config;
  config.dataset = netmax::ml::MnistSimSpec();
  config.dataset.num_train = 3072;
  config.profile = netmax::ml::MobileNetProfile();
  config.profile.compute_seconds *= 8.0;  // CPUs, not GPUs
  config.num_workers = 6;  // one per region
  config.network = core::NetworkScenario::kWan;
  config.partition = core::PartitionScheme::kLostLabels;
  config.lost_labels = netmax::ml::CloudRegionLostLabels();
  config.batch_size = 32;
  config.learning_rate = 0.05;
  config.max_epochs = 10;
  config.monitor_period_seconds = 60.0;
  config.seed = 7;

  std::cout << "Training MobileNet-scale model across six regions:\n  ";
  for (const std::string& region : netmax::net::CloudRegionNames()) {
    std::cout << region << " ";
  }
  std::cout << "\n\n";

  netmax::TablePrinter table(
      {"algorithm", "virtual_time_s", "test_accuracy"});
  for (const std::string name : {"ps-sync", "ps-async", "adpsgd", "netmax"}) {
    auto algorithm = netmax::algos::MakeAlgorithm(name);
    NETMAX_CHECK_OK(algorithm.status());
    auto result = (*algorithm)->Run(config);
    NETMAX_CHECK_OK(result.status());
    table.AddRow({result->algorithm,
                  netmax::Fmt(result->total_virtual_seconds, 1),
                  netmax::Fmt(100.0 * result->final_accuracy, 1) + "%"});
  }
  table.Print(std::cout);
  std::cout << "\nPS-syn is paced by the farthest region every round; NetMax "
               "pulls mostly\nbetween nearby regions while the consensus step "
               "keeps all six in sync.\n";
  return 0;
}
