// Figure 7: source of NetMax's performance improvement. Average epoch time of
// four NetMax variants on the heterogeneous network:
//   setting 1: serial execution + uniform probabilities   (baseline)
//   setting 2: parallel execution + uniform probabilities (overlap only)
//   setting 3: serial execution + adaptive probabilities  (policy only)
//   setting 4: parallel execution + adaptive probabilities (full NetMax)
//
// Paper shape (ResNet18/VGG19): adaptive probabilities contribute most of the
// gain (54s -> 30.3s and 100.5s -> 55.4s serial->serial+adaptive); the
// overlap adds a small extra improvement because gradient compute is much
// shorter than communication.

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/netmax_engine.h"
#include "ml/model_profile.h"

namespace netmax {
namespace {

Status Run() {
  struct Variant {
    bool overlap;
    bool adaptive;
  };
  const std::vector<Variant> variants = {
      {false, false}, {true, false}, {false, true}, {true, true}};

  for (const auto& profile : {ml::ResNet18Profile(), ml::Vgg19Profile()}) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    config.profile = profile;
    config.max_epochs = 12;
    // This bench runs each NetMax option set by hand (no RunAlgorithms), so
    // the smoke shrink must be applied explicitly, after the overrides.
    bench::MaybeApplySmoke(config);
    TablePrinter table({"setting", "avg_epoch_time_s"});
    for (const Variant& variant : variants) {
      const core::NetMaxAlgorithm algorithm(
          {.overlap = variant.overlap, .adaptive = variant.adaptive});
      NETMAX_ASSIGN_OR_RETURN(const core::RunResult result,
                              algorithm.Run(config));
      const std::string setting =
          std::string(variant.overlap ? "parallel" : "serial") + "+" +
          (variant.adaptive ? "adaptive" : "uniform");
      table.AddRow({setting, Fmt(result.avg_epoch_cost.total_seconds(), 2)});
    }
    std::cout << "\n== Fig. 7: NetMax ablation (" << profile.name << ") ==\n";
    table.Print(std::cout);
    table.PrintCsv(std::cout, "fig07_ablation_" + profile.name);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
