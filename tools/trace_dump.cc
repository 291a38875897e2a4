// Canonical golden-trace dump: runs one registered algorithm on the pinned
// golden-trace experiment and prints the deterministic subset of its
// RunResult — every double as an exact IEEE-754 hexfloat — so the output is
// byte-comparable across compilers, optimization levels, thread counts, and
// execution backends (the contract the determinism test suite enforces).
//
// tools/golden_trace.py drives this binary against the pinned traces in
// tests/golden_trace/: any bit of drift in simulation output fails CI, and
// `golden_trace.py --regenerate` re-pins after an intentional change.
//
// usage:
//   trace_dump --list          print registered algorithm names, one per line
//   trace_dump <algorithm>     print the canonical trace on stdout
//
// NETMAX_THREADS=N and NETMAX_BACKEND=serial|speculative pick the execution
// point; the trace bytes must not depend on it. Any other backend value is
// an error.
//
// Fault variants: "<algorithm>+faults-wait" and "<algorithm>+faults-timeout"
// run the same pinned experiment under the pinned fault schedule below with
// the respective dead-peer policy, and append the fault counters to the
// trace. --list advertises nine pinned fault variants covering every engine
// family's dead-peer path (the peer-pull loop under both policies, the round
// loop under both, Prague's waiting room, and the push-gossip chain), so the
// golden lane also locks down the fault-injection subsystem's bits; plain
// algorithm traces are byte-identical to before the fault variants existed.
//
// Compression variants: "<algorithm>+topk" (top-k 0.1), "<algorithm>+int8",
// and "<algorithm>+layerwise" (period 2) run the pinned experiment with the
// respective gradient compression and append the wire counters. --list
// advertises eight pinned compression variants covering every engine's
// compressed mix or reduce (per-send pulls, push-gossip snapshots, ring and
// group chunks, and both parameter-server exchanges); plain traces stay
// byte-identical to their pre-compression pins.
//
// Network variant: "<algorithm>+homogeneous" runs the pinned experiment on
// the homogeneous network (one uniform link class, the setting of the
// paper's Figs. 6, 9 and 11 and Table 3) and prints no extra lines. --list
// advertises Fig. 9's pair, NetMax and AD-PSGD.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "algos/registry.h"
#include "common/flags.h"
#include "common/status.h"
#include "core/experiment.h"
#include "ml/compression.h"
#include "ml/metrics.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

// Pinned config: small enough to run in well under a second per algorithm,
// rich enough to exercise the heterogeneous network, several monitor ticks,
// the accuracy series, and every engine's event machinery. Changing ANY
// field here invalidates every pinned trace — regenerate them all.
core::ExperimentConfig GoldenConfig() {
  core::ExperimentConfig config;
  config.dataset.name = "golden";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = core::NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;
  config.seed = 13;
  config.threads = 1;
  return config;
}

// Pinned fault schedule for the "+faults-*" variants: a slowdown and a
// leave/rejoin, early enough to land inside every engine's golden run, with
// a dead window (2 virtual seconds) that outlives the 1-second deadline so
// the timeout variant actually expires it. Changing this (or the deadline
// knobs below) invalidates the pinned fault traces — regenerate them.
constexpr char kFaultSpec[] = "slow@0.5+2x4:w1;leave@1:w2;join@3:w2";
constexpr char kWaitSuffix[] = "+faults-wait";
constexpr char kTimeoutSuffix[] = "+faults-timeout";

// Pinned compression variants. The specs mirror the bench defaults
// (--compress=topk:0.1 / int8 / layerwise:2); changing one invalidates its
// pinned traces — regenerate them.
constexpr char kTopKSuffix[] = "+topk";
constexpr char kInt8Suffix[] = "+int8";
constexpr char kLayerwiseSuffix[] = "+layerwise";
constexpr char kTopKSpec[] = "topk:0.1";
constexpr char kInt8Spec[] = "int8";
constexpr char kLayerwiseSpec[] = "layerwise:2";

// Pinned network variant: the golden config on the homogeneous network.
constexpr char kHomogeneousSuffix[] = "+homogeneous";

bool StripSuffix(std::string& name, const char* suffix) {
  const std::string tail(suffix);
  if (name.size() <= tail.size() ||
      name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
    return false;
  }
  name.resize(name.size() - tail.size());
  return true;
}

void PrintSeries(const char* label, const ml::Series& series) {
  std::printf("%s %zu\n", label, series.size());
  for (const auto& point : series) std::printf("%a %a\n", point.x, point.y);
}

Status DumpTrace(const std::string& request) {
  std::string name = request;
  bool fault_mode = false;
  core::PeerPolicy policy = core::PeerPolicy::kWait;
  const char* compress_spec = nullptr;
  bool homogeneous = false;
  if (StripSuffix(name, kWaitSuffix)) {
    fault_mode = true;
  } else if (StripSuffix(name, kTimeoutSuffix)) {
    fault_mode = true;
    policy = core::PeerPolicy::kTimeoutAndContinue;
  } else if (StripSuffix(name, kTopKSuffix)) {
    compress_spec = kTopKSpec;
  } else if (StripSuffix(name, kInt8Suffix)) {
    compress_spec = kInt8Spec;
  } else if (StripSuffix(name, kLayerwiseSuffix)) {
    compress_spec = kLayerwiseSpec;
  } else if (StripSuffix(name, kHomogeneousSuffix)) {
    homogeneous = true;
  }
  core::ExperimentConfig config = GoldenConfig();
  if (homogeneous) config.network = core::NetworkScenario::kHomogeneous;
  // NETMAX_THREADS and NETMAX_BACKEND select the execution point without
  // perturbing the pinned config: every thread count and backend must
  // reproduce the same trace bytes, which is exactly what CI's golden-trace
  // gates check. The pinned threads = 1 runs serially; NETMAX_THREADS > 1
  // runs the backend (default speculative).
  if (const char* threads_env = std::getenv("NETMAX_THREADS")) {
    NETMAX_ASSIGN_OR_RETURN(config.threads, ParseNonNegativeInt(threads_env));
  }
  if (const char* backend_env = std::getenv("NETMAX_BACKEND")) {
    if (!core::ParseExecutionBackendKind(backend_env, &config.backend)) {
      return InvalidArgumentError(std::string("bad NETMAX_BACKEND value: ") +
                                  backend_env +
                                  " (expected serial|speculative)");
    }
  }
  if (fault_mode) {
    NETMAX_ASSIGN_OR_RETURN(config.faults,
                            net::FaultSchedule::Parse(kFaultSpec));
    config.peer_policy = policy;
    config.peer_timeout_seconds = 1.0;
    config.peer_poll_seconds = 0.4;
  }
  if (compress_spec != nullptr) {
    NETMAX_ASSIGN_OR_RETURN(config.compress,
                            ml::ParseCompressionSpec(compress_spec));
  }
  NETMAX_ASSIGN_OR_RETURN(const auto algorithm, algos::MakeAlgorithm(name));
  NETMAX_ASSIGN_OR_RETURN(const core::RunResult result,
                          algorithm->Run(config));
  std::printf("netmax-golden-trace v1\n");
  std::printf("algorithm %s\n", result.algorithm.c_str());
  PrintSeries("loss_vs_time", result.loss_vs_time);
  PrintSeries("loss_vs_epoch", result.loss_vs_epoch);
  PrintSeries("accuracy_vs_time", result.accuracy_vs_time);
  std::printf("final_train_loss %a\n", result.final_train_loss);
  std::printf("final_accuracy %a\n", result.final_accuracy);
  std::printf("total_virtual_seconds %a\n", result.total_virtual_seconds);
  std::printf("avg_epoch_compute_seconds %a\n",
              result.avg_epoch_cost.compute_seconds);
  std::printf("avg_epoch_communication_seconds %a\n",
              result.avg_epoch_cost.communication_seconds);
  std::printf("total_local_iterations %" PRId64 "\n",
              result.total_local_iterations);
  std::printf("consensus_distance %a\n", result.consensus_distance);
  std::printf("policies_generated %" PRId64 "\n", result.policies_generated);
  if (fault_mode) {
    // Only the fault variants carry these lines, so the plain traces stay
    // byte-identical to their pre-fault pins.
    std::printf("faults_injected %" PRId64 "\n", result.faults_injected);
    std::printf("rounds_degraded %" PRId64 "\n", result.rounds_degraded);
    std::printf("peers_timed_out %" PRId64 "\n", result.peers_timed_out);
  }
  if (compress_spec != nullptr) {
    // Likewise, only the compression variants carry the wire counters, so
    // the plain traces stay byte-identical to their pre-compression pins.
    std::printf("messages_sent %" PRId64 "\n", result.messages_sent);
    std::printf("bytes_sent %" PRId64 "\n", result.bytes_sent);
    std::printf("bytes_saved %" PRId64 "\n", result.bytes_saved);
  }
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s --list | %s <algorithm>\n", argv[0],
                 argv[0]);
    return 2;
  }
  const std::string arg = argv[1];
  if (arg == "--list") {
    for (const std::string& name : netmax::algos::AlgorithmNames()) {
      std::printf("%s\n", name.c_str());
    }
    // The pinned fault variants: both policies on the peer-pull engines
    // (the timeout ones expire real peer deadlines), the round loop under
    // both (blocking and membership exclusion), Prague's waiting room under
    // timeout, and push gossip under wait (the join revisits a parked
    // chain). The PS engines are left out: under the pinned schedule their
    // fault runs equal the plain ones. Then the pinned compression variants:
    // every engine's compressed mix or reduce, spread across the encoding
    // families and the wire-accounting shapes (directed consensus sends,
    // push-gossip snapshots, ring and group chunks, PS uploads and
    // downloads). Last, Fig. 9's homogeneous pair. Every other
    // "<algorithm>+<variant>" spelling also runs, unpinned.
    const char* const pinned_variants[][2] = {
        {"netmax", netmax::kWaitSuffix},
        {"netmax", netmax::kTimeoutSuffix},
        {"allreduce", netmax::kTimeoutSuffix},
        {"adpsgd", netmax::kTimeoutSuffix},
        {"adpsgd+monitor", netmax::kWaitSuffix},
        {"saps", netmax::kTimeoutSuffix},
        {"prague", netmax::kTimeoutSuffix},
        {"gossip", netmax::kWaitSuffix},
        {"allreduce", netmax::kWaitSuffix},
        {"netmax", netmax::kTopKSuffix},
        {"gossip", netmax::kInt8Suffix},
        {"allreduce", netmax::kLayerwiseSuffix},
        {"adpsgd", netmax::kInt8Suffix},
        {"saps", netmax::kTopKSuffix},
        {"prague", netmax::kLayerwiseSuffix},
        {"ps-sync", netmax::kTopKSuffix},
        {"ps-async", netmax::kInt8Suffix},
        {"netmax", netmax::kHomogeneousSuffix},
        {"adpsgd", netmax::kHomogeneousSuffix},
    };
    for (const auto& variant : pinned_variants) {
      std::printf("%s%s\n", variant[0], variant[1]);
    }
    return 0;
  }
  const netmax::Status status = netmax::DumpTrace(arg);
  if (!status.ok()) {
    std::fprintf(stderr, "trace_dump failed: %s\n", status.ToString().c_str());
    return 2;
  }
  return 0;
}
