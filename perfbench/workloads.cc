#include "workloads.h"

#include <utility>

#include "bench/bench_util.h"
#include "common/random.h"
#include "ml/compression.h"
#include "net/fault_schedule.h"
#include "net/topology.h"

namespace netmax::perfbench {
namespace {

// What the command-line seed draws: the synthetic training data of every run
// (and, on faults_ckpt_topk, the fault schedules), from a SplitMix64 stream.
// The network scenarios — ExperimentConfig::seed, which also seeds weight
// init and batch sampling — are fixed per workload, like the paper's figure
// settings, so the simulated metrics compare exactly between commits instead
// of tracking the spread of slow-link draws.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return SplitMix64(state_); }

 private:
  uint64_t state_;
};

// The k-th fixed network scenario of a workload.
uint64_t ScenarioSeed(int k) { return static_cast<uint64_t>(k) + 1; }

// Fig. 8 setting: every paper algorithm on several network scenarios, so the
// simulated metrics average over slow-link draws instead of tracking one.
constexpr int kPaperScenarios = 3;

Workload Paper8Hetero(SeedStream& seeds, int threads) {
  Workload workload{"paper8_hetero", "netmax", {}};
  for (int k = 0; k < kPaperScenarios; ++k) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    config.seed = ScenarioSeed(k);
    config.dataset.seed = seeds.Next();
    config.threads = threads;
    for (const std::string& name : {std::string("prague"),
                                    std::string("allreduce"),
                                    std::string("adpsgd"),
                                    std::string("netmax")}) {
      workload.runs.push_back({name, config, false});
    }
  }
  return workload;
}

// The bench_scale32_parallel_runtime shape: 32 workers on 8 servers, a 3x
// wider proxy model and a 4x corpus, with the monitor ticking every 12 s
// instead of 24 s so that its n=32 policy search dominates the run (at 24 s
// these short runs generate only two or three policies each).
constexpr int kWideScenarios = 2;

Workload Netmax32Wide(SeedStream& seeds, int threads) {
  Workload workload{"netmax32_wide", "netmax", {}};
  for (int k = 0; k < kWideScenarios; ++k) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    config.num_workers = 32;
    config.hidden_layers = {96};
    config.dataset.num_train = 8192;
    config.dataset.num_test = 512;
    config.max_epochs = 10;
    config.monitor_period_seconds = 12.0;
    config.seed = ScenarioSeed(k);
    config.dataset.seed = seeds.Next();
    config.threads = threads;
    workload.runs.push_back({"netmax", config, false});
  }
  return workload;
}

// 4096 gossip workers in 64-worker clusters, each holding four samples of a
// tiny model: per-event simulator and harness cost dominate, not gradients.
constexpr int kHierWorkers = 4096;
constexpr int kHierClusterSize = 64;

Workload Hier4096Gossip(SeedStream& seeds, int threads) {
  Workload workload{"hier4096_gossip", "gossip", {}};
  core::ExperimentConfig config;
  config.dataset = ml::Cifar10SimSpec();
  config.dataset.num_train = kHierWorkers * 16;
  config.dataset.num_test = 512;
  config.dataset.seed = seeds.Next();
  config.hidden_layers = {8};
  config.num_workers = kHierWorkers;
  config.topology.shape = net::TopologyShape::kHierarchical;
  config.topology.cluster_size = kHierClusterSize;
  config.batch_size = 4;
  config.learning_rate = 0.5;
  config.max_epochs = 3;
  config.seed = ScenarioSeed(0);
  config.threads = threads;
  workload.runs.push_back({"gossip", config, false});
  return workload;
}

// Paper scale with the compressed send path, seed-derived churn and
// stragglers under timeout-and-continue, and the periodic checkpoint cadence;
// every run is also resumed from its mid-run checkpoint. The fault horizon is
// the one bench_util's --faults=seed:K uses: faults land early and stay short
// against the run, so schedules from different seeds move the virtual time
// little while still exercising every fault path.
constexpr int kFaultScenarios = 4;
constexpr double kFaultHorizonSeconds = 40.0;
constexpr int kFaultCount = 4;
constexpr double kPeerTimeoutSeconds = 2.0;
constexpr double kCheckpointEverySeconds = 25.0;

StatusOr<Workload> FaultsCkptTopk(SeedStream& seeds, int threads,
                                  const std::string& checkpoint_dir) {
  Workload workload{"faults_ckpt_topk", "netmax", {}};
  NETMAX_ASSIGN_OR_RETURN(const ml::CompressionSpec topk,
                          ml::ParseCompressionSpec("topk:0.1"));
  for (int k = 0; k < kFaultScenarios; ++k) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    config.seed = ScenarioSeed(k);
    config.dataset.seed = seeds.Next();
    config.threads = threads;
    config.compress = topk;
    config.faults = net::FaultSchedule::FromSeed(
        seeds.Next(), config.num_workers, kFaultHorizonSeconds, kFaultCount);
    config.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
    config.peer_timeout_seconds = kPeerTimeoutSeconds;
    config.checkpoint_every_seconds = kCheckpointEverySeconds;
    // Keep every tick's file so the mid-run one is there to resume from.
    config.checkpoint_retain = 1 << 20;
    for (const std::string& name :
         {std::string("adpsgd"), std::string("netmax")}) {
      RunSpec spec{name, config, true};
      spec.config.checkpoint_path =
          checkpoint_dir + "/" + name + "-" + std::to_string(k) + ".ckpt";
      workload.runs.push_back(std::move(spec));
    }
  }
  return workload;
}

}  // namespace

StatusOr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                int threads,
                                const std::string& checkpoint_dir) {
  SeedStream seeds(seed);
  if (name == "paper8_hetero") return Paper8Hetero(seeds, threads);
  if (name == "netmax32_wide") return Netmax32Wide(seeds, threads);
  if (name == "hier4096_gossip") return Hier4096Gossip(seeds, threads);
  if (name == "faults_ckpt_topk") {
    return FaultsCkptTopk(seeds, threads, checkpoint_dir);
  }
  return InvalidArgumentError("unknown workload '" + std::string(name) +
                              "' (expected paper8_hetero, netmax32_wide, "
                              "hier4096_gossip or faults_ckpt_topk)");
}

}  // namespace netmax::perfbench
