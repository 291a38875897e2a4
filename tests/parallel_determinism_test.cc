// Parallel-runtime determinism: for every registered algorithm the full
// RunResult — loss series, cost breakdown, consensus distance, accuracy —
// must be bit-identical between the serial dispatch (threads=1) and the
// pooled two-phase dispatch (threads=8), across every intra-worker shard
// count (the gradient is defined over a fixed leaf decomposition and tree
// reduction, ml/sharding.h) and across every execution backend
// (core/execution_backend.h). This is the contract that lets the benches and
// golden tests run at any {backend, threads, shards} point.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "core/execution_backend.h"
#include "core/experiment.h"
#include "ml/compression.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

using core::ExecutionBackendKind;
using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "determinism";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;  // enough workers for real frontier batches
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;  // several monitor ticks per run
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;  // exercise the accuracy series too
  config.seed = 13;
  return config;
}

RunResult RunWithThreads(
    const std::string& name, const ExperimentConfig& base, int threads,
    int shards = 1,
    ExecutionBackendKind backend = ExecutionBackendKind::kSpeculative) {
  ExperimentConfig config = base;
  config.threads = threads;
  config.shards = shards;
  config.backend = backend;
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

void ExpectSeriesIdentical(const ml::Series& a, const ml::Series& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << "[" << i << "].x";
    EXPECT_EQ(a[i].y, b[i].y) << label << "[" << i << "].y";
  }
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ExpectSeriesIdentical(a.loss_vs_time, b.loss_vs_time, "loss_vs_time");
  ExpectSeriesIdentical(a.loss_vs_epoch, b.loss_vs_epoch, "loss_vs_epoch");
  ExpectSeriesIdentical(a.accuracy_vs_time, b.accuracy_vs_time,
                        "accuracy_vs_time");
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_virtual_seconds, b.total_virtual_seconds);
  EXPECT_EQ(a.avg_epoch_cost.compute_seconds, b.avg_epoch_cost.compute_seconds);
  EXPECT_EQ(a.avg_epoch_cost.communication_seconds,
            b.avg_epoch_cost.communication_seconds);
  EXPECT_EQ(a.total_local_iterations, b.total_local_iterations);
  EXPECT_EQ(a.consensus_distance, b.consensus_distance);
  EXPECT_EQ(a.policies_generated, b.policies_generated);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_saved, b.bytes_saved);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.rounds_degraded, b.rounds_degraded);
  EXPECT_EQ(a.peers_timed_out, b.peers_timed_out);
}

// Runs `config` over the acceptance grid of the execution seams — backend x
// threads {1, 8} x shards {1, 2} — and expects the bits of its
// fully serial unsharded run (returned) at every point, with no inline
// recompute. threads=1 collapses every backend to serial dispatch, kSerial
// with a pool still shards on it, and the async window is 2x threads, so the
// threads axis varies it too.
RunResult ExpectGridBitIdentical(const std::string& name,
                                 const ExperimentConfig& config) {
  const RunResult reference = RunWithThreads(name, config, 1, 1);
  for (const ExecutionBackendKind backend :
       {ExecutionBackendKind::kSerial, ExecutionBackendKind::kSpeculative,
        ExecutionBackendKind::kAsyncPipeline}) {
    for (const int threads : {1, 8}) {
      for (const int shards : {1, 2}) {
        const RunResult run =
            RunWithThreads(name, config, threads, shards, backend);
        SCOPED_TRACE(std::string("backend=") + run.backend +
                     " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        ExpectBitIdentical(reference, run);
        EXPECT_EQ(run.computes_recomputed, 0);
      }
    }
  }
  return reference;
}

class ParallelDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminism, SerialAndEightThreadsBitIdentical) {
  const ExperimentConfig config = BaseConfig();
  const RunResult serial = RunWithThreads(GetParam(), config, 1);
  const RunResult parallel = RunWithThreads(GetParam(), config, 8);
  ExpectBitIdentical(serial, parallel);
}

TEST_P(ParallelDeterminism, ThreadShardGridBitIdentical) {
  // The full {threads, shards} grid against the fully serial unsharded
  // reference. batch 48 = six gradient leaves, so shards=2 and shards=5
  // produce genuinely different task splits (2+5 never divides 6 evenly:
  // uneven contiguous leaf ranges are exercised too).
  ExperimentConfig config = BaseConfig();
  config.batch_size = 48;
  const RunResult reference = RunWithThreads(GetParam(), config, 1, 1);
  for (const int threads : {1, 8}) {
    for (const int shards : {1, 2, 5}) {
      if (threads == 1 && shards == 1) continue;
      const RunResult run = RunWithThreads(GetParam(), config, threads,
                                           shards);
      ExpectBitIdentical(reference, run);
    }
  }
}

// A leaner config than BaseConfig keeps the 24-point grids affordable;
// batch 24 = three gradient leaves, so shards=2 still splits leaf ranges
// unevenly.
ExperimentConfig GridConfig() {
  ExperimentConfig config = BaseConfig();
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.batch_size = 24;
  config.max_epochs = 1;
  return config;
}

TEST_P(ParallelDeterminism, BackendWindowGridBitIdentical) {
  ExpectGridBitIdentical(GetParam(), GridConfig());
}

TEST(ParallelDeterminismTest, AsyncPipelineActuallyOverlapsAndRedispatches) {
  // The async backend must put real compute halves in the window (not
  // silently degrade to inline dispatch) and resolve consensus
  // invalidations through re-dispatch, at every pooled thread budget (and
  // with it every window the harness derives, 2x threads).
  const ExperimentConfig config = BaseConfig();
  for (const int threads : {2, 8}) {
    const RunResult run = RunWithThreads("netmax", config, threads, 1,
                                         ExecutionBackendKind::kAsyncPipeline);
    SCOPED_TRACE(threads);
    EXPECT_EQ(run.backend, "async");
    EXPECT_GT(run.computes_speculated, 0);
    EXPECT_EQ(run.computes_recomputed, 0);
    // The consensus writes must hit window-resident entries.
    EXPECT_GT(run.computes_redispatched, 0);
    EXPECT_GT(run.parallel_batches, 0);
  }
  // --backend=serial attaches no backend even with a pool.
  const RunResult serial =
      RunWithThreads("netmax", config, 8, 1, ExecutionBackendKind::kSerial);
  EXPECT_EQ(serial.backend, "serial");
  EXPECT_EQ(serial.computes_speculated, 0);
}

TEST_P(ParallelDeterminism, FaultScheduleBitIdenticalAcrossExecutionPoints) {
  // Fault injection rides the simulator's ordinary (time, sequence) event
  // scheduling, so a faulted run must be exactly as reproducible as a
  // fault-free one: same bits — including the fault counters themselves —
  // at every grid point, under both dead-peer policies. The pinned schedule
  // is a straggler plus a leave/rejoin whose times land inside every
  // engine's run at this scale (the fastest engine finishes its gradient
  // evaluations within a fraction of a virtual second), and whose dead
  // window (1.1s) outlives the 1-second deadline so the timeout policy
  // actually expires it.
  ExperimentConfig config = GridConfig();
  auto faults =
      net::FaultSchedule::Parse("slow@0.05+0.5x4:w1;leave@0.1:w2;join@1.2:w2");
  NETMAX_CHECK_OK(faults.status());
  config.faults = *faults;
  config.peer_timeout_seconds = 1.0;
  config.peer_poll_seconds = 0.4;
  for (const core::PeerPolicy policy :
       {core::PeerPolicy::kWait, core::PeerPolicy::kTimeoutAndContinue}) {
    SCOPED_TRACE(core::PeerPolicyName(policy));
    config.peer_policy = policy;
    // The schedule must actually fire (all three scripted events).
    EXPECT_EQ(ExpectGridBitIdentical(GetParam(), config).faults_injected, 3);
  }
}

TEST_P(ParallelDeterminism, CompressionBitIdenticalAcrossExecutionPoints) {
  // Gradient compression draws from the committing worker's RNG stream
  // (int8) and reads the per-worker communication-round counter (layerwise),
  // both of which only move in commit contexts — so a compressed run must be
  // exactly as reproducible as an uncompressed one at every grid point. One
  // variant per encoding family.
  ExperimentConfig config = GridConfig();
  for (const char* spec_text : {"topk:0.1", "int8", "layerwise:2"}) {
    SCOPED_TRACE(spec_text);
    auto spec = ml::ParseCompressionSpec(spec_text);
    NETMAX_CHECK_OK(spec.status());
    config.compress = *spec;
    const RunResult serial = ExpectGridBitIdentical(GetParam(), config);
    // Compression must actually bite: bytes came off the wire.
    EXPECT_GT(serial.messages_sent, 0);
    EXPECT_GT(serial.bytes_saved, 0);
  }
}

TEST_P(ParallelDeterminism, UncompressedRunsChargeBaselineBytes) {
  // Without compression every send charges exactly the dense f32 baseline:
  // bytes_saved is identically zero (this is what lets the diagnostics table
  // and the golden traces stay byte-identical to their pre-compression
  // shape), while any communicating engine still accounts real messages.
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  const RunResult run = RunWithThreads(GetParam(), config, 8);
  EXPECT_EQ(run.bytes_saved, 0);
  EXPECT_GT(run.messages_sent, 0);
  EXPECT_GT(run.bytes_sent, 0);
}

TEST_P(ParallelDeterminism, FaultFreeRunsReportZeroFaultCounters) {
  // The fault-free path schedules no harness events and touches no extra
  // RNG: the counters stay zero and (by the fault-free golden traces) the
  // bits stay identical to the pre-fault-subsystem pins.
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  const RunResult run = RunWithThreads(GetParam(), config, 8);
  EXPECT_EQ(run.faults_injected, 0);
  EXPECT_EQ(run.rounds_degraded, 0);
  EXPECT_EQ(run.peers_timed_out, 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ParallelDeterminism,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

TEST(ParallelDeterminismTest, TimeoutPolicyActuallyExpiresDeadlines) {
  // Under timeout-and-continue a chain-structured engine whose pull parks on
  // a dead peer must give up after peer_timeout_seconds and press on: the
  // run records real expirations, and its bits still agree between serial
  // and pooled dispatch (the expiry is a virtual-time event like any other).
  ExperimentConfig config = BaseConfig();
  config.max_epochs = 1;
  auto faults = net::FaultSchedule::Parse("leave@0.3:w2;join@4:w2");
  NETMAX_CHECK_OK(faults.status());
  config.faults = *faults;
  config.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
  config.peer_timeout_seconds = 1.0;
  config.peer_poll_seconds = 0.4;
  const RunResult serial = RunWithThreads("netmax", config, 1);
  EXPECT_GT(serial.peers_timed_out, 0);
  ExpectBitIdentical(serial, RunWithThreads("netmax", config, 8));

  // The same schedule under the wait policy never expires a deadline: the
  // parked pulls re-probe until the rejoin.
  config.peer_policy = core::PeerPolicy::kWait;
  const RunResult waited = RunWithThreads("netmax", config, 1);
  EXPECT_EQ(waited.peers_timed_out, 0);
  EXPECT_GT(waited.rounds_degraded, 0);
}

TEST(ParallelDeterminismTest, DynamicHeterogeneousNetworkMatchesToo) {
  // The dynamic-slowdown scenario re-draws link speeds on a timer (an extra
  // stream of plain events interleaved with compute events).
  ExperimentConfig config = BaseConfig();
  config.network = NetworkScenario::kHeterogeneousDynamic;
  config.slowdown_period_seconds = 20.0;
  for (const std::string name : {"netmax", "adpsgd", "gossip"}) {
    const RunResult serial = RunWithThreads(name, config, 1);
    const RunResult parallel = RunWithThreads(name, config, 8);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, ParallelRunsActuallySpeculate) {
  // Guard against the parallel path silently degrading to serial dispatch:
  // every engine must put real compute halves on the pool when threads > 1.
  const ExperimentConfig config = BaseConfig();
  for (const std::string& name : algos::AlgorithmNames()) {
    const RunResult serial = RunWithThreads(name, config, 1);
    const RunResult parallel = RunWithThreads(name, config, 8);
    EXPECT_EQ(serial.backend, "serial") << name;  // threads=1 degrades
    EXPECT_EQ(parallel.backend, "speculative") << name;
    EXPECT_EQ(serial.computes_speculated, 0) << name;
    EXPECT_GT(parallel.parallel_batches, 0) << name;
    EXPECT_GT(parallel.computes_speculated, 0) << name;
    // Invalidations are expected (consensus commits dirty their peers), but
    // every one must resolve through the second-pass re-dispatch — the
    // inline fallback is defensive only.
    EXPECT_EQ(parallel.computes_recomputed, 0) << name;
  }
}

TEST(ParallelDeterminismTest, ConsensusInvalidationsAreRedispatched) {
  // NetMax's symmetric consensus dirties the pulled peer, whose compute is
  // usually speculated: the run must actually exercise the second pass.
  const ExperimentConfig config = BaseConfig();
  const RunResult parallel = RunWithThreads("netmax", config, 8);
  EXPECT_GT(parallel.computes_redispatched, 0);
  EXPECT_EQ(parallel.computes_recomputed, 0);
}

TEST(ParallelDeterminismTest, ThreadCountsAgreeAmongThemselves) {
  // 2, 3, and 8 threads all produce the same bits (not just 1 vs 8): the
  // frontier size and speculation pattern differ, the results must not.
  const ExperimentConfig config = BaseConfig();
  const RunResult two = RunWithThreads("netmax", config, 2);
  const RunResult three = RunWithThreads("netmax", config, 3);
  const RunResult eight = RunWithThreads("netmax", config, 8);
  ExpectBitIdentical(two, three);
  ExpectBitIdentical(two, eight);
}

}  // namespace
}  // namespace netmax
