// Bit-exact checkpoint/restore (core/checkpoint.h): for every registered
// algorithm under serial and speculative dispatch, a run that (a)
// checkpoints mid-run and keeps going, or (b) restores from that checkpoint
// and finishes, must produce a RunResult bit-identical to the uninterrupted
// run — at one point under both dispatches, and at ~65 points under faults
// and compression (the sweep). Also covers the wire-format error paths:
// truncation, corruption, old versions, fingerprint mismatches, out-of-range
// indices, and the file round trip.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/registry.h"
#include "common/serialize.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/pull_engine.h"
#include "ml/compression.h"
#include "net/fault_schedule.h"

namespace netmax {
namespace {

using core::ExecutionBackendKind;
using core::ExperimentConfig;
using core::NetworkScenario;
using core::RunResult;

// Lean but representative: heterogeneous static network, monitor ticks, an
// accuracy series, and enough iterations that the checkpoint lands between
// events with a non-trivial queue.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.dataset.name = "checkpoint";
  config.dataset.num_classes = 4;
  config.dataset.feature_dim = 12;
  config.dataset.num_train = 256;
  config.dataset.num_test = 64;
  config.dataset.class_separation = 4.0;
  config.hidden_layers = {12};
  config.num_workers = 8;
  config.batch_size = 16;
  config.max_epochs = 2;
  config.network = NetworkScenario::kHeterogeneousStatic;
  config.monitor_period_seconds = 5.0;
  config.generator.outer_rounds = 4;
  config.generator.inner_rounds = 4;
  config.eval_every_epochs = 1;
  config.seed = 13;
  config.threads = 1;
  return config;
}

RunResult MustRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  auto result = (*algorithm)->Run(config);
  NETMAX_CHECK_OK(result.status());
  return std::move(result.value());
}

Status TryRun(const std::string& name, const ExperimentConfig& config) {
  auto algorithm = algos::MakeAlgorithm(name);
  NETMAX_CHECK_OK(algorithm.status());
  return (*algorithm)->Run(config).status();
}

void ExpectSeriesIdentical(const ml::Series& a, const ml::Series& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << label << "[" << i << "].x";
    EXPECT_EQ(a[i].y, b[i].y) << label << "[" << i << "].y";
  }
}

// The simulation-output subset of RunResult (exec-stat counters depend on the
// backend by design and are excluded, as in parallel_determinism_test).
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
}

class CheckpointRoundTrip : public ::testing::TestWithParam<std::string> {};

// The acceptance grid: for each algorithm, each dispatch's checkpointed run
// and its restored continuation must match the uninterrupted serial
// reference bit for bit.
TEST_P(CheckpointRoundTrip, AllBackendsBitIdentical) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);
  const double checkpoint_at = 0.5 * reference.total_virtual_seconds;

  struct BackendPoint {
    ExecutionBackendKind backend;
    int threads;
  };
  const BackendPoint points[] = {
      {ExecutionBackendKind::kSerial, 1},
      {ExecutionBackendKind::kSpeculative, 8},
  };
  for (const BackendPoint& point : points) {
    SCOPED_TRACE(core::ExecutionBackendKindName(point.backend));
    std::vector<uint8_t> checkpoint;
    ExperimentConfig with_checkpoint = base;
    with_checkpoint.backend = point.backend;
    with_checkpoint.threads = point.threads;
    with_checkpoint.checkpoint_at_seconds = checkpoint_at;
    with_checkpoint.checkpoint_sink = &checkpoint;
    const RunResult checkpointed = MustRun(GetParam(), with_checkpoint);
    ExpectBitIdentical(reference, checkpointed);
    ASSERT_FALSE(checkpoint.empty());

    ExperimentConfig resumed = base;
    resumed.backend = point.backend;
    resumed.threads = point.threads;
    resumed.restore_source = &checkpoint;
    const RunResult restored = MustRun(GetParam(), resumed);
    ExpectBitIdentical(reference, restored);
  }
}

// A checkpoint written under serial dispatch restores bit-identically under
// pooled speculation (the next test covers the reverse): the bytes carry no
// execution-strategy state.
TEST_P(CheckpointRoundTrip, CheckpointsAreBackendPortable) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);

  ExperimentConfig resumed = base;
  resumed.backend = ExecutionBackendKind::kSpeculative;
  resumed.threads = 8;
  resumed.restore_source = &checkpoint;
  ExpectBitIdentical(reference, MustRun(GetParam(), resumed));
}

// Cross-config restore from pooled speculation: a checkpoint written under
// an 8-thread pool restores bit-identically under a 3-thread pool, whose
// frontiers differ, and under serial dispatch. The checkpoint fingerprint
// covers the simulation config only — backend and threads are real-machine
// choices — so both restores must accept the bytes and finish on the
// reference's bits.
TEST_P(CheckpointRoundTrip, PooledCheckpointRestoresUnderEveryBackend) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);

  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.backend = ExecutionBackendKind::kSpeculative;
  with_checkpoint.threads = 8;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(GetParam(), with_checkpoint);
  ASSERT_FALSE(checkpoint.empty());

  ExperimentConfig under_three = base;
  under_three.backend = ExecutionBackendKind::kSpeculative;
  under_three.threads = 3;
  under_three.restore_source = &checkpoint;
  const RunResult pooled_restored = MustRun(GetParam(), under_three);
  EXPECT_EQ(pooled_restored.backend, "speculative");
  ExpectBitIdentical(reference, pooled_restored);

  ExperimentConfig under_serial = base;
  under_serial.restore_source = &checkpoint;
  const RunResult serial_restored = MustRun(GetParam(), under_serial);
  EXPECT_EQ(serial_restored.backend, "serial");
  ExpectBitIdentical(reference, serial_restored);
}

// The checkpoint bytes do not depend on the dispatch: serial dispatch and an
// 8-thread speculative pool write byte-equal checkpoints, at the one-shot
// point and at every save of a dense periodic cadence (one save per 1% of
// the run). A gradient a speculated evaluation wrote ahead of its turn would
// show up here as a differing byte range.
TEST_P(CheckpointRoundTrip, CheckpointBytesAreBackendIndependent) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun(GetParam(), base);
  ASSERT_GT(reference.total_virtual_seconds, 0.0);

  struct Saves {
    std::vector<uint8_t> one_shot;
    std::vector<std::vector<uint8_t>> cadence;  // tick k at index k - 1
  };
  const auto save = [&](int threads) {
    Saves saves;
    ExperimentConfig one_shot = base;
    one_shot.threads = threads;
    one_shot.checkpoint_at_seconds = 0.5 * reference.total_virtual_seconds;
    one_shot.checkpoint_sink = &saves.one_shot;
    MustRun(GetParam(), one_shot);

    ExperimentConfig cadenced = base;
    cadenced.threads = threads;
    cadenced.checkpoint_every_seconds =
        0.01 * reference.total_virtual_seconds;
    cadenced.checkpoint_path = ::testing::TempDir() + "/netmax_bytes_" +
                               GetParam() + "_" + std::to_string(threads);
    cadenced.checkpoint_retain = 1000;  // keep every tick's file
    MustRun(GetParam(), cadenced);
    for (int tick = 1;; ++tick) {
      const std::string path =
          cadenced.checkpoint_path + ".t" + std::to_string(tick);
      auto bytes = core::ReadCheckpointFile(path);
      if (!bytes.ok()) break;
      saves.cadence.push_back(std::move(*bytes));
      std::remove(path.c_str());
    }
    std::remove(cadenced.checkpoint_path.c_str());
    return saves;
  };
  const Saves serial = save(1);
  const Saves pooled = save(8);
  ASSERT_FALSE(serial.one_shot.empty());
  EXPECT_TRUE(serial.one_shot == pooled.one_shot);
  ASSERT_GE(serial.cadence.size(), 50u);
  ASSERT_EQ(serial.cadence.size(), pooled.cadence.size());
  for (size_t k = 0; k < serial.cadence.size(); ++k) {
    EXPECT_TRUE(serial.cadence[k] == pooled.cadence[k])
        << "periodic save " << k + 1;
  }
}

// The crash-recovery contract: a run killed by a crash@T fault, restored
// from the newest periodic (checkpoint_every_seconds) checkpoint, finishes
// bit-identical to the run that never crashed — for every algorithm. The
// uninterrupted reference runs the same cadence (ticks are virtual-time
// events, so the reference must consume them too), and the cadence itself
// must be transparent: the uninterrupted cadenced run matches the plain run.
TEST_P(CheckpointRoundTrip, CrashRestoreFromPeriodicCheckpoint) {
  const ExperimentConfig base = BaseConfig();
  const RunResult plain = MustRun(GetParam(), base);
  ASSERT_GT(plain.total_virtual_seconds, 0.0);
  const double cadence = 0.2 * plain.total_virtual_seconds;
  const double crash_at = 0.5 * plain.total_virtual_seconds;

  // Uninterrupted reference, cadence armed. The cadence is transparent to
  // training — same losses, same iterations — but it owns its tick events:
  // the final tick can stretch total_virtual_seconds past the last real
  // event, so the clock is compared only between the cadenced runs below.
  std::vector<uint8_t> reference_sink;
  ExperimentConfig uninterrupted = base;
  uninterrupted.checkpoint_every_seconds = cadence;
  uninterrupted.checkpoint_sink = &reference_sink;
  const RunResult want = MustRun(GetParam(), uninterrupted);
  ExpectSeriesIdentical(plain.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  ExpectSeriesIdentical(plain.loss_vs_epoch, want.loss_vs_epoch,
                        "loss_vs_epoch");
  EXPECT_EQ(plain.final_train_loss, want.final_train_loss);
  EXPECT_EQ(plain.total_local_iterations, want.total_local_iterations);
  ASSERT_FALSE(reference_sink.empty());

  // Crashed run: halts at crash_at; the sink keeps the newest periodic
  // checkpoint written before the crash.
  std::vector<uint8_t> crash_sink;
  ExperimentConfig crashed = uninterrupted;
  net::FaultEvent crash;
  crash.kind = net::FaultKind::kCrash;
  crash.time = crash_at;
  crashed.faults.push_back(crash);
  crashed.checkpoint_sink = &crash_sink;
  const RunResult halted = MustRun(GetParam(), crashed);
  EXPECT_LE(halted.total_virtual_seconds, crash_at);
  ASSERT_FALSE(crash_sink.empty());

  // Restore into the no-crash config and finish: the crash is absent from
  // the checkpoint's fingerprint and its pending event was filtered from
  // the serialized queue, so the continuation must reproduce the
  // uninterrupted bits — fault counters included.
  std::vector<uint8_t> restored_sink;
  ExperimentConfig restored = uninterrupted;
  restored.checkpoint_sink = &restored_sink;
  restored.restore_source = &crash_sink;
  const RunResult got = MustRun(GetParam(), restored);
  ExpectBitIdentical(want, got);
  EXPECT_EQ(want.faults_injected, got.faults_injected);
  EXPECT_EQ(want.rounds_degraded, got.rounds_degraded);
  EXPECT_EQ(want.peers_timed_out, got.peers_timed_out);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointRoundTrip,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

// --- the checkpoint sweep ---------------------------------------------------

// tools/trace_dump's pinned golden experiment, and its pinned fault schedule
// and int8 compression variants.
ExperimentConfig GoldenConfig() {
  ExperimentConfig config = BaseConfig();
  config.dataset.name = "golden";
  config.dataset.num_train = 512;
  config.dataset.num_test = 128;
  return config;
}

enum class SweepPath { kPlain, kFaultsWait, kFaultsTimeout, kInt8 };

ExperimentConfig SweepConfig(SweepPath path) {
  ExperimentConfig config = GoldenConfig();
  if (path == SweepPath::kFaultsWait || path == SweepPath::kFaultsTimeout) {
    auto faults =
        net::FaultSchedule::Parse("slow@0.5+2x4:w1;leave@1:w2;join@3:w2");
    NETMAX_CHECK_OK(faults.status());
    config.faults = *faults;
    config.peer_policy = path == SweepPath::kFaultsWait
                             ? core::PeerPolicy::kWait
                             : core::PeerPolicy::kTimeoutAndContinue;
    config.peer_timeout_seconds = 1.0;
    config.peer_poll_seconds = 0.4;
  }
  if (path == SweepPath::kInt8) {
    auto spec = ml::ParseCompressionSpec("int8");
    NETMAX_CHECK_OK(spec.status());
    config.compress = *spec;
  }
  return config;
}

// ExpectBitIdentical plus the fault and wire counters, which are simulation
// outputs too.
void ExpectSameRun(const RunResult& a, const RunResult& b) {
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.rounds_degraded, b.rounds_degraded);
  EXPECT_EQ(a.peers_timed_out, b.peers_timed_out);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_saved, b.bytes_saved);
}

// The pending events a checkpoint holds, read past its fingerprint and
// clock (the layout the harness's checkpoint field list transfers).
// `args_at`, when given, receives each event's byte offset of args[0] (its
// tag sits 16 bytes before, its worker key 24); `workers_at`, the offset at
// which the worker states begin.
std::vector<net::SimEvent> PendingEvents(
    const std::vector<uint8_t>& bytes, std::vector<size_t>* args_at = nullptr,
    size_t* workers_at = nullptr) {
  Deserializer in(bytes);
  const auto skip_words = [&in](int count) {
    for (int i = 0; i < count; ++i) in.ReadU64().value();
  };
  const auto skip_string = [&in] { in.ReadString().value(); };
  const auto skip_vector = [&in] {
    std::vector<double> words;
    NETMAX_CHECK_OK(in.ReadDoubleVec(&words));
  };
  in.ReadU32().value();  // magic
  in.ReadU32().value();  // version
  // The version-5 fingerprint, in ExperimentConfig's order. Ints, enums,
  // u64s and doubles each take one 8-byte word; a vector of them takes a
  // length and that many words.
  skip_string();  // algorithm
  skip_string();  // dataset.name
  skip_words(8);  // the rest of the dataset spec, partition
  skip_vector();  // segments
  const uint64_t lost_labels = in.ReadU64().value();
  for (uint64_t i = 0; i < lost_labels; ++i) skip_vector();
  skip_vector();  // hidden_layers
  skip_string();  // profile.name
  skip_words(4);  // profile.num_parameters, profile.compute_seconds,
                  // num_workers, network
  in.ReadBool().value();  // two_server_placement
  skip_words(7);  // slowdown_period_seconds through weight_decay
  skip_vector();  // lr_milestones
  skip_words(11);  // max_epochs through peer_poll_seconds
  skip_string();  // compress
  skip_words(1);  // model parameters
  in.ReadDouble().value();  // now
  in.ReadI64().value();     // next sequence
  in.ReadI64().value();     // events processed
  std::vector<net::SimEvent> events(in.ReadU64().value());
  for (net::SimEvent& event : events) {
    event.time = in.ReadDouble().value();
    event.sequence = in.ReadI64().value();
    event.worker_key = in.ReadInt().value();
    event.payload.tag = in.ReadI64().value();
    // args are a u64 count, then the doubles.
    if (args_at != nullptr) {
      args_at->push_back(bytes.size() - in.remaining() + 8);
    }
    NETMAX_CHECK_OK(in.ReadDoubleVec(&event.payload.args));
  }
  if (workers_at != nullptr) *workers_at = bytes.size() - in.remaining();
  return events;
}

using core::PullEngine;
using core::RoundEngine;

// The engine tags each algorithm's sweep must catch pending: every tag it
// schedules, except the round loop's kRoundCompute. Gossip, PS-async and
// Prague number their own tables from 0 (their .cc files).
const std::map<std::string, std::set<int64_t>>& ExpectedTags() {
  static const auto* tags = new std::map<std::string, std::set<int64_t>>{
      {"netmax",
       {PullEngine::kLocalStep, PullEngine::kPull, PullEngine::kMonitorTick,
        PullEngine::kPeerWait, PullEngine::kPeerTimeout}},
      {"adpsgd+monitor",
       {PullEngine::kLocalStep, PullEngine::kPull, PullEngine::kMonitorTick,
        PullEngine::kPeerWait, PullEngine::kPeerTimeout}},
      {"adpsgd",
       {PullEngine::kLocalStep, PullEngine::kPull, PullEngine::kPeerWait,
        PullEngine::kPeerTimeout}},
      {"saps",
       {PullEngine::kLocalStep, PullEngine::kPull, PullEngine::kPeerWait,
        PullEngine::kPeerTimeout}},
      {"allreduce", {RoundEngine::kRunRound}},
      {"ps-sync", {RoundEngine::kRunRound}},
      {"gossip", {0, 1}},
      {"ps-async", {0, 1, 2}},
      {"prague", {0, 1, 2}},
  };
  return *tags;
}

// Every algorithm on every path the golden traces pin (plain, both fault
// policies, int8), checkpointed at 63 evenly spaced times and restored from
// each: both the checkpointed run and its continuation must equal the
// uninterrupted run bit for bit. Two kinds of extra points catch tags the
// even grid misses: one inside the first compute interval (where Prague's
// and PS-async's short computes are pending) and one just after each peer
// deadline that expired (where the pull loop's fallback local step is
// pending — AD-PSGD's and SAPS's only local step). kRoundCompute events are
// scheduled at their own round's time, so one is never pending at a
// checkpoint; no point can catch them.
class CheckpointSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckpointSweep, EveryPointRestoresBitIdentically) {
  const std::string& name = GetParam();
  std::set<int64_t> covered;
  for (const SweepPath path : {SweepPath::kPlain, SweepPath::kFaultsWait,
                               SweepPath::kFaultsTimeout, SweepPath::kInt8}) {
    SCOPED_TRACE("path " + std::to_string(static_cast<int>(path)));
    const ExperimentConfig base = SweepConfig(path);
    const RunResult reference = MustRun(name, base);
    const double end = reference.total_virtual_seconds;
    const double compute =
        core::ExperimentHarness(base, name).ComputeSeconds(base.batch_size);
    std::set<double> times = {0.5 * compute};
    for (int k = 1; k < 64; ++k) times.insert(end * k / 64.0);
    // Points added below lie after the current one, so the walk reaches
    // them (set insertion keeps iterators valid).
    for (auto it = times.begin(); it != times.end(); ++it) {
      const double at = *it;
      SCOPED_TRACE("checkpoint at " + std::to_string(at));
      std::vector<uint8_t> checkpoint;
      ExperimentConfig with_checkpoint = base;
      with_checkpoint.checkpoint_at_seconds = at;
      with_checkpoint.checkpoint_sink = &checkpoint;
      ExpectSameRun(reference, MustRun(name, with_checkpoint));
      ExperimentConfig resumed = base;
      resumed.restore_source = &checkpoint;
      ExpectSameRun(reference, MustRun(name, resumed));
      if (HasFailure()) return;
      for (const net::SimEvent& event : PendingEvents(checkpoint)) {
        if (event.payload.tag >= core::kHarnessFaultTag) continue;
        covered.insert(event.payload.tag);
        // Only the pull loop numbers a tag this high.
        if (event.payload.tag == PullEngine::kPeerTimeout &&
            event.time + 0.5 * compute < end) {
          times.insert(event.time + 0.5 * compute);
        }
      }
    }
  }
  EXPECT_EQ(covered, ExpectedTags().at(name));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointSweep,
                         ::testing::ValuesIn(algos::AlgorithmNames()));

// lr_milestones (ml::StepDecayLr) through the harness and a checkpoint. The
// decayed rate is schedule state: a run checkpointed after the milestone
// epoch reaches later epoch ends only after the restore, so it finishes on
// the uninterrupted run's bits only if the checkpoint carried that rate.
TEST(CheckpointLrMilestones, DecayedRateSurvivesRestore) {
  ExperimentConfig base = BaseConfig();
  base.lr_milestones = {1};
  base.max_epochs = 3;

  // The milestone itself: each worker's optimizer runs at the configured
  // rate through epoch 1 and at a tenth of it once epoch 1 has ended.
  {
    core::ExperimentHarness harness(base, "netmax");
    ASSERT_TRUE(harness.Init().ok());
    for (int w = 0; w < base.num_workers; ++w) {
      while (harness.worker(w).epochs_completed < 1) {
        ASSERT_EQ(harness.worker(w).optimizer->learning_rate(),
                  base.learning_rate);
        harness.SampleBatch(w);
        harness.CommitBatchStats(w, harness.EvalBatchGradient(w));
        harness.ApplyStoredGradient(w);
      }
      EXPECT_EQ(harness.worker(w).optimizer->learning_rate(),
                0.1 * base.learning_rate)
          << "worker " << w;
    }
  }

  // Checkpoint between the first and second global-epoch points: past the
  // milestone, with later epoch ends left to run after the restore.
  const RunResult reference = MustRun("netmax", base);
  ASSERT_EQ(reference.loss_vs_time.size(), 3u);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * (reference.loss_vs_time[0].x + reference.loss_vs_time[1].x);
  with_checkpoint.checkpoint_sink = &checkpoint;
  ExpectBitIdentical(reference, MustRun("netmax", with_checkpoint));
  ASSERT_FALSE(checkpoint.empty());

  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  ExpectBitIdentical(reference, MustRun("netmax", resumed));
}

// --- wire-format and plumbing error paths (one algorithm suffices) ---

std::vector<uint8_t> MakeCheckpoint(const ExperimentConfig& base,
                                    const std::string& name = "gossip") {
  const RunResult reference = MustRun(name, base);
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun(name, with_checkpoint);
  NETMAX_CHECK(!checkpoint.empty());
  return checkpoint;
}

TEST(CheckpointErrors, TruncatedBytesAreRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.resize(checkpoint.size() / 2);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointErrors, BadMagicIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint[0] ^= 0xFF;
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(CheckpointErrors, OlderVersionIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  // The version is the little-endian u32 after the magic.
  ASSERT_EQ(checkpoint[4], core::kCheckpointVersion);
  checkpoint[4] = 3;
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 3"), std::string::npos);
}

// Overwrites the little-endian 8 bytes at `offset` (a serialized double or
// i64) with `word`.
void PatchWord(std::vector<uint8_t>& bytes, size_t offset, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(word >> (8 * i));
  }
}

// A fault schedule whose gossip run, checkpointed at 0.75 s
// (FaultedCheckpoint), holds pending the first slowdown's end (worker 1,
// factor 4), the second slowdown (worker 3) and worker 2's leave and join.
ExperimentConfig FaultedConfig() {
  ExperimentConfig config = BaseConfig();
  auto faults = net::FaultSchedule::Parse(
      "slow@0.5+2x4:w1;slow@1+2x4:w3;leave@1.5:w2;join@3:w2");
  NETMAX_CHECK_OK(faults.status());
  config.faults = *faults;
  return config;
}

std::vector<uint8_t> FaultedCheckpoint() {
  std::vector<uint8_t> checkpoint;
  ExperimentConfig with_checkpoint = FaultedConfig();
  with_checkpoint.checkpoint_at_seconds = 0.75;
  with_checkpoint.checkpoint_sink = &checkpoint;
  MustRun("gossip", with_checkpoint);
  NETMAX_CHECK(!checkpoint.empty());
  return checkpoint;
}

// Patches args[arg] of the pending harness event tagged `tag` whose args[0]
// is `first_arg` to `value`, restores, and returns the run's status.
Status RestorePatchedHarnessEvent(int64_t tag, double first_arg, size_t arg,
                                  double value) {
  std::vector<uint8_t> checkpoint = FaultedCheckpoint();
  std::vector<size_t> args_at;
  const std::vector<net::SimEvent> events =
      PendingEvents(checkpoint, &args_at);
  bool patched = false;
  for (size_t i = 0; i < events.size() && !patched; ++i) {
    if (events[i].payload.tag != tag ||
        events[i].payload.args[0] != first_arg) {
      continue;
    }
    PatchWord(checkpoint, args_at[i] + 8 * arg, std::bit_cast<uint64_t>(value));
    patched = true;
  }
  NETMAX_CHECK(patched) << "no pending event tagged " << tag;
  ExperimentConfig resumed = FaultedConfig();
  resumed.restore_source = &checkpoint;
  return TryRun("gossip", resumed);
}

constexpr double kSlowdownKind =
    static_cast<double>(net::FaultKind::kSlowdown);
constexpr double kLeaveKind = static_cast<double>(net::FaultKind::kLeave);

TEST(CheckpointErrors, SlowdownEndWorkerOutOfRangeIsRejected) {
  const Status status =
      RestorePatchedHarnessEvent(core::kHarnessSlowdownEndTag, 1.0, 0, 1e6);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("outside [0, 8)"), std::string::npos);
}

TEST(CheckpointErrors, FaultWorkerOutOfRangeIsRejected) {
  EXPECT_EQ(RestorePatchedHarnessEvent(core::kHarnessFaultTag, kLeaveKind, 1,
                                       8.0)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, NonIntegralFaultKindIsRejected) {
  EXPECT_EQ(RestorePatchedHarnessEvent(core::kHarnessFaultTag, kLeaveKind, 0,
                                       0.5)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, NonPositiveSlowdownFactorIsRejected) {
  EXPECT_EQ(RestorePatchedHarnessEvent(core::kHarnessFaultTag, kSlowdownKind,
                                       2, 0.0)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, NegativeSlowdownDurationIsRejected) {
  EXPECT_EQ(RestorePatchedHarnessEvent(core::kHarnessFaultTag, kSlowdownKind,
                                       3, -1.0)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, BatchIndexOutsideTheShardIsRejected) {
  std::vector<uint8_t> checkpoint = FaultedCheckpoint();
  size_t offset = 0;
  PendingEvents(checkpoint, nullptr, &offset);
  // Walk worker 0's state up to its batch indices (the layout the harness's
  // worker field list transfers), restoring the variable-length parts into
  // a scratch harness.
  const ExperimentConfig config = FaultedConfig();
  core::ExperimentHarness scratch(config, "gossip");
  NETMAX_CHECK_OK(scratch.Init());
  core::WorkerRuntime& worker = scratch.worker(0);
  Deserializer in(std::span<const uint8_t>(checkpoint).subspan(offset));
  StateIo io(in);
  NETMAX_CHECK_OK(io(worker.rng, worker.model->parameters(), *worker.optimizer,
                     *worker.sampler, *worker.lr_schedule,
                     std::span<double>(worker.gradient)));
  // batch_indices: a u64 count, then i64 indices.
  ASSERT_GT(in.ReadU64().value(), 0u);
  PatchWord(checkpoint, checkpoint.size() - in.remaining(),
            static_cast<uint64_t>(worker.shard.size()));

  ExperimentConfig resumed = config;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("batch index"), std::string::npos);
}

// A restored queue whose engine event no longer describes one fails with the
// engine's malformed-event error, on every event table: the pull loop
// (netmax), the round loop (allreduce), gossip, PS-async and Prague. Two
// corruptions of a checkpoint taken inside the first compute interval: an
// unknown tag on the first pending engine event, and a worker key out of
// range on the first pending compute event (the round loop never has one
// pending).
TEST(CheckpointErrors, MalformedEngineEventsAreRejected) {
  const std::pair<std::string, std::string> engines[] = {
      {"netmax", "NetMax"},     {"allreduce", "Allreduce"},
      {"gossip", "GoSGD"},      {"ps-async", "PS-asyn"},
      {"prague", "Prague"},
  };
  const ExperimentConfig base = BaseConfig();
  for (const auto& [name, display] : engines) {
    SCOPED_TRACE(name);
    std::vector<uint8_t> checkpoint;
    ExperimentConfig with_checkpoint = base;
    with_checkpoint.checkpoint_at_seconds =
        0.5 * core::ExperimentHarness(base, name).ComputeSeconds(
                  base.batch_size);
    with_checkpoint.checkpoint_sink = &checkpoint;
    MustRun(name, with_checkpoint);
    std::vector<size_t> args_at;
    const std::vector<net::SimEvent> events =
        PendingEvents(checkpoint, &args_at);
    std::vector<std::vector<uint8_t>> corrupted;
    bool tag_patched = false;
    bool key_patched = false;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].payload.tag >= core::kHarnessFaultTag) continue;
      if (!tag_patched) {
        corrupted.push_back(checkpoint);
        PatchWord(corrupted.back(), args_at[i] - 16, 99);
        tag_patched = true;
      }
      if (!key_patched && events[i].worker_key >= 0) {
        corrupted.push_back(checkpoint);
        PatchWord(corrupted.back(), args_at[i] - 24,
                  static_cast<uint64_t>(base.num_workers));
        key_patched = true;
      }
    }
    ASSERT_TRUE(tag_patched);
    EXPECT_EQ(key_patched, name != "allreduce");
    for (const std::vector<uint8_t>& bytes : corrupted) {
      ExperimentConfig resumed = base;
      resumed.restore_source = &bytes;
      const Status status = TryRun(name, resumed);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
      EXPECT_NE(status.message().find("malformed " + display + " event"),
                std::string::npos)
          << status;
    }
  }
}

TEST(CheckpointErrors, TrailingGarbageIsRejected) {
  const ExperimentConfig base = BaseConfig();
  std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  checkpoint.push_back(0x00);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("gossip", resumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointErrors, AlgorithmFingerprintMismatch) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base, "gossip");
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  const Status status = TryRun("adpsgd", resumed);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// A checkpoint restores only into the config it was written under: every
// field that changes a result bit is in the fingerprint, and a mismatch
// fails the restore with a message naming the field. One case per field
// family, plus each field a restore used to accept silently (learning_rate,
// batch_size, momentum, dataset.seed).
TEST(CheckpointErrors, ConfigFingerprintMismatches) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);

  struct Change {
    std::string field;  // what the error message must name
    std::function<void(ExperimentConfig&)> apply;
  };
  const Change changes[] = {
      {"learning_rate", [](ExperimentConfig& c) { c.learning_rate *= 2.0; }},
      {"batch_size", [](ExperimentConfig& c) { c.batch_size /= 2; }},
      {"momentum", [](ExperimentConfig& c) { c.momentum = 0.0; }},
      {"dataset.seed", [](ExperimentConfig& c) { ++c.dataset.seed; }},
      {"seed", [](ExperimentConfig& c) { ++c.seed; }},
      {"num_workers", [](ExperimentConfig& c) { c.num_workers /= 2; }},
      {"max_epochs", [](ExperimentConfig& c) { ++c.max_epochs; }},
      // Every change to compute time goes through the profile, so a restore
      // cannot graft a run onto another time scale. The profile's name is
      // the same on both sides here; the message names the field.
      {"compute_seconds",
       [](ExperimentConfig& c) { c.profile.compute_seconds *= 8.0; }},
      {"num_parameters",
       [](ExperimentConfig& c) { c.profile.num_parameters += 1; }},
      {"partition",
       [](ExperimentConfig& c) {
         c.partition = core::PartitionScheme::kSegments;
         c.segments.assign(static_cast<size_t>(c.num_workers), 1);
       }},
      {"hidden_layers", [](ExperimentConfig& c) { c.hidden_layers = {6}; }},
      {"network",
       [](ExperimentConfig& c) {
         c.network = NetworkScenario::kHeterogeneousDynamic;
       }},
      {"lr_milestones", [](ExperimentConfig& c) { c.lr_milestones = {1}; }},
      {"max_virtual_seconds",
       [](ExperimentConfig& c) { c.max_virtual_seconds *= 2.0; }},
      {"generator.outer_rounds",
       [](ExperimentConfig& c) { ++c.generator.outer_rounds; }},
      {"eval_every_epochs", [](ExperimentConfig& c) { ++c.eval_every_epochs; }},
      {"peer_policy",
       [](ExperimentConfig& c) {
         c.peer_policy = core::PeerPolicy::kTimeoutAndContinue;
       }},
  };
  for (const Change& change : changes) {
    SCOPED_TRACE(change.field);
    ExperimentConfig changed = base;
    change.apply(changed);
    changed.restore_source = &checkpoint;
    const Status status = TryRun("gossip", changed);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_NE(status.message().find(change.field), std::string::npos)
        << status;
  }
}

TEST(CheckpointErrors, RestorePathAndSourceAreMutuallyExclusive) {
  const ExperimentConfig base = BaseConfig();
  const std::vector<uint8_t> checkpoint = MakeCheckpoint(base);
  ExperimentConfig resumed = base;
  resumed.restore_source = &checkpoint;
  resumed.restore_path = "/nonexistent/also-set";
  EXPECT_FALSE(TryRun("gossip", resumed).ok());
}

TEST(CheckpointFiles, FileRoundTripRestoresBitIdentically) {
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_checkpoint_test.ckpt";

  ExperimentConfig with_checkpoint = base;
  with_checkpoint.checkpoint_at_seconds =
      0.5 * reference.total_virtual_seconds;
  with_checkpoint.checkpoint_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", with_checkpoint));

  ExperimentConfig resumed = base;
  resumed.restore_path = path;
  ExpectBitIdentical(reference, MustRun("gossip", resumed));
  std::remove(path.c_str());
}

TEST(CheckpointFiles, PeriodicCadenceRotatesHistory) {
  // The periodic cadence keeps `<path>` pointing at the newest snapshot —
  // what --restore-path naturally resumes from after a crash — plus a
  // `<path>.t<k>` history trimmed to checkpoint_retain files.
  const ExperimentConfig base = BaseConfig();
  const RunResult reference = MustRun("gossip", base);
  const std::string path =
      ::testing::TempDir() + "/netmax_cadence_test.ckpt";

  ExperimentConfig cadenced = base;
  cadenced.checkpoint_every_seconds = 0.15 * reference.total_virtual_seconds;
  cadenced.checkpoint_path = path;
  cadenced.checkpoint_retain = 2;
  const RunResult want = MustRun("gossip", cadenced);
  // Transparent to training (the tick chain may stretch the clock itself).
  ExpectSeriesIdentical(reference.loss_vs_time, want.loss_vs_time,
                        "loss_vs_time");
  EXPECT_EQ(reference.final_train_loss, want.final_train_loss);

  auto newest = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(newest);
  int kept = 0;
  std::vector<uint8_t> newest_history;
  for (int tick = 1; tick <= 32; ++tick) {
    auto bytes = core::ReadCheckpointFile(path + ".t" + std::to_string(tick));
    if (!bytes.ok()) continue;
    ++kept;
    newest_history = *bytes;
    std::remove((path + ".t" + std::to_string(tick)).c_str());
  }
  // ~6 ticks fired; only the retained tail survives, and `<path>` holds the
  // same bytes as the newest history file.
  EXPECT_GT(kept, 0);
  EXPECT_LE(kept, cadenced.checkpoint_retain);
  EXPECT_EQ(*newest, newest_history);
  std::remove(path.c_str());

  // The newest periodic snapshot restores and finishes bit-identically. The
  // resumed run keeps the cadence armed (into a sink, not the file): the
  // tick chain consumes simulator sequence numbers, so dropping it would
  // diverge from the uninterrupted cadenced run.
  std::vector<uint8_t> snapshot = *newest;
  std::vector<uint8_t> resumed_sink;
  ExperimentConfig resumed = cadenced;
  resumed.checkpoint_path.clear();
  resumed.checkpoint_sink = &resumed_sink;
  resumed.restore_source = &snapshot;
  ExpectBitIdentical(want, MustRun("gossip", resumed));
}

TEST(CheckpointFiles, MissingFileIsNotFound) {
  ExperimentConfig resumed = BaseConfig();
  resumed.restore_path = "/nonexistent/netmax.ckpt";
  EXPECT_EQ(TryRun("gossip", resumed).code(), StatusCode::kNotFound);
}

TEST(CheckpointFiles, WriteToUnwritablePathSurfacesThroughRunStatus) {
  // An armed checkpoint that cannot write its file must fail the run (via
  // Harness::checkpoint_status), not crash it or silently drop the bytes.
  ExperimentConfig config = BaseConfig();
  config.checkpoint_at_seconds = 1.0;
  config.checkpoint_path = "/nonexistent-dir/netmax.ckpt";
  const Status status = TryRun("gossip", config);
  EXPECT_FALSE(status.ok());
}

TEST(CheckpointFiles, RawFileHelpersRoundTrip) {
  const std::vector<uint8_t> bytes = {0x01, 0x02, 0xFF, 0x00, 0x7E};
  const std::string path = ::testing::TempDir() + "/netmax_raw_bytes.bin";
  NETMAX_EXPECT_OK(core::WriteCheckpointFile(path, bytes));
  auto read_back = core::ReadCheckpointFile(path);
  NETMAX_EXPECT_OK(read_back);
  EXPECT_EQ(*read_back, bytes);
  std::remove(path.c_str());
}

TEST(CheckpointArming, CheckpointPastEndOfRunFailsLoudly) {
  // A checkpoint time beyond the end of training would produce a dead
  // checkpoint and (when past the last event) drag the virtual clock with
  // it; the harness fails the run instead of doing either silently.
  std::vector<uint8_t> checkpoint;
  ExperimentConfig late = BaseConfig();
  late.checkpoint_at_seconds = 1e6;  // beyond the run's end, below the cap
  late.checkpoint_sink = &checkpoint;
  const Status status = TryRun("gossip", late);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("past the end"), std::string::npos);
  EXPECT_TRUE(checkpoint.empty());
}

}  // namespace
}  // namespace netmax
