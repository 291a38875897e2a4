// bench/bench_util.h flag parsing and run plumbing: InitBench must accept
// the documented flags, reject everything else with kInvalidArgument naming
// the offending text, and never exit the process itself (BenchMain owns the
// exit code). RunAlgorithms propagates run errors with the run's name.

#include "bench/bench_util.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/experiment.h"

namespace netmax::bench {
namespace {

// InitBench(argv) with a fake binary name prepended.
StatusOr<bool> Init(std::vector<std::string> args) {
  std::vector<std::string> storage;
  storage.push_back("bench_under_test");
  for (std::string& arg : args) storage.push_back(std::move(arg));
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (std::string& arg : storage) argv.push_back(arg.data());
  return InitBench(static_cast<int>(argv.size()), argv.data());
}

TEST(InitBenchTest, NoFlagsProceedsWithDefaults) {
  const StatusOr<bool> init = Init({});
  NETMAX_EXPECT_OK(init);
  EXPECT_TRUE(*init);
  EXPECT_FALSE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), -1);
  EXPECT_EQ(ShardsOverride(), -1);
}

TEST(InitBenchTest, ParsesTheDocumentedFlags) {
  const StatusOr<bool> init =
      Init({"--smoke", "--threads=4", "--shards=2", "--backend=serial"});
  NETMAX_EXPECT_OK(init);
  EXPECT_TRUE(*init);
  EXPECT_TRUE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), 4);
  EXPECT_EQ(ShardsOverride(), 2);
  for (const char* backend : {"--backend=serial", "--backend=speculative"}) {
    NETMAX_EXPECT_OK(Init({backend}));
  }
}

TEST(InitBenchTest, ReparsingResetsEarlierOverrides) {
  NETMAX_EXPECT_OK(Init({"--smoke", "--threads=4"}));
  NETMAX_EXPECT_OK(Init({}));
  EXPECT_FALSE(SmokeMode());
  EXPECT_EQ(ThreadsOverride(), -1);
}

TEST(InitBenchTest, HelpReturnsFalseNotError) {
  const StatusOr<bool> init = Init({"--help"});
  NETMAX_EXPECT_OK(init);
  EXPECT_FALSE(*init);
}

TEST(InitBenchTest, UnknownFlagNamesTheFlag) {
  // Removed flags (procs, reorder-window, adaptive-window) are unknown
  // flags like any typo.
  for (const std::string name :
       {"frobnicate", "procs=2", "reorder-window=4", "adaptive-window"}) {
    const std::string arg = "--" + name;
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
  }
}

TEST(InitBenchTest, ParsesTheFaultFlags) {
  NETMAX_EXPECT_OK(Init({"--faults=slow@2+6x4:w1;leave@4:w2;join@9:w2",
                         "--peer-policy=timeout"}));
  NETMAX_EXPECT_OK(Init({"--faults=seed:42", "--peer-policy=wait"}));
  NETMAX_EXPECT_OK(Init({"--checkpoint-every=0.5",
                         "--checkpoint-path=/tmp/x.ckpt"}));
}

TEST(InitBenchTest, MalformedValuesNameTheOffendingText) {
  for (const std::string arg :
       {"--threads=4x", "--shards=-1", "--backend=asink", "--backend=process",
        "--checkpoint-at=soon", "--checkpoint-at=-1",
        "--faults=explode@1:w0", "--faults=seed:4x", "--peer-policy=retry",
        "--checkpoint-every=never"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
  }
}

TEST(InitBenchTest, ParsesTheScaleFlags) {
  NETMAX_EXPECT_OK(Init({"--workers=1024", "--topology=hier:64"}));
  EXPECT_EQ(WorkersOverride(), 1024);
  NETMAX_EXPECT_OK(Init({"--topology=complete"}));
  NETMAX_EXPECT_OK(Init({"--workers=2"}));
  // Reparsing resets the worker override like every other override.
  NETMAX_EXPECT_OK(Init({}));
  EXPECT_EQ(WorkersOverride(), -1);
}

TEST(InitBenchTest, RejectsUnknownEventQueueNamingTheSpellings) {
  // The simulator has one queue, so --event-queue is gone: every spelling,
  // the formerly accepted vector and calendar included, is an unknown flag
  // named in the error.
  for (const char* name : {"vector", "calendar", "pagoda"}) {
    const std::string arg = std::string("--event-queue=") + name;
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find("unknown bench flag: " + arg),
              std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, RejectsAsyncBackendNamingTheSpellings) {
  // The async pipeline (like the process backend before it) is gone: its
  // spelling is a malformed value whose error names the flag and the two
  // spellings left.
  for (const char* removed : {"async", "process"}) {
    const std::string arg = std::string("--backend=") + removed;
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
    EXPECT_NE(init.status().message().find("serial|speculative"),
              std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, RejectsWorkerCountsBelowTwo) {
  for (const std::string arg :
       {"--workers=0", "--workers=1", "--workers=-4", "--workers=8x"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
    EXPECT_NE(init.status().message().find("worker count >= 2"),
              std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, RejectsMalformedTopologySpecsWithTheGrammar) {
  for (const std::string arg :
       {"--topology=ring", "--topology=hier:", "--topology=hier:0"}) {
    const StatusOr<bool> init = Init({arg});
    ASSERT_FALSE(init.ok()) << arg;
    EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(init.status().message().find(arg), std::string::npos) << arg;
    EXPECT_NE(
        init.status().message().find("expected complete or hier:<cluster_size>"),
        std::string::npos)
        << arg;
  }
}

TEST(InitBenchTest, CheckpointAtRequiresAPath) {
  const StatusOr<bool> init = Init({"--checkpoint-at=5"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--checkpoint-path"),
            std::string::npos);

  NETMAX_EXPECT_OK(
      Init({"--checkpoint-at=5", "--checkpoint-path=/tmp/x.ckpt"}));
}

TEST(InitBenchTest, CheckpointEveryRequiresAPath) {
  const StatusOr<bool> init = Init({"--checkpoint-every=0.5"});
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(init.status().message().find("--checkpoint-path"),
            std::string::npos);
}

TEST(RunAlgorithmsTest, UnknownAlgorithmIsNotFound) {
  NETMAX_EXPECT_OK(Init({}));
  core::ExperimentConfig config;
  config.dataset.num_train = 64;
  config.dataset.num_test = 16;
  config.num_workers = 2;
  config.max_epochs = 1;
  config.threads = 1;
  const auto results = RunAlgorithms({"no-such-algorithm"}, config);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
}

TEST(RunAlgorithmsTest, RunErrorsArePrefixedWithTheRunName) {
  NETMAX_EXPECT_OK(Init({}));
  core::ExperimentConfig config;
  config.num_workers = 0;  // invalid: Validate rejects it
  const auto results = RunAlgorithms({"gossip"}, config);
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("gossip"), std::string::npos);
}

TEST(RunConfigsTest, SizeMismatchIsInvalidArgument) {
  NETMAX_EXPECT_OK(Init({}));
  const auto results =
      RunConfigs("gossip", {core::ExperimentConfig{}}, {"a", "b"});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace netmax::bench
