// Micro-benchmarks (google-benchmark) for the substrates on NetMax's hot
// paths: the symmetric eigensolver and the policy LP (called K*R times per
// monitor tick), full Algorithm 3 policy generation (and its retained
// whole-matrix reference), the event simulator, and one training step of the
// MLP proxy.

#include <benchmark/benchmark.h>

#include "algos/registry.h"
#include "common/random.h"
#include "core/experiment.h"
#include "core/policy_generator.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/simplex.h"
#include "ml/dataset.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/sharding.h"
#include "ml/workspace.h"
#include "net/event_sim.h"
#include "tests/reference_impls.h"

namespace netmax {
namespace {

linalg::Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) a(r, c) = rng.Gaussian();
  }
  return a;
}

linalg::Matrix RandomSymmetric(int n, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const double v = rng.Gaussian();
      a(r, c) = v;
      a(c, r) = v;
    }
  }
  return a;
}

linalg::Matrix RandomTimes(int n, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix t(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int m = i + 1; m < n; ++m) {
      const double v = rng.Uniform(0.2, 2.0);
      t(i, m) = v;
      t(m, i) = v;
    }
  }
  return t;
}

void BM_JacobiEigen(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a = RandomSymmetric(n, 1);
  for (auto _ : state) {
    auto result = linalg::JacobiEigenSymmetric(a);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(8)->Arg(16)->Arg(32);

void BM_PolicyLp(benchmark::State& state) {
  // The Eq. (14) LP for a complete graph of M nodes, via the generator's
  // single-(rho, t_bar) path: approximated by a 1x1 grid.
  const int n = static_cast<int>(state.range(0));
  net::Topology topo = net::Topology::Complete(n);
  core::PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 1;
  options.inner_rounds = 1;
  core::PolicyGenerator generator(topo, options);
  const linalg::Matrix times = RandomTimes(n, 2);
  for (auto _ : state) {
    auto result = generator.Generate(times);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PolicyLp)->Arg(8)->Arg(16);

void BM_PolicyGenerationFull(benchmark::State& state) {
  // Full Algorithm 3 with the paper-scale grid (K = R = 8): what the monitor
  // pays every Ts = 2 minutes.
  const int n = static_cast<int>(state.range(0));
  net::Topology topo = net::Topology::Complete(n);
  core::PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 8;
  options.inner_rounds = 8;
  core::PolicyGenerator generator(topo, options);
  const linalg::Matrix times = RandomTimes(n, 3);
  for (auto _ : state) {
    auto result = generator.Generate(times);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PolicyGenerationFull)->Arg(8)->Arg(16)->Arg(32);

void BM_PolicyGenerationReference(benchmark::State& state) {
  // The same search through the retained whole-matrix reference
  // (tests/reference_impls.h): one dense Eq. (14) LP per grid point, with
  // lambda_2 from the full eigendecomposition. The naive-relative perf gate
  // pairs it with BM_PolicyGenerationFull.
  const int n = static_cast<int>(state.range(0));
  net::Topology topo = net::Topology::Complete(n);
  core::PolicyGeneratorOptions options;
  options.alpha = 0.1;
  options.outer_rounds = 8;
  options.inner_rounds = 8;
  const linalg::Matrix times = RandomTimes(n, 3);
  for (auto _ : state) {
    auto result = core::reference::Generate(topo, options, times);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PolicyGenerationReference)->Arg(8)->Arg(32);

void BM_EventSimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::EventSimulator sim;
    int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.ScheduleAfter(1.0, tick);
    };
    sim.ScheduleAt(0.0, tick);
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventSimulatorThroughput);

// Serial-vs-parallel dispatch of the 32-worker scaled scenario (the
// bench_scale32_parallel_runtime experiment at smoke size): Arg(1) is the
// legacy serial path, Arg(0) one thread per hardware core. Results are
// bit-identical; only real wall time may differ, which is exactly what this
// tracks across commits.
void BM_Scale32SimulationWall(benchmark::State& state) {
  core::ExperimentConfig config;
  config.num_workers = 32;
  config.hidden_layers = {96};
  config.dataset.num_train = 2048;
  config.dataset.num_test = 128;
  config.max_epochs = 2;
  config.network = core::NetworkScenario::kHeterogeneousDynamic;
  config.slowdown_period_seconds = 20.0;
  config.monitor_period_seconds = 8.0;
  config.generator.outer_rounds = 3;
  config.generator.inner_rounds = 3;
  config.seed = 5;
  config.threads = static_cast<int>(state.range(0));
  auto algorithm = algos::MakeAlgorithm("netmax");
  NETMAX_CHECK(algorithm.ok()) << algorithm.status();
  for (auto _ : state) {
    auto result = (*algorithm)->Run(config);
    NETMAX_CHECK(result.ok()) << result.status();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Scale32SimulationWall)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime()  // the main thread blocks while the pool computes
    ->Unit(benchmark::kMillisecond);

void BM_MatrixMultiply(benchmark::State& state) {
  // The GEMM substrate (policy matrices, Y_P products).
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a = RandomMatrix(n, n, 4);
  const linalg::Matrix b = RandomMatrix(n, n, 5);
  for (auto _ : state) {
    linalg::Matrix c = a.Multiply(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatrixMultiply)->Arg(64)->Arg(128)->Arg(256);

void BM_MatrixApply(benchmark::State& state) {
  // The GEMV substrate (power iteration inside the spectral-gap check).
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a = RandomMatrix(n, n, 6);
  std::vector<double> x(static_cast<size_t>(n), 1.0);
  for (auto _ : state) {
    std::vector<double> y = a.Apply(x);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n);
}
BENCHMARK(BM_MatrixApply)->Arg(128)->Arg(256);

// Shared fixture data for the model substrates: CIFAR10-sim scale features
// (dim 32, 10 classes), batch 32 — the per-iteration workload of Algorithm 2.
ml::DatasetPair ModelBenchData() {
  ml::SyntheticSpec spec;
  spec.feature_dim = 32;
  spec.num_classes = 10;
  spec.num_train = 1024;
  spec.num_test = 512;
  return ml::GenerateSynthetic(spec);
}

void BM_MlpTrainingStep(benchmark::State& state) {
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  ml::BatchSampler sampler(&pair.train, 32, 2);
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  for (auto _ : state) {
    const std::vector<int> batch = sampler.NextBatch();
    const double loss = model.LossAndGradient(pair.train, batch, gradient);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_MlpTrainingStep);

void BM_MlpForwardLoss(benchmark::State& state) {
  // Forward-only (loss without gradient): the epoch-loss / AverageLoss path.
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  ml::BatchSampler sampler(&pair.train, 32, 2);
  for (auto _ : state) {
    const std::vector<int> batch = sampler.NextBatch();
    const double loss = model.LossAndGradient(pair.train, batch, {});
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_MlpForwardLoss);

void BM_ShardedMlpStep(benchmark::State& state) {
  // The intra-worker sharded gradient path (ml/sharding.h): the same batch
  // as BM_MlpTrainingStep evaluated as 4 concurrent shard tasks on a
  // 3-thread pool (+ caller), bit-identical to the serial step. On one core
  // this measures the sharding overhead; on several it measures the
  // nested-parallel speedup.
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  ml::BatchSampler sampler(&pair.train, 32, 2);
  ThreadPool pool(3);
  ml::TrainingWorkspace workspace;
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  for (auto _ : state) {
    const std::vector<int> batch = sampler.NextBatch();
    const double loss = ml::ShardedLossAndGradient(
        model, pair.train, batch, gradient, workspace, &pool, /*shards=*/4);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ShardedMlpStep);

void BM_AccuracyEval(benchmark::State& state) {
  // The Finalize() / RecordGlobalEpochPoint() evaluation path: test accuracy
  // of one worker model over the full test set.
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  for (auto _ : state) {
    const double acc = ml::Accuracy(model, pair.test);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * pair.test.size());
}
BENCHMARK(BM_AccuracyEval);

void BM_MlpTrainingStepNaive(benchmark::State& state) {
  // The seed's per-sample allocating implementation (retained in
  // tests/reference_impls.h as the golden reference). Benchmarked here so the
  // naive-vs-workspace speedup is measured within one process run, immune to
  // machine-load drift between separate baseline captures.
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  ml::BatchSampler sampler(&pair.train, 32, 2);
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  for (auto _ : state) {
    const std::vector<int> batch = sampler.NextBatch();
    const double loss =
        ml::reference::MlpLossAndGradient(model, pair.train, batch, gradient);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_MlpTrainingStepNaive);

void BM_GemmNaive(benchmark::State& state) {
  // The seed Matrix::Multiply loop (branch-per-element i-k-j), for the same
  // in-run comparison against the blocked kernel behind BM_MatrixMultiply.
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a = RandomMatrix(n, n, 4);
  const linalg::Matrix b = RandomMatrix(n, n, 5);
  for (auto _ : state) {
    linalg::Matrix out(n, n);
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k < n; ++k) {
        const double v = a(r, k);
        if (v == 0.0) continue;
        for (int c = 0; c < n; ++c) out(r, c) += v * b(k, c);
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_MlpTrainingStepWorkspace(benchmark::State& state) {
  // The exact per-iteration hot path of ExperimentHarness: reusable batch
  // buffer + explicit per-worker workspace, zero allocations at steady state.
  ml::DatasetPair pair = ModelBenchData();
  ml::Mlp model({32, 32, 10});
  model.InitializeParameters(1);
  ml::BatchSampler sampler(&pair.train, 32, 2);
  ml::TrainingWorkspace workspace;
  std::vector<double> gradient(static_cast<size_t>(model.num_parameters()));
  std::vector<int> batch;
  for (auto _ : state) {
    sampler.NextBatch(batch);
    const double loss =
        model.LossAndGradient(pair.train, batch, gradient, workspace);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_MlpTrainingStepWorkspace);

void BM_LaneGemmAtBKernel(benchmark::State& state) {
  // The write-form weight-gradient kernel over one full gradient leaf:
  // deltas (n x 8 lanes) against the leaf's inputs (8 x n, row-major).
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<double> a(static_cast<size_t>(n) * linalg::kLanes);
  std::vector<double> b(static_cast<size_t>(linalg::kLanes) * n);
  std::vector<double> c(static_cast<size_t>(n) * n);
  for (double& v : a) v = rng.Gaussian();
  for (double& v : b) v = rng.Gaussian();
  for (auto _ : state) {
    linalg::LaneGemmAtB(linalg::kLanes, n, n, a.data(), b.data(), n, c.data(),
                        n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{linalg::kLanes} * n *
                          n);
}
BENCHMARK(BM_LaneGemmAtBKernel)->Arg(32)->Arg(128);

}  // namespace
}  // namespace netmax

BENCHMARK_MAIN();
