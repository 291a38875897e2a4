#include "probes.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <span>
#include <utility>

#include "common/random.h"
#include "core/policy_generator.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "net/event_queue.h"
#include "stats.h"

namespace netmax::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Median per-call seconds of `call` over kBatches timed batches, each sized
// from one calibration call to last about kBatchSeconds, so sub-microsecond
// calls are not drowned by clock reads and slow calls run once per batch.
constexpr int kBatches = 5;
constexpr double kBatchSeconds = 0.005;

template <typename Fn>
double MedianSecondsPerCall(Fn&& call) {
  const Clock::time_point calibrate = Clock::now();
  call();
  const double one = std::max(SecondsBetween(calibrate, Clock::now()), 1e-9);
  const auto calls = std::max<int64_t>(
      1, static_cast<int64_t>(kBatchSeconds / one));
  std::vector<double> per_call;
  for (int batch = 0; batch < kBatches; ++batch) {
    const Clock::time_point start = Clock::now();
    for (int64_t i = 0; i < calls; ++i) call();
    per_call.push_back(SecondsBetween(start, Clock::now()) /
                       static_cast<double>(calls));
  }
  return Median(std::move(per_call));
}

// The per-link iteration times NetMax's monitor would measure at t = 0 with
// overlapped communication: max(compute, pull) on every edge.
linalg::Matrix IterationTimes(const core::ExperimentHarness& harness) {
  const int n = harness.num_workers();
  const double compute = harness.ComputeSeconds(harness.config().batch_size);
  linalg::Matrix times(n, n);
  for (int i = 0; i < n; ++i) {
    for (const int m : harness.topology().Neighbors(i)) {
      times(i, m) = std::max(compute, harness.PullSeconds(m, i));
    }
  }
  return times;
}

// Metropolis-Hastings weights on the topology: a symmetric doubly stochastic
// matrix of the kind the policy generator scores by its lambda_2.
linalg::Matrix MetropolisWeights(const net::Topology& topology) {
  const int n = topology.num_nodes();
  linalg::Matrix weights(n, n);
  for (int i = 0; i < n; ++i) {
    const auto degree_i = topology.Neighbors(i).size();
    double row = 0.0;
    for (const int m : topology.Neighbors(i)) {
      const auto degree_m = topology.Neighbors(m).size();
      weights(i, m) =
          1.0 / (1.0 + static_cast<double>(std::max(degree_i, degree_m)));
      row += weights(i, m);
    }
    weights(i, i) = 1.0 - row;
  }
  return weights;
}

// One Push + PopNext at a steady pending depth: pop the earliest event and
// push its successor a random delay later, as the engines' iteration chains
// do. Delays come from a fixed table so the probe draws no random numbers.
class QueueProbe {
 public:
  QueueProbe(net::EventQueueKind kind, int64_t depth)
      : queue_(net::MakeEventQueue(kind)) {
    Rng rng(depth);
    for (double& delay : delays_) delay = rng.Uniform();
    for (int64_t i = 0; i < depth; ++i) queue_->Push(Event(NextDelay()));
  }

  void PopPush() {
    const net::SimEvent event = queue_->PopNext();
    now_ = event.time;
    queue_->Push(Event(now_ + NextDelay()));
  }

 private:
  net::SimEvent Event(double time) {
    net::SimEvent event;
    event.time = time;
    event.sequence = sequence_++;
    event.worker_key = static_cast<int>(event.sequence % 1024);
    event.compute = [] { return 0.0; };
    event.commit = [](double) {};
    event.payload = {0, {time}};
    return event;
  }
  double NextDelay() { return delays_[next_delay_++ % delays_.size()]; }

  std::unique_ptr<net::EventQueue> queue_;
  std::vector<double> delays_ = std::vector<double>(4096);
  size_t next_delay_ = 0;
  int64_t sequence_ = 0;
  double now_ = 0.0;
};

}  // namespace

int Tracer::Begin(std::string name, int parent, int64_t run_id) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({std::move(name), now, now, parent, run_id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end = Clock::now();
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open trace file " + path);
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_us\": " << micros(span.start)
        << ", \"end_us\": " << micros(span.end)
        << ", \"parent\": " << span.parent << ", \"run\": " << span.run_id
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.close();
  if (!out) return InternalError("cannot write trace file " + path);
  return Status::Ok();
}

StatusOr<LayerTimes> ProbeLayers(const core::ExperimentConfig& config,
                                 bool with_policy, int64_t queue_depth,
                                 Tracer& tracer, int parent_span) {
  LayerTimes times;
  core::ExperimentHarness harness(config, "perfbench-probe");
  NETMAX_RETURN_IF_ERROR(harness.Init());
  const auto timed = [&](const char* name, auto&& call) {
    const int span = tracer.Begin(name, parent_span, 0);
    const double seconds = MedianSecondsPerCall(call);
    tracer.End(span);
    return seconds;
  };

  if (with_policy) {
    const linalg::Matrix iteration_times = IterationTimes(harness);
    core::PolicyGeneratorOptions options = config.generator;
    options.alpha = config.learning_rate;
    const core::PolicyGenerator generator(harness.topology(), options);
    Status generated;
    times.generate_ms = 1e3 * timed("probe.core.policy.generate", [&] {
      const auto policy = generator.Generate(iteration_times, harness.pool());
      if (!policy.ok()) generated = policy.status();
    });
    NETMAX_RETURN_IF_ERROR(generated);
    const linalg::Matrix weights = MetropolisWeights(harness.topology());
    Status solved;
    times.eigen_ms = 1e3 * timed("probe.linalg.eigen", [&] {
      const auto eigen = linalg::JacobiEigenSymmetric(weights);
      if (!eigen.ok()) solved = eigen.status();
    });
    NETMAX_RETURN_IF_ERROR(solved);
  }

  // Gradient and optimizer steps cycle over a few workers, each holding a
  // sampled batch, as the engines interleave workers.
  const int workers = std::min(harness.num_workers(), 16);
  for (int w = 0; w < workers; ++w) harness.SampleBatch(w);
  int next = 0;
  double loss_sink = 0.0;
  times.grad_us = 1e6 * timed("probe.ml.grad", [&] {
    loss_sink += harness.EvalBatchGradient(next);
    next = (next + 1) % workers;
  });
  times.optimizer_us = 1e6 * timed("probe.ml.optimizer", [&] {
    harness.ApplyStoredGradient(next);
    next = (next + 1) % workers;
  });
  if (harness.compression_enabled()) {
    const std::vector<double> delta = harness.worker(0).gradient;
    const std::span<double> scratch = harness.CompressionScratch();
    int64_t round = 0;
    times.compress_us = 1e6 * timed("probe.ml.compress", [&] {
      std::copy(delta.begin(), delta.end(), scratch.begin());
      harness.ApplyCompression(0, round++, scratch);
    });
  }

  QueueProbe queue(config.event_queue, queue_depth);
  times.queue_ns = 1e9 * timed("probe.net.queue", [&] { queue.PopPush(); });

  times.finalize_s = timed("probe.core.finalize", [&] {
    loss_sink += harness.Finalize().final_accuracy;
  });
  if (!std::isfinite(loss_sink)) {
    return InternalError("layer probe produced a non-finite loss");
  }
  return times;
}

}  // namespace netmax::perfbench
