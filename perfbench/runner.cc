// The repository benchmark's runner: one workload at one seed, as a closed
// loop of whole training runs through algos::MakeAlgorithm(name)->Run(config)
// — one run at a time, the next starting when the previous returns — with at
// most four threads. Every run is checked against a threads=1 serial leg of
// the same workload; the last stdout line is the JSON result. Usage:
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    [--work-dir DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans around the runs and per-call layer probes,
// and it writes the spans to DIR. Exit status: 0 when every check passed,
// 1 when a run failed a check (the JSON still prints, "correct": false),
// 2 on a usage or set-up error (no JSON). See README.md for the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/registry.h"
#include "common/status.h"
#include "core/experiment.h"
#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace netmax::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The benchmark never uses more threads than this, nor more than the
// machine has.
constexpr int kMaxThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return InvalidArgumentError(flag + " needs a value");
    const std::string value = argv[++i];
    const auto parse_uint = [&](uint64_t* out) {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
      return ec == std::errc() && ptr == end;
    };
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(&args.seed)) {
        return InvalidArgumentError("--seed: not an unsigned integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(&number) || number == 0 || number > 600) {
        return InvalidArgumentError("--seconds: expected 1..600");
      }
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return InvalidArgumentError("--trace: expected 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return InvalidArgumentError("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return InvalidArgumentError(
        "usage: perfbench_runner --workload W --seed N --seconds S "
        "--trace 0|1 [--work-dir DIR]");
  }
  return args;
}

// Counts training runs and the ones that failed an output check.
struct Checker {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Fail(const std::string& what, const std::string& why) {
    ++failed;
    std::cerr << "perfbench: CHECK FAILED: " << what << ": " << why << "\n";
  }
};

// One training run and its wall time.
struct TimedRun {
  core::RunResult result;
  double wall = 0.0;
};

// Runs and checks one training run: OK status, finite loss, and — when
// `want` is set — the simulation digest. nullopt when a check failed.
std::optional<TimedRun> CheckedRun(const std::string& algorithm,
                                   const core::ExperimentConfig& config,
                                   std::optional<uint64_t> want,
                                   const std::string& what,
                                   Checker& checker) {
  ++checker.attempted;
  auto made = algos::MakeAlgorithm(algorithm);
  if (!made.ok()) {
    checker.Fail(what, made.status().ToString());
    return std::nullopt;
  }
  const Clock::time_point start = Clock::now();
  StatusOr<core::RunResult> result = (*made)->Run(config);
  const double wall = SecondsSince(start);
  if (!result.ok()) {
    checker.Fail(what, result.status().ToString());
    return std::nullopt;
  }
  if (!std::isfinite(result->final_train_loss)) {
    checker.Fail(what, "non-finite final training loss");
    return std::nullopt;
  }
  if (want.has_value() && SimulationDigest(*result) != *want) {
    checker.Fail(what, "simulation outputs differ from the reference run");
    return std::nullopt;
  }
  return TimedRun{std::move(result.value()), wall};
}

// One RunSpec executed once: the run itself and, for checkpointing specs,
// the resume from its mid-run checkpoint.
struct SpecRun {
  TimedRun run;
  double resume_wall = 0.0;
  int64_t saves = 0;
  int64_t checkpoint_bytes = 0;
};

std::string TickPath(const std::string& path, int64_t tick) {
  return path + ".t" + std::to_string(tick);
}

std::optional<SpecRun> ExecuteSpec(const RunSpec& spec,
                                   const core::ExperimentConfig& config,
                                   std::optional<uint64_t> want,
                                   Checker& checker, Tracer* tracer,
                                   int64_t run_id) {
  const int root =
      tracer ? tracer->Begin("training_run", Tracer::kNoParent, run_id) : 0;
  const int run_span =
      tracer ? tracer->Begin("algos." + spec.algorithm + ".run", root, run_id)
             : 0;
  std::optional<TimedRun> run =
      CheckedRun(spec.algorithm, config, want, spec.algorithm, checker);
  if (tracer) tracer->End(run_span);
  std::optional<SpecRun> out;
  if (run.has_value()) out = SpecRun{std::move(*run), 0.0, 0, 0};
  if (out.has_value() && spec.resume_from_checkpoint) {
    const std::string& path = config.checkpoint_path;
    while (std::filesystem::exists(TickPath(path, out->saves + 1))) {
      ++out->saves;
    }
    if (out->saves == 0) {
      checker.Fail(spec.algorithm, "no periodic checkpoint was written");
      out.reset();
    } else {
      out->checkpoint_bytes = static_cast<int64_t>(
          std::filesystem::file_size(TickPath(path, 1)));
      core::ExperimentConfig resume = config;
      resume.restore_path = TickPath(path, (out->saves + 1) / 2);
      const int resume_span =
          tracer ? tracer->Begin("core.checkpoint.resume", root, run_id) : 0;
      std::optional<TimedRun> resumed =
          CheckedRun(spec.algorithm, resume, SimulationDigest(out->run.result),
                     spec.algorithm + " resumed", checker);
      if (tracer) tracer->End(resume_span);
      if (resumed.has_value()) {
        out->resume_wall = resumed->wall;
      } else {
        out.reset();
      }
    }
  }
  if (spec.resume_from_checkpoint) {
    std::error_code ignored;
    std::filesystem::remove(config.checkpoint_path, ignored);
    for (int64_t tick = 1;
         std::filesystem::remove(TickPath(config.checkpoint_path, tick),
                                 ignored);
         ++tick) {
    }
  }
  if (tracer) tracer->End(root);
  return out;
}

// Wall seconds of ExperimentHarness::Init on `config` (the harness is torn
// down before the next run starts, outside the timing).
StatusOr<double> TimeInit(const core::ExperimentConfig& config) {
  core::ExperimentHarness harness(config, "perfbench-setup");
  const Clock::time_point start = Clock::now();
  NETMAX_RETURN_IF_ERROR(harness.Init());
  return SecondsSince(start);
}

// One pass over every run of the workload.
struct Round {
  bool traced = false;
  double run_wall = 0.0;    // every training run, resumes included
  double train_wall = 0.0;  // uninterrupted runs only
  double setup = 0.0;       // Init wall summed over the runs
  double samples = 0.0;     // iterations x batch of the uninterrupted runs
  double resume_wall = 0.0;
  std::vector<double> spec_walls;
  std::map<std::string, double> algorithm_walls;
  std::vector<core::RunResult> results;
};

int Threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hardware), 1, kMaxThreads);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename Fn>
double MedianOf(const std::vector<Round>& rounds, Fn&& field) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(field(round));
  return Median(std::move(values));
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    std::ostringstream item;
    item << std::setprecision(17) << "\"" << name << "\": {\"value\": "
         << value << ", \"unit\": \"" << unit << "\"}";
    items_.push_back(item.str());
  }
  std::string Render(const Checker& checker) const {
    std::ostringstream out;
    out << "{\"correct\": " << (checker.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << checker.attempted
        << ", \"failed\": " << checker.failed << ", \"metrics\": {";
    for (size_t i = 0; i < items_.size(); ++i) {
      out << (i ? ", " : "") << items_[i];
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<std::string> items_;
};

// Virtual seconds at which the fleet completed its epoch budget: the last
// global-epoch point. total_virtual_seconds runs on to the next monitor or
// checkpoint tick after the work is done, which would quantize the metric.
double EqualWorkSeconds(const core::RunResult& r) {
  return r.loss_vs_time.empty() ? r.total_virtual_seconds
                                : r.loss_vs_time.back().x;
}

// Simulated results of the serial reference leg (bit-identical to every
// other leg): the primary algorithm's mean equal-work virtual time and
// accuracy, NetMax's worst ratio against the baselines, and total bytes.
void AddSimulatedMetrics(const Workload& workload,
                         const std::vector<SpecRun>& reference,
                         MetricsJson& json) {
  std::map<std::string, double> virtual_sums;
  double primary_virtual = 0.0, primary_accuracy = 0.0;
  int primary_runs = 0;
  double wire_bytes = 0.0;
  for (size_t i = 0; i < workload.runs.size(); ++i) {
    const core::RunResult& r = reference[i].run.result;
    virtual_sums[workload.runs[i].algorithm] += EqualWorkSeconds(r);
    wire_bytes += static_cast<double>(r.bytes_sent);
    if (workload.runs[i].algorithm == workload.primary) {
      primary_virtual += EqualWorkSeconds(r);
      primary_accuracy += r.final_accuracy;
      ++primary_runs;
    }
  }
  // 1 by definition on workloads that run no baseline beside NetMax.
  double speedup = 1.0;
  const auto netmax = virtual_sums.find("netmax");
  if (netmax != virtual_sums.end() && virtual_sums.size() > 1) {
    speedup = INFINITY;
    for (const auto& [name, seconds] : virtual_sums) {
      if (name != "netmax") {
        speedup = std::min(speedup, seconds / netmax->second);
      }
    }
  }
  json.Add("virtual_s", primary_virtual / primary_runs, "sim_s");
  json.Add("netmax_speedup", speedup, "x");
  json.Add("final_accuracy", primary_accuracy / primary_runs, "fraction");
  json.Add("wire_bytes", wire_bytes, "bytes");
}

// Per-layer metrics of the traced run. Busy seconds are per-call probe times
// times the call counts the runs report; shares divide by the untraced
// rounds' median run_wall_s.
Status AddLayerMetrics(const Workload& workload, const Args& args,
                       const std::vector<SpecRun>& reference,
                       double serial_train_wall,
                       const std::vector<Round>& untraced,
                       const std::vector<Round>& traced, Checker& checker,
                       Tracer& tracer, MetricsJson& json) {
  const double run_wall = MedianOf(untraced, [](const Round& r) {
    return r.run_wall;
  });
  const double train_wall = MedianOf(untraced, [](const Round& r) {
    return r.train_wall;
  });
  const double setup = MedianOf(untraced, [](const Round& r) {
    return r.setup;
  });

  // Call counts from the reference leg (deterministic per config) and the
  // backend counters of the last pooled round.
  int64_t ticks = 0, iterations = 0, messages = 0, bytes_sent = 0,
          bytes_saved = 0, events = 0, saves = 0, checkpoint_bytes = 0,
          injected = 0, degraded = 0, timeouts = 0, compressed_messages = 0;
  const core::ExperimentConfig* policy_config = nullptr;
  const core::ExperimentConfig& probe_config = workload.runs.front().config;
  for (size_t i = 0; i < workload.runs.size(); ++i) {
    const RunSpec& spec = workload.runs[i];
    const core::RunResult& r = reference[i].run.result;
    if (spec.algorithm == "netmax") {
      ticks += r.policies_generated;
      policy_config = &spec.config;
    }
    iterations += r.total_local_iterations;
    messages += r.messages_sent;
    if (spec.config.compress.enabled()) compressed_messages += r.messages_sent;
    bytes_sent += r.bytes_sent;
    bytes_saved += r.bytes_saved;
    events += DerivedEvents(spec.algorithm, r, spec.config.num_workers);
    saves += reference[i].saves;
    checkpoint_bytes =
        std::max(checkpoint_bytes, reference[i].checkpoint_bytes);
    injected += r.faults_injected;
    degraded += r.rounds_degraded;
    timeouts += r.peers_timed_out;
  }
  int64_t batches = 0, speculated = 0, redispatched = 0;
  for (const core::RunResult& r : untraced.back().results) {
    batches += r.parallel_batches;
    speculated += r.computes_speculated;
    redispatched += r.computes_redispatched;
  }

  // Checkpoint cost: cadence-on minus cadence-off wall of the same runs.
  double cadence_on = 0.0, cadence_off = 0.0, restore = 0.0;
  if (saves > 0) {
    constexpr int kCadenceOffRepeats = 3;
    const int span =
        tracer.Begin("perfbench.cadence_off", Tracer::kNoParent, 0);
    for (size_t i = 0; i < workload.runs.size(); ++i) {
      const RunSpec& spec = workload.runs[i];
      if (!spec.resume_from_checkpoint) continue;
      core::ExperimentConfig off = spec.config;
      off.checkpoint_every_seconds = 0.0;
      off.checkpoint_path.clear();
      std::vector<double> walls;
      for (int k = 0; k < kCadenceOffRepeats; ++k) {
        std::optional<TimedRun> run = CheckedRun(
            spec.algorithm, off, std::nullopt,
            spec.algorithm + " without checkpoints", checker);
        if (!run.has_value()) return InternalError("cadence-off run failed");
        walls.push_back(run->wall);
      }
      cadence_off += Median(std::move(walls));
      cadence_on += MedianOf(untraced, [i](const Round& r) {
        return r.spec_walls[i];
      });
    }
    restore = MedianOf(untraced, [](const Round& r) { return r.resume_wall; });
    tracer.End(span);
  }
  const double save_ms =
      saves > 0 ? 1e3 * (cadence_on - cadence_off) / static_cast<double>(saves)
                : 0.0;

  const int probe_span = tracer.Begin("perfbench.probes", Tracer::kNoParent, 0);
  NETMAX_ASSIGN_OR_RETURN(
      const LayerTimes layer,
      ProbeLayers(policy_config ? *policy_config : probe_config,
                  policy_config != nullptr && ticks > 0,
                  probe_config.num_workers, tracer, probe_span));
  tracer.End(probe_span);

  const auto count = [](int64_t n) { return static_cast<double>(n); };
  const double policy_busy = count(ticks) * layer.generate_ms / 1e3;
  const double grad_busy = count(iterations) * layer.grad_us / 1e6;
  const double optimizer_busy = count(iterations) * layer.optimizer_us / 1e6;
  const double compress_busy =
      count(compressed_messages) * layer.compress_us / 1e6;
  const double queue_busy = count(events) * layer.queue_ns / 1e9;
  const double finalize_busy =
      count(static_cast<int64_t>(workload.runs.size())) * layer.finalize_s;
  const double checkpoint_busy =
      count(saves) * save_ms / 1e3 + restore;
  const ShareTable shares =
      Shares({{"core.policy", policy_busy},
              {"ml.grad", grad_busy},
              {"ml.optimizer", optimizer_busy},
              {"ml.compress", compress_busy},
              {"net.queue", queue_busy},
              {"core.finalize", finalize_busy},
              {"core.checkpoint", checkpoint_busy},
              {"core.setup", setup}},
             run_wall);
  const auto share_of = [&shares](const std::string& name) {
    for (const auto& [layer_name, share] : shares.shares) {
      if (layer_name == name) return share;
    }
    return 0.0;
  };

  json.Add("core.policy.ticks", count(ticks), "count");
  json.Add("core.policy.generate_ms", layer.generate_ms, "ms");
  json.Add("core.policy.busy_s", policy_busy, "s");
  json.Add("core.policy.share", share_of("core.policy"), "fraction");
  json.Add("linalg.eigen_ms", layer.eigen_ms, "ms");
  json.Add("ml.grad.calls", count(iterations), "count");
  json.Add("ml.grad.step_us", layer.grad_us, "us");
  json.Add("ml.grad.busy_s", grad_busy, "s");
  json.Add("ml.grad.share", share_of("ml.grad"), "fraction");
  json.Add("ml.optimizer.step_us", layer.optimizer_us, "us");
  json.Add("ml.optimizer.busy_s", optimizer_busy, "s");
  json.Add("ml.optimizer.share", share_of("ml.optimizer"), "fraction");
  json.Add("ml.compress.transform_us", layer.compress_us, "us");
  json.Add("ml.compress.busy_s", compress_busy, "s");
  json.Add("ml.compress.share", share_of("ml.compress"), "fraction");
  json.Add("net.queue.events", count(events), "count");
  json.Add("net.queue.pushpop_ns", layer.queue_ns, "ns");
  json.Add("net.queue.busy_s", queue_busy, "s");
  json.Add("net.queue.share", share_of("net.queue"), "fraction");
  json.Add("net.wire.messages", count(messages), "count");
  json.Add("net.wire.bytes_sent", count(bytes_sent), "bytes");
  json.Add("net.wire.bytes_saved", count(bytes_saved), "bytes");
  json.Add("core.backend.batches", count(batches), "count");
  json.Add("core.backend.speculated", count(speculated), "count");
  json.Add("core.backend.redispatched", count(redispatched), "count");
  // Every re-dispatch re-evaluates a compute half whose earlier evaluation
  // was discarded, so evaluations ahead of turn = speculated + redispatched
  // and the useful ones = speculated.
  json.Add("core.backend.useful_ratio",
           speculated > 0
               ? count(speculated) / count(speculated + redispatched)
               : 0.0,
           "fraction");
  json.Add("core.backend.parallel_speedup", serial_train_wall / train_wall,
           "x");
  json.Add("core.finalize_s", layer.finalize_s, "s");
  json.Add("core.finalize.share", share_of("core.finalize"), "fraction");
  json.Add("core.setup.share", share_of("core.setup"), "fraction");
  json.Add("core.checkpoint.saves", count(saves), "count");
  json.Add("core.checkpoint.bytes", count(checkpoint_bytes), "bytes");
  json.Add("core.checkpoint.save_ms", save_ms, "ms");
  json.Add("core.checkpoint.restore_s", restore, "s");
  json.Add("core.checkpoint.share", share_of("core.checkpoint"), "fraction");
  json.Add("core.faults.injected", count(injected), "count");
  json.Add("core.faults.degraded_rounds", count(degraded), "count");
  json.Add("core.faults.timeouts", count(timeouts), "count");
  for (const std::string name :
       {"prague", "allreduce", "adpsgd", "netmax", "gossip"}) {
    json.Add("algos." + name + ".wall_s",
             MedianOf(untraced,
                      [&name](const Round& r) {
                        const auto it = r.algorithm_walls.find(name);
                        return it == r.algorithm_walls.end() ? 0.0
                                                             : it->second;
                      }),
             "s");
  }
  json.Add("unattributed_share", shares.unattributed, "fraction");
  const double traced_wall = MedianOf(traced, [](const Round& r) {
    return r.run_wall;
  });
  json.Add("trace.overhead_share", (traced_wall - run_wall) / run_wall,
           "fraction");
  std::filesystem::create_directories(args.work_dir);
  return tracer.WriteJson(args.work_dir + "/trace-" + args.workload + "-" +
                          std::to_string(args.seed) + ".json");
}

int Main(int argc, char** argv) {
  const StatusOr<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "perfbench: " << parsed.status().ToString() << "\n";
    return 2;
  }
  const Args& args = *parsed;
  const std::string checkpoint_dir = args.work_dir + "/ckpt";
  std::filesystem::create_directories(checkpoint_dir);
  const int threads = Threads();
  StatusOr<Workload> made =
      MakeWorkload(args.workload, args.seed, threads, checkpoint_dir);
  if (!made.ok()) {
    std::cerr << "perfbench: " << made.status().ToString() << "\n";
    return 2;
  }
  const Workload& workload = *made;
  Checker checker;
  Tracer tracer;
  Tracer* const run_tracer = args.trace ? &tracer : nullptr;
  int64_t run_id = 0;

  // Serial reference leg: threads=1, once per invocation. Its digests are
  // what every pooled run must reproduce bit for bit.
  std::vector<SpecRun> reference;
  double serial_train_wall = 0.0;
  for (const RunSpec& spec : workload.runs) {
    core::ExperimentConfig serial = spec.config;
    serial.threads = 1;
    std::optional<SpecRun> run = ExecuteSpec(spec, serial, std::nullopt,
                                             checker, run_tracer, ++run_id);
    if (!run.has_value()) {
      std::cerr << "perfbench: the serial reference leg failed\n";
      return 2;
    }
    serial_train_wall += run->run.wall;
    reference.push_back(std::move(*run));
  }

  // The closed loop: whole passes over the workload until --seconds elapse.
  // The traced run alternates traced and untraced passes, so both see the
  // same machine state and their difference is the tracing overhead.
  std::vector<Round> untraced, traced;
  const Clock::time_point start = Clock::now();
  std::vector<double> run_walls;
  const int min_passes = args.trace ? 2 : 1;
  for (int pass = 0;
       pass < min_passes || SecondsSince(start) < args.seconds; ++pass) {
    Round round;
    round.traced = args.trace && pass % 2 == 1;
    Tracer* const pass_tracer = round.traced ? &tracer : nullptr;
    for (size_t i = 0; i < workload.runs.size(); ++i) {
      const RunSpec& spec = workload.runs[i];
      const StatusOr<double> setup = TimeInit(spec.config);
      if (!setup.ok()) {
        checker.Fail(spec.algorithm + " setup", setup.status().ToString());
        continue;
      }
      round.setup += *setup;
      std::optional<SpecRun> run =
          ExecuteSpec(spec, spec.config,
                      SimulationDigest(reference[i].run.result), checker,
                      pass_tracer, ++run_id);
      if (!run.has_value()) continue;
      const double wall = run->run.wall;
      round.run_wall += wall + run->resume_wall;
      round.train_wall += wall;
      round.resume_wall += run->resume_wall;
      round.samples +=
          static_cast<double>(run->run.result.total_local_iterations) *
          spec.config.batch_size;
      round.spec_walls.push_back(wall);
      round.algorithm_walls[spec.algorithm] += wall + run->resume_wall;
      round.results.push_back(std::move(run->run.result));
      run_walls.push_back(wall);
    }
    (round.traced ? traced : untraced).push_back(std::move(round));
  }

  MetricsJson json;
  if (!args.trace) {
    json.Add("run_wall_s",
             MedianOf(untraced, [](const Round& r) { return r.run_wall; }),
             "s");
    json.Add("train_samples_per_s", MedianOf(untraced, [](const Round& r) {
               return r.samples / r.train_wall;
             }),
             "1/s");
    json.Add("setup_s",
             MedianOf(untraced, [](const Round& r) { return r.setup; }), "s");
    json.Add("peak_rss_mb", PeakRssMb(), "MB");
    AddSimulatedMetrics(workload, reference, json);
  } else if (checker.failed == 0) {
    const Status status =
        AddLayerMetrics(workload, args, reference, serial_train_wall,
                        untraced, traced, checker, tracer, json);
    if (!status.ok()) {
      std::cerr << "perfbench: " << status.ToString() << "\n";
      return 2;
    }
  }

  const std::optional<Percentile> tail = TailPercentile(run_walls);
  std::cerr << "perfbench: " << workload.name << " seed " << args.seed << ": "
            << untraced.size() + traced.size() << " passes, "
            << run_walls.size() << " timed runs, median run "
            << Median(run_walls) << " s";
  if (tail.has_value()) {
    std::cerr << ", p" << tail->p << " " << tail->value << " s ("
              << tail->beyond << " beyond)";
  }
  std::cerr << "; pass walls (s):";
  for (const Round& round : untraced) std::cerr << " " << round.run_wall;
  std::cerr << "\n";
  std::cout << json.Render(checker) << std::endl;
  return checker.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace netmax::perfbench

int main(int argc, char** argv) { return netmax::perfbench::Main(argc, argv); }
