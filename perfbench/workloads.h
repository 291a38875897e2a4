#ifndef NETMAX_PERFBENCH_WORKLOADS_H_
#define NETMAX_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: each is a fixed list of whole training runs,
// made from the command-line seed, that the runner executes one at a time
// through algos::MakeAlgorithm(name)->Run(config). Why each workload exists
// is recorded in README.md.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/experiment.h"

namespace netmax::perfbench {

struct RunSpec {
  std::string algorithm;          // registry name
  core::ExperimentConfig config;  // complete, threads included
  // After the run, resume from its mid-run periodic checkpoint; the resumed
  // run must finish bit-identical to the uninterrupted one.
  bool resume_from_checkpoint = false;
};

struct Workload {
  std::string name;
  // The algorithm whose equal-work virtual time is the workload's virtual_s.
  std::string primary;
  std::vector<RunSpec> runs;
};

// The workload `name` for `seed`: the same seed always yields the same runs.
// `threads` goes into every config (the only execution knob a workload
// sets); periodic checkpoints are written under `checkpoint_dir`.
StatusOr<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                int threads,
                                const std::string& checkpoint_dir);

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_WORKLOADS_H_
