#ifndef NETMAX_PERFBENCH_STATS_H_
#define NETMAX_PERFBENCH_STATS_H_

// The arithmetic the benchmark reports with: order statistics, layer shares,
// the simulation-output digest behind every output check, and the derivation
// of simulator event counts from RunResult counters. Header-only so that
// stats_test.cc checks exactly the code runner.cc runs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace netmax::perfbench {

// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

// A nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of the
// sorted samples, and how many samples lie beyond that rank.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  int64_t beyond = 0;
};

// Minimum number of samples that must lie beyond a reported tail percentile.
inline constexpr int64_t kTailSamplesBeyond = 10;

// The highest of the 50th, 90th, 99th and 99.9th percentiles that has at
// least kTailSamplesBeyond samples beyond it; nullopt with fewer than 20
// samples, where not even the median qualifies.
inline std::optional<Percentile> TailPercentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  std::optional<Percentile> best;
  // Ranks in integer per-mille, so 99.9% of 10000 is exactly rank 9990.
  for (const int64_t permille : {500, 900, 990, 999}) {
    const int64_t rank = std::max<int64_t>(1, (permille * n + 999) / 1000);
    if (n - rank < kTailSamplesBeyond) break;
    best = Percentile{static_cast<double>(permille) / 10.0,
                      values[static_cast<size_t>(rank - 1)], n - rank};
  }
  return best;
}

// Each layer's busy seconds as a share of `wall_seconds`, plus the
// remainder no layer accounts for. Shares of layers that run on a pool are
// CPU-time shares, so under parallel execution they can sum past 1 and the
// remainder goes negative; it is reported as measured, never clamped.
struct ShareTable {
  std::vector<std::pair<std::string, double>> shares;
  double unattributed = 1.0;
};

inline ShareTable Shares(
    const std::vector<std::pair<std::string, double>>& busy_seconds,
    double wall_seconds) {
  ShareTable table;
  for (const auto& [name, busy] : busy_seconds) {
    const double share = wall_seconds > 0.0 ? busy / wall_seconds : 0.0;
    table.shares.emplace_back(name, share);
    table.unattributed -= share;
  }
  return table;
}

// FNV-1a over the exact bit patterns of a run's simulation outputs: one
// flipped ulp anywhere changes the digest.
class Digest {
 public:
  void Add(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(const ml::Series& series) {
    Add(static_cast<int64_t>(series.size()));
    for (const auto& point : series) {
      Add(point.x);
      Add(point.y);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Digest of every RunResult field covered by the bit-identity contract
// (simulation outputs; the execution-backend diagnostics are excluded because
// they legitimately differ between the serial and the pooled runs).
inline uint64_t SimulationDigest(const core::RunResult& r) {
  Digest d;
  d.Add(r.loss_vs_time);
  d.Add(r.loss_vs_epoch);
  d.Add(r.accuracy_vs_time);
  d.Add(r.final_train_loss);
  d.Add(r.final_accuracy);
  d.Add(r.total_virtual_seconds);
  d.Add(r.avg_epoch_cost.compute_seconds);
  d.Add(r.avg_epoch_cost.communication_seconds);
  d.Add(r.total_local_iterations);
  d.Add(r.consensus_distance);
  d.Add(r.policies_generated);
  d.Add(r.faults_injected);
  d.Add(r.rounds_degraded);
  d.Add(r.peers_timed_out);
  d.Add(r.messages_sent);
  d.Add(r.bytes_sent);
  d.Add(r.bytes_saved);
  return d.value();
}

// Simulator events one run processed, derived from its RunResult counters
// (the simulator's own count is not surfaced in RunResult):
//  * gossip: one compute event per local iteration plus one arrival event
//    per push (messages_sent);
//  * netmax, adpsgd: one compute event per local iteration (a pull and the
//    step it feeds are a single event) plus one monitor tick per generated
//    policy;
//  * allreduce, prague: one compute event per worker iteration plus one
//    round event per num_workers iterations;
//  * every engine: plus one event per injected fault.
// Peer polls and timeouts, monitor ticks that produced no policy, and
// checkpoint ticks are not in RunResult and go uncounted, so on fault or
// checkpoint runs this is a lower bound.
inline int64_t DerivedEvents(std::string_view algorithm,
                             const core::RunResult& r, int num_workers) {
  int64_t events = r.total_local_iterations + r.faults_injected;
  if (algorithm == "gossip") {
    events += r.messages_sent;
  } else if (algorithm == "netmax" || algorithm == "adpsgd") {
    events += r.policies_generated;
  } else if (num_workers > 0) {
    events += r.total_local_iterations / num_workers;
  }
  return events;
}

}  // namespace netmax::perfbench

#endif  // NETMAX_PERFBENCH_STATS_H_
