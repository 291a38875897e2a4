// Self-test of the benchmark's own arithmetic (stats.h). Exits non-zero on
// the first failed expectation; run it with ctest in the benchmark's build
// directory.

#include <cmath>
#include <iostream>
#include <vector>

#include "stats.h"

namespace netmax::perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  // Descending, so the functions under test must sort.
  for (int i = n; i >= 1; --i) values.push_back(i);
  return values;
}

void TestMedian() {
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd-count median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-count median");
}

void TestTailPercentile() {
  Expect(!TailPercentile(OneTo(19)).has_value(),
         "19 samples: not even the median has 10 beyond");
  const auto twenty = TailPercentile(OneTo(20));
  Expect(twenty.has_value() && twenty->p == 50.0 && twenty->value == 10.0 &&
             twenty->beyond == 10,
         "20 samples: the median, 10 beyond");
  const auto hundred = TailPercentile(OneTo(100));
  Expect(hundred.has_value() && hundred->p == 90.0 && hundred->value == 90.0 &&
             hundred->beyond == 10,
         "100 samples: p90 (p99 would have 1 beyond)");
  const auto thousand = TailPercentile(OneTo(1000));
  Expect(thousand.has_value() && thousand->p == 99.0 &&
             thousand->value == 990.0 && thousand->beyond == 10,
         "1000 samples: p99");
  const auto many = TailPercentile(OneTo(10000));
  Expect(many.has_value() && many->p == 99.9 && many->value == 9990.0 &&
             many->beyond == 10,
         "10000 samples: p99.9");
}

void TestShares() {
  const ShareTable table =
      Shares({{"a", 1.0}, {"b", 2.0}, {"c", 0.25}}, 5.0);
  double total = table.unattributed;
  for (const auto& [name, share] : table.shares) total += share;
  Expect(std::abs(total - 1.0) < 1e-12, "shares plus remainder sum to 1");
  Expect(table.shares[1].second == 0.4, "share = busy / wall");
  Expect(std::abs(table.unattributed - 0.35) < 1e-12, "remainder");
  const ShareTable over = Shares({{"a", 3.0}, {"b", 3.0}}, 5.0);
  Expect(std::abs(over.unattributed + 0.2) < 1e-12,
         "overlapping busy time leaves a negative remainder, unclamped");
}

core::RunResult SampleResult() {
  core::RunResult r;
  r.loss_vs_time = {{1.0, 2.3}, {2.0, 1.7}};
  r.loss_vs_epoch = {{1.0, 2.3}};
  r.final_train_loss = 1.7;
  r.final_accuracy = 0.61;
  r.total_virtual_seconds = 812.5;
  r.total_local_iterations = 1536;
  r.bytes_sent = 123456;
  return r;
}

void TestDigest() {
  const core::RunResult base = SampleResult();
  const uint64_t want = SimulationDigest(base);
  Expect(SimulationDigest(SampleResult()) == want, "digest is deterministic");

  core::RunResult ulp = SampleResult();
  ulp.final_accuracy = std::nextafter(ulp.final_accuracy, 1.0);
  Expect(SimulationDigest(ulp) != want, "one ulp of final_accuracy is caught");

  core::RunResult point = SampleResult();
  point.loss_vs_time[1].y = std::nextafter(point.loss_vs_time[1].y, 0.0);
  Expect(SimulationDigest(point) != want, "one ulp in a series is caught");

  core::RunResult zero = SampleResult();
  zero.consensus_distance = -0.0;
  Expect(SimulationDigest(zero) != want, "-0.0 differs from +0.0");

  core::RunResult diagnostics = SampleResult();
  diagnostics.parallel_batches = 99;
  diagnostics.computes_speculated = 7;
  diagnostics.backend = "speculative";
  Expect(SimulationDigest(diagnostics) == want,
         "execution diagnostics are outside the digest");
}

void TestDerivedEvents() {
  core::RunResult r;
  r.total_local_iterations = 800;
  r.messages_sent = 300;
  r.policies_generated = 5;
  r.faults_injected = 2;
  Expect(DerivedEvents("gossip", r, 8) == 800 + 300 + 2,
         "gossip: iterations + pushes + faults");
  Expect(DerivedEvents("netmax", r, 8) == 800 + 5 + 2,
         "netmax: iterations + monitor ticks + faults");
  Expect(DerivedEvents("adpsgd", r, 8) == 800 + 5 + 2,
         "adpsgd: iterations + monitor ticks + faults");
  Expect(DerivedEvents("allreduce", r, 8) == 800 + 100 + 2,
         "allreduce: iterations + one round event per n iterations + faults");
}

}  // namespace
}  // namespace netmax::perfbench

int main() {
  netmax::perfbench::TestMedian();
  netmax::perfbench::TestTailPercentile();
  netmax::perfbench::TestShares();
  netmax::perfbench::TestDigest();
  netmax::perfbench::TestDerivedEvents();
  if (netmax::perfbench::failures > 0) return 1;
  std::cout << "perfbench_stats_test: all checks passed\n";
  return 0;
}
