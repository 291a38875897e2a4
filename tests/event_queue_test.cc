// The EventQueue contract: the calendar queue must pop the exact
// (time, sequence) stream the sorted vector (tests/reference_impls.h) pops —
// ties included — because the golden traces, generated under that vector,
// pin the order bit-for-bit. Also covered: the in-order non-destructive
// visit, SaveQueue/RestoreQueue round-trips across queue layouts, the bound
// on closure moves per event in equal-time clusters, and the zero-allocation
// steady state (the simulator-core half of the zero-alloc workspace
// discipline), verified with a global operator new/delete override.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/event_queue.h"
#include "net/event_sim.h"
#include "tests/reference_impls.h"

// The counting operator new below forwards to malloc, which defeats the
// compiler's new/free pairing heuristic and yields false mismatch reports.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// Counting overrides. Every form forwards to malloc/free so sanitizer builds
// still see the underlying allocations.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmax::net {
namespace {

int64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

SimEvent MakeEvent(double time, int64_t sequence) {
  SimEvent event;
  event.time = time;
  event.sequence = sequence;
  return event;
}

// Draws the absolute time of the next pushed event, given the time of the
// last popped one (the simulator never schedules into the past).
using TimeDraw = double (*)(Rng& rng, double now);

// A coarse grid of times within 2.25 s of the clock: frequent exact ties.
double TiedGridTime(Rng& rng, double now) {
  return now + 0.25 * static_cast<double>(rng.UniformInt(0, 9));
}

// Many time scales at once, as real runs mix millisecond compute steps with
// 120 s monitor ticks and the 1e7 s time cap: log-uniform delays across
// [1e-9, 1e7] s (tiny delays round to exact ties at large clocks), plus
// occasional events at the cap itself.
double ManyScalesTime(Rng& rng, double now) {
  constexpr double kTimeCap = 1e7;
  if (rng.Bernoulli(0.05)) return std::max(now, kTimeCap);
  return now + std::pow(10.0, rng.Uniform(-9.0, 7.0));
}

struct OracleInput {
  TimeDraw draw;
  // When > 0, this many events share one time, pushed at rounds 0 and 200:
  // a fleet of workers finishing a compute step together.
  int cluster_width;
};

// The property at the heart of the queue: under a randomized interleaving of
// pushes, in-order visits and pops — with heavy time ties, out-of-order
// arrivals, clock advances, times spread over sixteen decades, and a
// 4,096-wide equal-time cluster — the calendar queue visits and pops the
// identical (time, sequence) stream as the sorted vector, its oracle.
TEST(EventQueueTest, RandomizedPopOrderMatchesSortedVectorIncludingTies) {
  for (const OracleInput input : {OracleInput{TiedGridTime, 0},
                                  OracleInput{ManyScalesTime, 0},
                                  OracleInput{TiedGridTime, 4096}}) {
    for (const uint64_t seed : {1u, 7u, 1234u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " cluster "
                                        << input.cluster_width);
      reference::SortedVectorEventQueue oracle;
      EventQueue calendar;
      Rng rng(seed);
      int64_t next_sequence = 0;
      double now = 0.0;
      const auto push = [&](double time) {
        const int64_t sequence = next_sequence++;
        oracle.Push(MakeEvent(time, sequence));
        calendar.Push(MakeEvent(time, sequence));
      };
      const auto prefix = [](const auto& queue, int64_t length) {
        std::vector<std::pair<double, int64_t>> visited;
        queue.VisitInOrder(length, [&visited](const SimEvent& event) {
          visited.push_back({event.time, event.sequence});
          return EventQueue::VisitAction::kContinue;
        });
        return visited;
      };
      for (int round = 0; round < 400; ++round) {
        if (input.cluster_width > 0 && round % 200 == 0) {
          const double time = now + 0.25;
          for (int i = 0; i < input.cluster_width; ++i) push(time);
        }
        const int pushes = static_cast<int>(rng.UniformInt(0, 8));
        for (int p = 0; p < pushes; ++p) push(input.draw(rng, now));
        const int64_t visit = rng.UniformInt(0, 16);
        ASSERT_EQ(prefix(calendar, visit), prefix(oracle, visit));
        const int pops =
            static_cast<int>(rng.UniformInt(0, oracle.size() / 2 + 1));
        for (int p = 0; p < pops && !oracle.empty(); ++p) {
          ASSERT_EQ(calendar.NextTime(), oracle.NextTime());
          const SimEvent want = oracle.PopNext();
          const SimEvent got = calendar.PopNext();
          ASSERT_EQ(got.time, want.time);
          ASSERT_EQ(got.sequence, want.sequence);
          now = want.time;
        }
        ASSERT_EQ(calendar.size(), oracle.size());
      }
      // Drain what's left: the tails must agree too.
      ASSERT_EQ(prefix(calendar, oracle.size()), prefix(oracle, oracle.size()));
      while (!oracle.empty()) {
        ASSERT_EQ(calendar.PopNext().sequence, oracle.PopNext().sequence);
      }
      EXPECT_TRUE(calendar.empty());
    }
  }
}

TEST(EventQueueTest, VisitInOrderIsSortedNonDestructiveAndStopsEarly) {
  EventQueue queue;
  Rng rng(99);
  for (int64_t sequence = 0; sequence < 200; ++sequence) {
    queue.Push(
        MakeEvent(0.5 * static_cast<double>(rng.UniformInt(0, 19)), sequence));
  }
  // Full visit: strictly increasing (time, sequence).
  std::vector<std::pair<double, int64_t>> visited;
  queue.VisitInOrder(1000, [&](const SimEvent& event) {
    visited.push_back({event.time, event.sequence});
    return EventQueue::VisitAction::kContinue;
  });
  ASSERT_EQ(visited.size(), 200u);
  for (size_t i = 1; i < visited.size(); ++i) {
    ASSERT_TRUE(visited[i - 1] < visited[i]);
  }
  // Early stop after 10: exactly the first 10 of the full visit.
  std::vector<std::pair<double, int64_t>> prefix;
  queue.VisitInOrder(1000, [&](const SimEvent& event) {
    prefix.push_back({event.time, event.sequence});
    return prefix.size() < 10 ? EventQueue::VisitAction::kContinue
                              : EventQueue::VisitAction::kStop;
  });
  ASSERT_EQ(prefix.size(), 10u);
  for (size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i], visited[i]);
  // max_visit caps the visit.
  int count = 0;
  queue.VisitInOrder(7, [&](const SimEvent&) {
    ++count;
    return EventQueue::VisitAction::kContinue;
  });
  EXPECT_EQ(count, 7);
  // Non-destructive: popping still yields the full sorted stream.
  EXPECT_EQ(queue.size(), 200);
  for (const auto& want : visited) {
    const SimEvent got = queue.PopNext();
    ASSERT_EQ(got.time, want.first);
    ASSERT_EQ(got.sequence, want.second);
  }
}

// Clear drops plain and compute events alike, and destroys their closures
// (and what they captured) rather than leaving them in the slab.
TEST(EventQueueTest, ClearEmptiesEveryKind) {
  EventQueue queue;
  const auto token = std::make_shared<int>(0);
  for (int64_t sequence = 0; sequence < 32; ++sequence) {
    SimEvent event = MakeEvent(static_cast<double>(sequence % 5), sequence);
    if (sequence % 2 == 0) {
      event.plain = [token] {};
    } else {
      event.worker_key = 0;
      event.compute = [token] { return 0.0; };
      event.commit = [token](double) {};
    }
    queue.Push(std::move(event));
  }
  EXPECT_GT(token.use_count(), 1);
  queue.Clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(token.use_count(), 1);
  // Still usable after Clear.
  queue.Push(MakeEvent(1.0, 100));
  EXPECT_EQ(queue.PopNext().sequence, 100);
}

// Schedules and drains enough events that the simulator's queue grows and
// recalibrates: its bucket count and width then differ from a fresh queue's.
void GrowAndDrain(EventSimulator& sim) {
  for (int i = 0; i < 5000; ++i) {
    sim.ScheduleAt(0.001 * static_cast<double>(i % 97), [] {});
  }
  sim.RunUntilIdle();
}

// SaveQueue from one queue layout, RestoreQueue into every layout (fresh,
// and grown then drained): the restored simulator must replay the exact event
// order of the original, tie-breaks included, because times AND sequence
// numbers round-trip bit-exactly.
TEST(EventQueueTest, SaveRestoreRoundTripsAcrossQueueKinds) {
  // A builder that makes each tagged plain event append its tag to `order`.
  const auto recording_builder = [](std::vector<int64_t>& order) {
    return [&order](SimEvent& event) {
      const int64_t tag = event.payload.tag;
      event.plain = [&order, tag] { order.push_back(tag); };
      return Status::Ok();
    };
  };
  for (const bool save_grown : {false, true}) {
    // Source run: tagged plain events with deliberate time ties.
    EventSimulator source;
    if (save_grown) GrowAndDrain(source);
    const double start = source.Now();
    std::vector<int64_t> source_order;
    source.set_builder(recording_builder(source_order));
    for (int64_t tag = 0; tag < 24; ++tag) {
      EventPayload payload;
      payload.tag = tag;
      const double time = start + static_cast<double>((tag * 7) % 5);
      source.Schedule(time, kNoWorkerKey, std::move(payload));
    }
    const auto saved = source.SaveQueue();
    ASSERT_TRUE(saved.ok()) << save_grown;
    ASSERT_EQ(saved->size(), 24u);
    const int64_t next_sequence = source.next_sequence();
    source.RunUntilIdle();
    ASSERT_EQ(source_order.size(), 24u);

    for (const bool restore_grown : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "saved grown " << save_grown
                                        << ", restored grown "
                                        << restore_grown);
      EventSimulator restored;
      if (restore_grown) GrowAndDrain(restored);
      std::vector<int64_t> restored_order;
      restored.set_builder(recording_builder(restored_order));
      const Status status = restored.RestoreQueue(start, next_sequence,
                                                  /*processed=*/0, *saved);
      ASSERT_TRUE(status.ok()) << status.ToString();
      restored.RunUntilIdle();
      EXPECT_EQ(restored_order, source_order);
    }
  }
}

// Counts every copy and move of an event closure's captured state. Both
// constructors are noexcept, so SmallFn stores the closure inline, where
// every relocation runs one of them.
struct CountedCapture {
  explicit CountedCapture(int64_t* counter) : moves(counter) {}
  CountedCapture(const CountedCapture& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  CountedCapture(CountedCapture&& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  CountedCapture& operator=(const CountedCapture&) = delete;
  int64_t* moves;
};

// Closure copies and moves per event when `width` events share one time:
// all are scheduled, then all run.
double ClosureMovesPerEventInCluster(int width) {
  int64_t moves = 0;
  int fired = 0;
  EventSimulator sim;
  CountedCapture capture(&moves);
  for (int i = 0; i < width; ++i) {
    sim.ScheduleAt(1.0, [capture, &fired] { ++fired; });
  }
  sim.RunUntilIdle();
  NETMAX_CHECK_EQ(fired, width);
  return static_cast<double>(moves) / static_cast<double>(width);
}

// A pending closure never moves: scheduling and running an event costs a
// fixed handful of closure moves (capture, into the event, into the slab,
// out of it) whatever the width of the equal-time cluster it joins. A queue
// that shifts whole events to insert each tie pays O(width) per event.
TEST(EventQueueTest, EqualTimeClusterMovesEachClosureAFixedNumberOfTimes) {
  constexpr double kMaxMovesPerEvent = 8.0;
  for (const int width : {64, 4096}) {
    EXPECT_LE(ClosureMovesPerEventInCluster(width), kMaxMovesPerEvent)
        << "width " << width;
  }
}

// The zero-alloc discipline, simulator-core edition: a steady-state
// self-rescheduling workload (every pop schedules one replacement whose
// captures fit SmallFn's inline storage) must reach a state where a full
// measurement window performs no heap allocation. Storage is grow-only, but
// the per-bucket key vectors can still hit record occupancies deep into a
// run, so warm-up continues until a whole window is clean rather than for a
// fixed count — the workload is deterministic, so the test is stable.
TEST(EventQueueTest, SteadyStateSchedulingIsAllocationFree) {
  struct Tick {
    EventSimulator* sim;
    const std::vector<double>* periods;
    void Fire(int worker) const {
      const Tick self = *this;
      sim->ScheduleAfter((*periods)[static_cast<size_t>(worker)],
                         [self, worker] { self.Fire(worker); });
    }
  };
  EventSimulator sim;
  constexpr int kWorkers = 64;
  std::vector<double> periods(kWorkers);
  Rng rng(4242);
  for (double& period : periods) period = rng.Uniform(0.5, 1.5);
  const Tick tick{&sim, &periods};
  for (int w = kWorkers - 1; w >= 0; --w) {
    const double phase = 1.0 + 0.01 * static_cast<double>(w);
    sim.ScheduleAt(phase, [tick, w] { tick.Fire(w); });
  }
  // Warm-up: grows the queue storage (slab, buckets and cursors) to its
  // steady-state footprint.
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(sim.Step());
  // Then require an entirely allocation-free window within a bounded number
  // of attempts.
  int64_t window_allocs = -1;
  for (int window = 0; window < 25; ++window) {
    const int64_t before = AllocationCount();
    for (int i = 0; i < 4000; ++i) ASSERT_TRUE(sim.Step());
    window_allocs = AllocationCount() - before;
    if (window_allocs == 0) break;
  }
  EXPECT_EQ(window_allocs, 0);
}

}  // namespace
}  // namespace netmax::net
