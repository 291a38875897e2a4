#include "net/event_sim.h"

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "common/thread_pool.h"

namespace netmax::net {
namespace {

TEST(EventSimTest, RunsEventsInTimeOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(EventSimTest, TiesBrokenByInsertionOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] { order.push_back(0); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(1.0, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventSimTest, ScheduleAfterIsRelative) {
  EventSimulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] {
    sim.ScheduleAfter(2.5, [&] { fired_at = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventSimTest, CallbackMaySpawnEvents) {
  EventSimulator sim;
  int count = 0;
  // A self-perpetuating chain of 10 events.
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) sim.ScheduleAfter(1.0, tick);
  };
  sim.ScheduleAt(0.0, tick);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.Now(), 9.0);
}

TEST(EventSimTest, StepReturnsFalseWhenEmpty) {
  EventSimulator sim;
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.empty());
}

TEST(EventSimTest, CountsProcessedEvents) {
  EventSimulator sim;
  for (int i = 0; i < 5; ++i) sim.ScheduleAt(static_cast<double>(i), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.num_events_processed(), 5);
}

TEST(EventSimTest, SchedulingIntoThePastDies) {
  EventSimulator sim;
  sim.ScheduleAt(5.0, [] {});
  sim.RunUntilIdle();
  EXPECT_DEATH({ sim.ScheduleAt(1.0, [] {}); }, "past");
}

TEST(EventSimTest, NegativeDelayDies) {
  EventSimulator sim;
  EXPECT_DEATH({ sim.ScheduleAfter(-1.0, [] {}); }, "Check failed");
}

// --- two-phase compute/commit events ----------------------------------------

TEST(ComputeEventTest, SerialDispatchRunsComputeThenCommit) {
  EventSimulator sim;
  std::vector<std::pair<char, double>> trace;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0,
      [&] {
        trace.push_back({'c', 0.0});
        return 42.0;
      },
      [&](double value) { trace.push_back({'k', value}); });
  sim.RunUntilIdle();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].first, 'c');
  EXPECT_EQ(trace[1].first, 'k');
  EXPECT_DOUBLE_EQ(trace[1].second, 42.0);
}

TEST(ExecutionBackendSeamTest, NoBackendMeansSerialAndNotifyIsANoOp) {
  // No pool is the serial backend: the compute half runs exactly once,
  // inline, nothing is speculated, and a notify has nothing to invalidate.
  EventSimulator sim;
  int compute_runs = 0;
  double committed = 0.0;
  sim.ScheduleCompute(
      1.0, 0,
      [&] {
        ++compute_runs;
        return 4.0;
      },
      [&](double value) {
        sim.NotifyStateWrite(0);  // must be harmless without a pool
        committed = value;
      });
  sim.RunUntilIdle();
  EXPECT_EQ(compute_runs, 1);
  EXPECT_DOUBLE_EQ(committed, 4.0);
  EXPECT_EQ(sim.execution_stats().computes_speculated, 0);
  EXPECT_EQ(sim.execution_stats().computes_redispatched, 0);
}

TEST(ComputeEventTest, CommitsRunInTimeSequenceOrderOnThePool) {
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  std::vector<int> commit_order;
  for (int key = 0; key < 8; ++key) {
    sim.ScheduleCompute(
        /*time=*/static_cast<double>(8 - key), key,
        [key] { return static_cast<double>(key); },
        [&commit_order](double value) {
          commit_order.push_back(static_cast<int>(value));
        });
  }
  sim.RunUntilIdle();
  // Scheduled in reverse time order: commits must come back time-sorted.
  EXPECT_EQ(commit_order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_GT(sim.execution_stats().computes_speculated, 0);
}

TEST(ComputeEventTest, SameKeyEventsSeeEachOthersCommitsInOrder) {
  // Adversarial interleaving: three compute events on the SAME worker key,
  // plus a distinct-key event in between. Each same-key compute reads state
  // its predecessor's commit wrote, so any speculation across the chain
  // would return stale values.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double state = 0.0;  // owned by key 0
  std::vector<double> seen;
  for (int i = 0; i < 3; ++i) {
    sim.ScheduleCompute(
        /*time=*/1.0 + i, /*worker_key=*/0, [&state] { return state; },
        [&sim, &state, &seen](double value) {
          seen.push_back(value);
          sim.NotifyStateWrite(0);
          state += 1.0;
        });
  }
  sim.ScheduleCompute(
      1.5, /*worker_key=*/1, [] { return -1.0; },
      [&seen](double value) { seen.push_back(value); });
  sim.RunUntilIdle();
  // Serial semantics: key-0 computes observe 0, then 1, then 2 commits.
  EXPECT_EQ(seen, (std::vector<double>{0.0, -1.0, 1.0, 2.0}));
}

TEST(ComputeEventTest, NotifyStateWriteInvalidatesStaleSpeculation) {
  // Event A (earlier) commits a write into the state event B's compute
  // reads. Both are speculated in one frontier; B's speculation is stale and
  // must be discarded and re-dispatched onto the pool (second pass) after
  // A's commit, observing A's write.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double shared_b_state = 1.0;  // owned by key 1
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(1);
        shared_b_state = 100.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [&] { return shared_b_state; },
      [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 100.0);
  EXPECT_EQ(sim.execution_stats().computes_speculated, 2);
  EXPECT_EQ(sim.execution_stats().computes_redispatched, 1);
}

TEST(ComputeEventTest, RedispatchedComputeInvalidatedAgainStaysOrdered) {
  // Double invalidation: two earlier commits both write the state event D's
  // compute reads. The first invalidation re-dispatches D's compute (reading
  // the first write); the second invalidation must wait out that in-flight
  // recompute, discard it, and re-dispatch again — D's commit sees exactly
  // the value a serial run would produce, after the SECOND write.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double state = 1.0;  // owned by key 3
  double d_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(3);
        state = 10.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(3);
        state = 20.0;
      });
  sim.ScheduleCompute(
      3.0, /*worker_key=*/2, [] { return 0.0; }, [](double) {});
  sim.ScheduleCompute(
      4.0, /*worker_key=*/3, [&] { return state; },
      [&](double value) { d_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(d_saw, 20.0);
  EXPECT_EQ(sim.execution_stats().computes_speculated, 4);
  // Once per invalidation.
  EXPECT_EQ(sim.execution_stats().computes_redispatched, 2);
}

TEST(ComputeEventTest, RedispatchWithinOneHandlerReadsPostHandlerState) {
  // The notify-before-write contract: a commit notifies BOTH its writes
  // before performing them, and the single re-dispatch (flushed after the
  // handler returns) must observe both — not the state mid-handler.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double b_state = 1.0;  // owned by key 1
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        sim.NotifyStateWrite(1);
        sim.NotifyStateWrite(1);  // duplicate notify in one handler
        b_state = 5.0;
        b_state += 2.0;
      });
  sim.ScheduleCompute(
      2.0, /*worker_key=*/1, [&] { return b_state; },
      [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 7.0);
  EXPECT_EQ(sim.execution_stats().computes_redispatched, 1);  // deduplicated
}

TEST(ComputeEventTest, PlainEventsInterleaveAtExactPositions) {
  ThreadPool pool(2);
  EventSimulator sim;
  sim.set_pool(&pool);
  std::vector<int> order;
  sim.ScheduleCompute(
      1.0, 0, [] { return 1.0; },
      [&](double v) { order.push_back(static_cast<int>(v)); });
  sim.ScheduleAt(1.5, [&] { order.push_back(15); });
  sim.ScheduleCompute(
      2.0, 1, [] { return 2.0; },
      [&](double v) { order.push_back(static_cast<int>(v)); });
  sim.ScheduleAt(2.5, [&] { order.push_back(25); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 15, 2, 25}));
}

TEST(ComputeEventTest, CommitMayScheduleEarlierThanLaterFrontierMembers) {
  // A's commit (t=1) schedules a plain event at t=1.5 that writes state read
  // by B's compute (t=2), while B is already speculated. The new event must
  // run before B's commit and invalidate B's speculation.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double b_state = 1.0;
  double b_saw = 0.0;
  sim.ScheduleCompute(
      1.0, 0, [] { return 0.0; },
      [&](double) {
        sim.ScheduleAfter(0.5, [&] {
          sim.NotifyStateWrite(1);
          b_state = 7.0;
        });
      });
  sim.ScheduleCompute(
      2.0, 1, [&] { return b_state; }, [&](double value) { b_saw = value; });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(b_saw, 7.0);
}

TEST(ComputeEventTest, HaltMidFrontierDiscardsPooledWork) {
  // The first frontier member's commit invalidates a later member (queueing
  // a re-dispatch) and requests a halt: the run stops after that commit, the
  // pooled re-dispatch is waited out, and nothing else commits.
  ThreadPool pool(4);
  EventSimulator sim;
  sim.set_pool(&pool);
  double state = 1.0;  // owned by key 2
  std::vector<int> committed;
  sim.ScheduleCompute(
      1.0, /*worker_key=*/0, [] { return 0.0; },
      [&](double) {
        committed.push_back(0);
        sim.NotifyStateWrite(2);
        state = 2.0;
        sim.RequestHalt();
      });
  for (int key = 1; key < 3; ++key) {
    sim.ScheduleCompute(
        1.0 + key, key, [&state] { return state; },
        [&committed, key](double) { committed.push_back(key); });
  }
  EXPECT_EQ(sim.RunUntilIdle(), 1);
  EXPECT_EQ(committed, (std::vector<int>{0}));
  EXPECT_TRUE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);
  EXPECT_EQ(sim.execution_stats().computes_speculated, 3);
  EXPECT_EQ(sim.execution_stats().computes_redispatched, 1);
}

struct ChainedRun {
  std::vector<double> trace;
  ExecutionStats stats;
};

// A mini workload: per-key chains whose commits couple neighboring keys
// (like consensus pulls), with key 1 a straggler. Returns the commit trace
// and the dispatch counters; `pool` may be null (inline dispatch).
ChainedRun RunChainedWorkload(ThreadPool* pool) {
  EventSimulator sim;
  sim.set_pool(pool);
  std::vector<double> state(4, 1.0);
  ChainedRun run;
  std::function<void(int, int)> chain = [&](int key, int remaining) {
    if (remaining == 0) return;
    sim.ScheduleCompute(
        sim.Now() + 0.5 + 0.25 * key, key,
        [&state, key] {
          std::this_thread::sleep_for(
              std::chrono::microseconds(key == 1 ? 500 : 50));
          return state[static_cast<size_t>(key)] * 3.0;
        },
        [&, key, remaining](double value) {
          run.trace.push_back(value);
          const int peer = (key + 1) % 4;
          sim.NotifyStateWrite(key);
          sim.NotifyStateWrite(peer);
          state[static_cast<size_t>(key)] =
              0.5 * (value + state[static_cast<size_t>(peer)]);
          state[static_cast<size_t>(peer)] += 0.125;
          chain(key, remaining - 1);
        });
  };
  for (int key = 0; key < 4; ++key) chain(key, 6);
  sim.RunUntilIdle();
  run.stats = sim.execution_stats();
  return run;
}

TEST(ComputeEventTest, ChainedComputeEventsMatchSerialBits) {
  // The event trace must be identical with and without a pool.
  const std::vector<double> serial = RunChainedWorkload(nullptr).trace;
  ThreadPool pool(4);
  const std::vector<double> parallel = RunChainedWorkload(&pool).trace;
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(ExecutionBackendDeterminismTest, AllBackendsProduceTheSerialTrace) {
  // Inline dispatch is the reference; speculative dispatch on pools of every
  // size must reproduce it bit for bit, resolving every invalidation by a
  // re-dispatch rather than an inline recompute.
  const ChainedRun reference = RunChainedWorkload(nullptr);
  EXPECT_EQ(reference.stats.computes_speculated, 0);
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const ChainedRun run = RunChainedWorkload(&pool);
    ASSERT_EQ(run.trace.size(), reference.trace.size()) << threads;
    for (size_t i = 0; i < run.trace.size(); ++i) {
      EXPECT_EQ(run.trace[i], reference.trace[i])
          << threads << "[" << i << "]";
    }
    EXPECT_GT(run.stats.computes_speculated, 0) << threads;
  }
}

// --- described events (Schedule / SaveQueue / RestoreQueue) ----------------

// A builder that gives tag 0 a plain callback recording its time, tag 1 a
// compute/commit pair, and tag 2 the wrong closure shape; any other tag is
// rejected.
EventBuilder TestBuilder(std::vector<double>& fired_at, EventSimulator& sim) {
  return [&fired_at, &sim](SimEvent& event) {
    switch (event.payload.tag) {
      case 0:
        event.plain = [&fired_at, &sim] { fired_at.push_back(sim.Now()); };
        return Status::Ok();
      case 1:
        event.compute = [] { return 1.0; };
        event.commit = [&fired_at, &sim](double) {
          fired_at.push_back(sim.Now());
        };
        return Status::Ok();
      case 2:
        event.compute = [] { return 1.0; };  // no commit
        return Status::Ok();
      default:
        return InvalidArgumentError("unknown tag " +
                                    std::to_string(event.payload.tag));
    }
  };
}

TEST(DescribedEventTest, ScheduleSaveAndRestoreReplayTheSameEvents) {
  std::vector<double> fired_at;
  EventSimulator source;
  source.set_builder(TestBuilder(fired_at, source));
  source.Schedule(2.0, kNoWorkerKey, {0, {}});
  source.Schedule(1.0, /*worker_key=*/3, {1, {}});
  StatusOr<std::vector<SimEvent>> saved = source.SaveQueue();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->size(), 2u);
  EXPECT_EQ((*saved)[0].worker_key, 3);  // dispatch order
  EXPECT_TRUE((*saved)[0].compute == nullptr);  // descriptions: no closures
  source.RunUntilIdle();
  EXPECT_EQ(fired_at, (std::vector<double>{1.0, 2.0}));

  std::vector<double> restored_at;
  EventSimulator restored;
  restored.set_builder(TestBuilder(restored_at, restored));
  NETMAX_EXPECT_OK(restored.RestoreQueue(0.5, source.next_sequence(),
                                         /*processed=*/0, *saved));
  EXPECT_EQ(restored.Now(), 0.5);
  restored.RunUntilIdle();
  EXPECT_EQ(restored_at, fired_at);
}

TEST(DescribedEventTest, RestoreQueueRejectsBadDescriptionsAndStaysEmpty) {
  std::vector<double> fired_at;
  EventSimulator sim;
  sim.set_builder(TestBuilder(fired_at, sim));
  const auto restore = [&sim](int64_t tag, int worker_key, double time) {
    SimEvent event;
    event.time = time;
    event.sequence = 0;
    event.worker_key = worker_key;
    event.payload.tag = tag;
    std::vector<SimEvent> events;
    events.push_back(std::move(event));
    return sim.RestoreQueue(1.0, /*next_sequence=*/1, /*processed=*/0,
                            std::move(events));
  };
  // The builder's own rejection, a closure set that does not match the
  // worker key (either way), and a description the clock has passed.
  EXPECT_EQ(restore(9, kNoWorkerKey, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(restore(2, 0, 1.0).code(), StatusCode::kInternal);
  EXPECT_EQ(restore(0, 0, 1.0).code(), StatusCode::kInternal);
  EXPECT_EQ(restore(0, kNoWorkerKey, 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(sim.empty());
  NETMAX_EXPECT_OK(restore(0, kNoWorkerKey, 1.0));
  EXPECT_FALSE(sim.empty());
}

TEST(DescribedEventTest, ScheduleDiesWhenTheBuilderRejectsThePayload) {
  std::vector<double> fired_at;
  EventSimulator sim;
  sim.set_builder(TestBuilder(fired_at, sim));
  EXPECT_DEATH({ sim.Schedule(1.0, kNoWorkerKey, {9, {}}); }, "event tag 9");
}

TEST(ComputeEventTest, NegativeWorkerKeyDies) {
  EventSimulator sim;
  EXPECT_DEATH(
      {
        sim.ScheduleCompute(
            1.0, -1, [] { return 0.0; }, [](double) {});
      },
      "worker_key");
}

}  // namespace
}  // namespace netmax::net
