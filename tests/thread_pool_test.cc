#include "common/thread_pool.h"

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace netmax {
namespace {

// Submits `count` tasks that each bump `counter`, and waits for all of them.
void RunCountingTasks(ThreadPool& pool, int count, std::atomic<int>& counter) {
  std::vector<std::future<void>> done;
  for (int i = 0; i < count; ++i) {
    done.push_back(pool.Submit(
        std::packaged_task<void()>([&counter] { counter.fetch_add(1); })));
  }
  for (std::future<void>& future : done) future.wait();
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  RunCountingTasks(pool, 100, counter);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPreservesLiveness) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  RunCountingTasks(pool, 10, counter);
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  // With 4 threads, 4 tasks that wait on a shared barrier can only finish if
  // they run concurrently.
  ThreadPool pool(4);
  std::atomic<int> arrived{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 4; ++i) {
    done.push_back(pool.Submit(std::packaged_task<void()>([&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < 4) {
        // spin
      }
    })));
  }
  for (std::future<void>& future : done) future.wait();
  EXPECT_EQ(arrived.load(), 4);
}

TEST(ParallelForTest, IndexOverloadRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(pool, 100,
              [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, IndexOverloadIsReusableOnOnePool) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    ParallelFor(pool, 10, [&total](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ParallelForTest, IndexOverloadHandlesEdgeCounts) {
  ThreadPool pool(4);
  int zero_calls = 0;
  ParallelFor(pool, 0, [&zero_calls](int) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);
  int one_call = 0;
  ParallelFor(pool, 1, [&one_call](int i) {
    EXPECT_EQ(i, 0);
    ++one_call;
  });
  EXPECT_EQ(one_call, 1);
}

TEST(ParallelForTest, IndexOverloadWithMoreIndicesThanThreads) {
  // n >> threads forces every worker (including the caller) through the
  // claim loop repeatedly.
  ThreadPool pool(1);
  std::atomic<int64_t> sum{0};
  ParallelFor(pool, 1000, [&sum](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ParallelForTest, NestsOnTheSamePool) {
  // The sharded-gradient pattern: outer ParallelFor tasks (frontier compute
  // halves) each run an inner ParallelFor on the SAME pool. Caller
  // participation must keep every level live even with far more outer tasks
  // than threads.
  ThreadPool pool(3);
  constexpr int kOuter = 16;
  constexpr int kInner = 32;
  std::vector<std::atomic<int64_t>> sums(kOuter);
  ParallelFor(pool, kOuter, [&pool, &sums](int outer) {
    ParallelFor(pool, kInner, [&sums, outer](int inner) {
      sums[static_cast<size_t>(outer)].fetch_add(inner + 1);
    });
  });
  for (int outer = 0; outer < kOuter; ++outer) {
    EXPECT_EQ(sums[static_cast<size_t>(outer)].load(),
              kInner * (kInner + 1) / 2)
        << outer;
  }
}

TEST(ParallelForTest, NestsTwoLevelsDeepOnOneThread) {
  // Degenerate pool: a single worker thread plus caller participation must
  // still finish doubly nested loops (pure progress, no deadlock).
  ThreadPool pool(1);
  std::atomic<int64_t> total{0};
  ParallelFor(pool, 4, [&pool, &total](int) {
    ParallelFor(pool, 4, [&pool, &total](int) {
      ParallelFor(pool, 4, [&total](int) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(SubmitWaitableTest, FutureResolvesAfterTaskRuns) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  std::future<void> future = pool.Submit(
      std::packaged_task<void()>([&ran] { ran.store(true); }));
  future.wait();
  EXPECT_TRUE(ran.load());
}

TEST(SubmitWaitableTest, IndividualHandlesDoNotDrainTheWholePool) {
  // A waitable submission can be awaited while an unrelated slow task is
  // still running.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::future<void> slow = pool.Submit(std::packaged_task<void()>([&release] {
    while (!release.load()) {
      // spin until the end of the test
    }
  }));
  std::future<void> fast =
      pool.Submit(std::packaged_task<void()>([] {}));
  fast.wait();  // must not deadlock on the spinning task
  release.store(true);
  slow.wait();
}

TEST(SubmitWaitableTest, PropagatesExceptionsThroughTheFuture) {
  ThreadPool pool(1);
  std::future<void> future = pool.Submit(
      std::packaged_task<void()>([] { throw std::runtime_error("boom"); }));
  EXPECT_THROW(future.get(), std::runtime_error);
}

}  // namespace
}  // namespace netmax
