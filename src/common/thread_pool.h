#ifndef NETMAX_COMMON_THREAD_POOL_H_
#define NETMAX_COMMON_THREAD_POOL_H_

// Fixed-size worker pool shared by the parallel simulation runtime and the
// benchmark harnesses. The event simulator dispatches compute phases of its
// two-phase compute/commit events onto a pool (net/event_sim.h), the policy
// generator fans its (rho, t_bar) grid search out on the same pool, and the
// benches run independent experiment configurations in parallel. Virtual-time
// ordering stays deterministic: only pure per-worker compute runs here.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace netmax {

class ThreadPool {
 public:
  // Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains outstanding work, then joins all workers.
  ~ThreadPool();

  // Enqueues `task` for execution. Must not be called after the destructor
  // has begun.
  void Submit(std::function<void()> task);

  // Waitable overload: enqueues `task` and returns the future of its
  // completion, so one submission can be awaited without draining the whole
  // pool.
  std::future<void> Submit(std::packaged_task<void()> task);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

// Runs fn(0) .. fn(n-1) on `pool` and returns once all n calls have
// finished, without materializing one std::function per index. The calling
// thread participates in the work (a pool of T threads executes with T+1
// workers), so the call makes progress even when the pool is busy. Only this
// call's indices are awaited — concurrent unrelated Submits on the same pool
// are untouched.
//
// Nesting on the same pool is safe — a pool task may itself call ParallelFor
// (the event simulator's sharded gradient evaluation does exactly that,
// inside frontier compute halves and second-pass re-dispatches): caller
// participation guarantees progress with every helper queued behind a busy
// pool, and the wait can only be on indices claimed by threads actively
// executing them. The one requirement is that `fn` never blocks on pool work
// other than a nested ParallelFor of its own — a task that waits on an
// unsubmitted/unclaimed future would reintroduce the deadlock the
// participation rule removes.
void ParallelFor(ThreadPool& pool, int n, const std::function<void(int)>& fn);

}  // namespace netmax

#endif  // NETMAX_COMMON_THREAD_POOL_H_
