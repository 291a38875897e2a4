#include "common/thread_pool.h"

#include <atomic>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace netmax {

ThreadPool::ThreadPool(int num_threads) {
  NETMAX_CHECK_GE(num_threads, 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    NETMAX_CHECK(!shutting_down_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

std::future<void> ThreadPool::Submit(std::packaged_task<void()> task) {
  // std::function requires copyable targets, so the move-only packaged_task
  // rides in a shared_ptr.
  auto boxed = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> future = boxed->get_future();
  Submit([boxed] { (*boxed)(); });
  return future;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutting_down_ and no work left.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared state of one index-range ParallelFor call. Helpers claim indices
// from `next` and count finished calls in `completed`; the owner blocks on
// `cv` until completed == total. Kept alive by shared_ptr so a helper that
// loses the race for the last index may still touch it after the owner
// returned.
struct ParallelForState {
  explicit ParallelForState(int n, const std::function<void(int)>& f)
      : total(n), fn(&f) {}
  const int total;
  const std::function<void(int)>* fn;  // owner outlives all fn calls
  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::mutex mu;
  std::condition_variable cv;
};

void ClaimLoop(const std::shared_ptr<ParallelForState>& state) {
  while (true) {
    const int i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->total) return;
    (*state->fn)(i);
    if (state->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->total) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

void ParallelFor(ThreadPool& pool, int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  auto state = std::make_shared<ParallelForState>(n, fn);
  const int helpers = std::min(pool.num_threads(), n - 1);
  for (int h = 0; h < helpers; ++h) {
    pool.Submit([state] { ClaimLoop(state); });
  }
  ClaimLoop(state);  // the caller works too
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == n;
  });
}

}  // namespace netmax
