// Copyright 2026 MixQ-GNN Authors
#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mixq {

int NumThreads() {
  static const int kThreads = [] {
    if (const char* env = std::getenv("MIXQ_THREADS")) {
      int v = std::atoi(env);
      if (v <= 1) return 1;
      return std::min(v, 64);
    }
    unsigned hc = std::thread::hardware_concurrency();
    if (hc == 0) hc = 4;
    return static_cast<int>(std::min<unsigned>(hc, 16));
  }();
  return kThreads;
}

namespace {

// True while this thread is executing chunks of some ParallelFor — nested
// calls from inside a chunk (on any thread, pool worker or caller) must run
// serially: a participant that blocked on sub-chunks could deadlock the pool
// under concurrent load, and an unsuspecting nested caller would otherwise
// observe surprise parallelism.
thread_local bool in_parallel_region = false;

// How long the caller of a ParallelFor busy-waits for the last chunks of its
// loop before it sleeps on the batch's condition variable. A forward runs
// 5-7 loops of tens of microseconds each; a futex wake on each join would
// sit on the request's critical path, and a spin this short costs at most
// one such loop's worth of caller CPU when a worker is descheduled.
constexpr auto kJoinSpin = std::chrono::microseconds(50);

// One ParallelFor invocation. Participants (pool workers plus the caller)
// claim chunk indices from `next` until exhausted; the caller waits until
// every chunk has finished. Heap-allocated and shared so that a worker that
// dequeues the batch after the loop already completed touches valid memory.
struct Batch {
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  int64_t n = 0;
  int64_t chunk = 0;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  // Finished chunks. Each increment is a release, so a caller that reads
  // num_chunks here (acquire) sees every chunk's writes and `error`.
  std::atomic<int64_t> completed{0};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception, guarded by mu

  // Runs chunks until none are left. Exceptions are recorded, never leaked.
  void Participate() {
    struct RegionGuard {
      bool prev = in_parallel_region;
      RegionGuard() { in_parallel_region = true; }
      ~RegionGuard() { in_parallel_region = prev; }
    } region;
    for (;;) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const int64_t begin = c * chunk;
      const int64_t end = std::min(n, begin + chunk);
      if (begin < end) {
        try {
          (*fn)(begin, end);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // The caller re-checks `completed` under mu before it sleeps, so
        // notifying under mu cannot slip between its check and its wait.
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  bool Done() const {
    return completed.load(std::memory_order_acquire) == num_chunks;
  }

  // The caller's join: a bounded spin, then the condition variable.
  void Wait() {
    const auto deadline = std::chrono::steady_clock::now() + kJoinSpin;
    while (!Done()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::unique_lock<std::mutex> lock(mu);
        done_cv.wait(lock, [this] { return Done(); });
        return;
      }
    }
  }
};

// Pool workers block on a queue of batches and lend themselves to each one.
// There is no per-batch thread spawn: the pool is created on first parallel
// use and lives for the rest of the process.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool(NumThreads() - 1);
    return pool;
  }

  void Submit(const std::shared_ptr<Batch>& batch, int64_t copies) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;  // shutdown race: caller runs everything itself
      for (int64_t i = 0; i < copies; ++i) queue_.push_back(batch);
    }
    if (copies == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

 private:
  explicit ThreadPool(int num_workers) {
    workers_.reserve(static_cast<size_t>(std::max(num_workers, 0)));
    for (int i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
        if (stopped_ && queue_.empty()) return;
        batch = std::move(queue_.front());
        queue_.pop_front();
      }
      batch->Participate();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stopped_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain) {
  if (n <= 0) return;
  const int threads = NumThreads();
  // Serial fast paths: tiny loops, single-thread config, and nested calls
  // from inside a chunk of another ParallelFor (on any thread).
  if (threads <= 1 || n < 2 * grain || in_parallel_region) {
    fn(0, n);
    return;
  }
  // Several chunks per participant: concurrent ParallelFor calls (e.g. many
  // serving requests) interleave on the shared workers, so finer chunks keep
  // stragglers short. The even split is then rounded up to a whole number of
  // grains, so every chunk but the last starts and ends on a kernel's row
  // tile and none of them falls into a per-row remainder path. Chunk
  // geometry never affects results — every chunk is a disjoint [begin, end).
  const int64_t grains = (n + grain - 1) / grain;
  const int64_t max_chunks =
      std::min<int64_t>(static_cast<int64_t>(threads) * 4, grains);
  const int64_t grains_per_chunk = (grains + max_chunks - 1) / max_chunks;
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  batch->chunk = grains_per_chunk * grain;
  batch->num_chunks = (n + batch->chunk - 1) / batch->chunk;
  ThreadPool::Global().Submit(
      batch, std::min<int64_t>(threads - 1, batch->num_chunks - 1));
  batch->Participate();
  batch->Wait();
  // Moved out: a worker may still hold the batch after the join and drop its
  // last reference, and the exception object must be released here, on the
  // thread that catches it, not freed under the catcher on a worker.
  if (std::exception_ptr error = std::move(batch->error)) {
    std::rethrow_exception(error);
  }
}

}  // namespace mixq
