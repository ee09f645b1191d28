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

using Body = std::function<void(int64_t, int64_t)>;

// True while this thread is executing chunks of some sequence — nested
// calls from inside a chunk (on any thread, pool worker or caller) must run
// serially: a participant that blocked on sub-chunks could deadlock the pool
// under concurrent load, and an unsuspecting nested caller would otherwise
// observe surprise parallelism.
thread_local bool in_parallel_region = false;

struct RegionGuard {
  bool prev = in_parallel_region;
  RegionGuard() { in_parallel_region = true; }
  ~RegionGuard() { in_parallel_region = prev; }
};

// How long a participant busy-waits for the last chunks of a loop before it
// sleeps on the sequence's condition variable. A forward's loops run tens of
// microseconds each; a futex wake between two of them would sit on the
// request's critical path, and a spin this short costs at most one such
// loop's worth of CPU when a chunk's thread is descheduled.
constexpr auto kWaitSpin = std::chrono::microseconds(50);

std::atomic<int64_t> pool_wakes{0};

// One iteration of a busy-wait: tells the core this thread is spinning, so
// it yields execution resources to a hyperthread sibling that may be the
// one running the awaited chunk.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// One loop's chunk geometry and progress.
struct LoopState {
  const Body* body = nullptr;
  int64_t n = 0;
  int64_t chunk = 0;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  // Finished chunks. Each increment is a release, and the chunk that
  // completes the loop publishes it through Sequence::open, so a participant
  // that sees the loop done sees every chunk's writes.
  std::atomic<int64_t> completed{0};
};

// Several chunks per participant: concurrent sequences (e.g. many serving
// requests) interleave on the shared workers, so finer chunks keep
// stragglers short. The even split is then rounded up to a whole number of
// grains, so every chunk but the last starts and ends on a kernel's row tile
// and none of them falls into a per-row remainder path. Chunk geometry never
// affects results — every chunk is a disjoint [begin, end).
int64_t ChunkLength(int64_t n, int64_t grain, int threads) {
  grain = std::max<int64_t>(grain, 1);
  if (threads <= 1 || n < 2 * grain) return n;
  const int64_t grains = (n + grain - 1) / grain;
  const int64_t max_chunks =
      std::min<int64_t>(static_cast<int64_t>(threads) * 4, grains);
  return (grains + max_chunks - 1) / max_chunks * grain;
}

// One ParallelSequence invocation. Participants (pool workers plus the
// caller) claim chunks of loop `open` until they run out, then wait for the
// loop to complete. Heap-allocated and shared so that a worker that dequeues
// the sequence after it already finished touches valid memory: it reads only
// the loop states here, never a body of a finished loop.
struct Sequence {
  std::unique_ptr<LoopState[]> loops;
  size_t num_loops = 0;
  // Index of the first loop not yet complete; loops complete in order, and
  // only the chunk that completes loop i advances it (to i + 1).
  std::atomic<size_t> open{0};
  // Set (before the failing chunk counts itself done) when a chunk threw:
  // no later loop starts.
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // first exception, guarded by mu

  // Runs chunks of every remaining loop, in order. Exceptions are recorded,
  // never leaked. A worker has nothing to wait for once it runs out of
  // chunks of the last loop and goes back to the queue; the caller waits
  // for every loop it entered, so no chunk runs once it has returned.
  void Participate(bool caller) {
    RegionGuard region;
    for (size_t i = open.load(std::memory_order_acquire); i < num_loops; ++i) {
      if (failed.load(std::memory_order_relaxed)) return;
      RunChunks(i);
      if (!caller && i + 1 == num_loops) return;
      WaitPast(i);
    }
  }

  void RunChunks(size_t i) {
    LoopState& l = loops[i];
    for (;;) {
      const int64_t c = l.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= l.num_chunks) return;
      const int64_t begin = c * l.chunk;
      const int64_t end = std::min(l.n, begin + l.chunk);
      try {
        (*l.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      if (l.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == l.num_chunks) {
        open.store(i + 1, std::memory_order_release);
        // A sleeper re-checks `open` under mu before it waits, so notifying
        // under mu cannot slip between its check and its wait.
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  bool Past(size_t i) const { return open.load(std::memory_order_acquire) > i; }

  // The one join rule: a bounded spin, then the condition variable.
  void WaitPast(size_t i) {
    const auto deadline = std::chrono::steady_clock::now() + kWaitSpin;
    while (!Past(i)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::unique_lock<std::mutex> lock(mu);
        done_cv.wait(lock, [this, i] { return Past(i); });
        return;
      }
      CpuRelax();
    }
  }
};

// Pool workers block on a queue of sequences and lend themselves to each
// one. There is no per-call thread spawn: the pool is created on first
// parallel use and lives for the rest of the process.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool(NumThreads() - 1);
    return pool;
  }

  void Submit(const std::shared_ptr<Sequence>& seq, int64_t copies) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;  // shutdown race: caller runs everything itself
      for (int64_t i = 0; i < copies; ++i) queue_.push_back(seq);
    }
    pool_wakes.fetch_add(1, std::memory_order_relaxed);
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
      std::shared_ptr<Sequence> seq;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
        if (stopped_ && queue_.empty()) return;
        seq = std::move(queue_.front());
        queue_.pop_front();
      }
      seq->Participate(/*caller=*/false);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Sequence>> queue_;
  bool stopped_ = false;
  std::vector<std::thread> workers_;
};

struct LoopRef {
  int64_t n;
  int64_t grain;
  const Body* body;
};

// The sequence behind both entry points; loops with n <= 0 are dropped by
// the callers.
void RunSequence(const LoopRef* refs, size_t count) {
  const int threads = in_parallel_region ? 1 : NumThreads();
  int64_t max_chunks = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t chunk = ChunkLength(refs[i].n, refs[i].grain, threads);
    max_chunks = std::max(max_chunks, (refs[i].n + chunk - 1) / chunk);
  }
  // Serial: single-thread config, nested calls from inside a chunk (on any
  // thread), and sequences of one-chunk loops. Their bodies still run inside
  // a region, so a kernel called from one does not start a loop of its own.
  if (max_chunks <= 1) {
    RegionGuard region;
    for (size_t i = 0; i < count; ++i) (*refs[i].body)(0, refs[i].n);
    return;
  }
  auto seq = std::make_shared<Sequence>();
  seq->loops.reset(new LoopState[count]);
  seq->num_loops = count;
  for (size_t i = 0; i < count; ++i) {
    LoopState& l = seq->loops[i];
    l.body = refs[i].body;
    l.n = refs[i].n;
    l.chunk = ChunkLength(l.n, refs[i].grain, threads);
    l.num_chunks = (l.n + l.chunk - 1) / l.chunk;
  }
  ThreadPool::Global().Submit(seq, std::min<int64_t>(threads - 1, max_chunks - 1));
  seq->Participate(/*caller=*/true);
  // Moved out: a worker may still hold the sequence after the caller is done
  // and drop its last reference, and the exception object must be released
  // here, on the thread that catches it, not freed under the catcher on a
  // worker. The failing chunk stored it under mu before its loop completed,
  // which the caller has observed.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(seq->mu);
    error = std::move(seq->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

void ParallelSequence(const std::vector<ParallelLoop>& loops) {
  std::vector<LoopRef> refs;
  refs.reserve(loops.size());
  for (const ParallelLoop& l : loops) {
    if (l.n > 0) refs.push_back({l.n, l.grain, &l.body});
  }
  if (!refs.empty()) RunSequence(refs.data(), refs.size());
}

void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain) {
  if (n <= 0) return;
  const LoopRef ref{n, grain, &fn};
  RunSequence(&ref, 1);
}

int64_t PoolWakes() { return pool_wakes.load(std::memory_order_relaxed); }

}  // namespace mixq
