// Copyright 2026 MixQ-GNN Authors
// Data-parallel loops backed by a persistent thread pool. The dense GEMM and
// sparse SpMM kernels dominate training cost, and per-request kernel
// launches dominate small-graph serving latency — so workers are spawned once
// per process and reused, instead of std::thread-per-call.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace mixq {

/// Number of participants (pool workers + the calling thread) used by
/// ParallelFor. Defaults to std::thread::hardware_concurrency(), clamped to
/// [1, 16]. Override with the MIXQ_THREADS environment variable: values 0/1
/// disable parallelism entirely (no pool threads are ever started), larger
/// values are clamped to 64. Read once at first use.
int NumThreads();

/// One loop of a ParallelSequence: body(begin, end) over disjoint chunks of
/// [0, n). `grain` (>= 1) is the chunk quantum: every chunk but the last is
/// a whole multiple of `grain` long, so a kernel that passes its row-tile
/// height (or a multiple of it) never sees a partial tile except at the
/// very end of [0, n). A loop with n < 2 * grain is one chunk.
struct ParallelLoop {
  int64_t n = 0;
  int64_t grain = 1;
  std::function<void(int64_t, int64_t)> body;
};

/// Runs `loops` in order on the persistent pool, waking its workers once
/// for the whole sequence (the OpenMP pattern of one parallel region around
/// many work-shared loops). Every participant — the caller, and each worker
/// that has woken by then — claims chunks of loop i, then waits until all
/// of loop i's chunks have finished before it moves on to loop i + 1, so
/// each loop sees every write of the loops before it. A worker that wakes
/// late starts at the first unfinished loop; no participant count is fixed
/// in advance, and a sequence that finds every worker busy runs on the
/// caller alone. When every loop is one chunk no worker is woken at all.
///
/// The wait between loops is a bounded spin, then the sequence's condition
/// variable. Workers do not spin between sequences: they sleep on the
/// pool's queue.
///
/// Safe to call concurrently from many threads (chunks from concurrent
/// sequences interleave on the shared workers) and reentrantly from inside a
/// chunk (nested sequences and loops run serially on the calling thread;
/// so do the chunks of a sequence that runs on the caller alone). If chunks
/// of loop i throw, every remaining chunk of loop i still runs, no later
/// loop's body runs, and the first exception is rethrown on the calling
/// thread — a throwing worker never brings the process down.
void ParallelSequence(const std::vector<ParallelLoop>& loops);

/// The one-loop ParallelSequence: runs fn(begin, end) over disjoint chunks
/// of [0, n) with the chunk quantum `grain`; NumThreads()==1 or
/// n < 2 * grain degrade to one serial call.
void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain = 1024);

/// Work (multiply-adds, or elements of an elementwise pass) below which a
/// loop that runs alone — one pool wake for one loop — is cheaper as one
/// chunk on its caller. Fitted to bench/kernels_micro's BM_Layer* loops,
/// one chunk vs split on 4 threads (DESIGN.md §2, "The work threshold").
/// Inside a sequence the workers are awake already and a split won at
/// every measured size, so a forward's loops do not use it.
inline constexpr int64_t kParallelMinWork = 1 << 14;

/// `grain`, or a grain that makes the loop one chunk when its total `work`
/// is below kParallelMinWork.
inline int64_t WorkGrain(int64_t n, int64_t grain, int64_t work) {
  return work < kParallelMinWork && n > grain ? n : grain;
}

/// How many times a caller has woken pool workers since the process
/// started: one per sequence (or ParallelFor) that ran on more than one
/// chunk with workers to help. A relaxed counter, for tests and benches.
int64_t PoolWakes();

}  // namespace mixq
