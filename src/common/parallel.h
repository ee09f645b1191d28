// Copyright 2026 MixQ-GNN Authors
// Data-parallel loop utility backed by a persistent thread pool. The dense
// GEMM and sparse SpMM kernels dominate training cost, and per-request kernel
// launches dominate small-graph serving latency — so workers are spawned once
// per process and reused, instead of std::thread-per-call.
#pragma once

#include <cstdint>
#include <functional>

namespace mixq {

/// Number of participants (pool workers + the calling thread) used by
/// ParallelFor. Defaults to std::thread::hardware_concurrency(), clamped to
/// [1, 16]. Override with the MIXQ_THREADS environment variable: values 0/1
/// disable parallelism entirely (no pool threads are ever started), larger
/// values are clamped to 64. Read once at first use.
int NumThreads();

/// Runs fn(begin, end) over disjoint chunks of [0, n) on the persistent pool;
/// the calling thread participates, so NumThreads()==1 or n < 2 * grain
/// degrade to a serial call. `grain` (>= 1) is the chunk quantum: every
/// chunk but the last is a whole multiple of `grain` long, so a kernel that
/// passes its row-tile height (or a multiple of it) never sees a partial
/// tile except at the very end of [0, n).
///
/// Safe to call concurrently from many threads (chunks from concurrent loops
/// interleave on the shared workers) and reentrantly from inside a chunk
/// (nested calls run serially on the calling worker). If one or more chunks
/// throw, every remaining chunk still runs and the first exception is
/// rethrown on the calling thread once the loop is complete — a throwing
/// worker no longer brings the process down via std::terminate.
///
/// The join: a caller that runs out of chunks while workers still run theirs
/// busy-waits for at most a few tens of microseconds, then sleeps on a
/// condition variable, so a small loop's join costs no futex wake. Pool
/// workers never spin: between loops they sleep on the pool's queue, and the
/// CPU they would burn belongs to the other requests of a busy server.
void ParallelFor(int64_t n, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain = 1024);

}  // namespace mixq
