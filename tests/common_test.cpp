// Copyright 2026 MixQ-GNN Authors
// Unit tests for src/common: Status/Result, RNG, statistics, parallelism,
// the bounded MPMC admission queue, and the lock-free latency histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/latency_histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace mixq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad bits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad bits");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad bits");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded), "DeadlineExceeded");
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = r.MoveValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.Uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, PowerLawBounds) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t k = rng.PowerLaw(2.5, 50);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 50);
  }
}

TEST(RngTest, PowerLawIsHeavyTailed) {
  Rng rng(9);
  int64_t ones = 0, big = 0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t k = rng.PowerLaw(2.2, 1000);
    if (k == 1) ++ones;
    if (k >= 10) ++big;
  }
  EXPECT_GT(ones, 2000);  // mass concentrated at small degrees
  EXPECT_GT(big, 20);     // but a real tail exists
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 40);
  std::set<int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(w), 1u);
}

TEST(SplitMixTest, DeterministicSequence) {
  uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
}

TEST(StatsTest, MeanAndStd) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_NEAR(StdDev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> yneg = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, yneg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, SpearmanMonotoneNonlinear) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, RanksHandleTies) {
  auto r = Ranks({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(StatsTest, PercentileEndpointsAndMedian) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 25), 2.5);
}

TEST(StatsTest, ParetoFrontExtractsNonDominated) {
  std::vector<ParetoPoint> pts = {
      {1.0, 0.5, 0}, {2.0, 0.7, 1}, {2.0, 0.6, 2}, {3.0, 0.65, 3}, {4.0, 0.9, 4}};
  auto front = ParetoFront(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].tag, 0);
  EXPECT_EQ(front[1].tag, 1);
  EXPECT_EQ(front[2].tag, 4);
}

TEST(StatsTest, ParetoFrontSingleton) {
  auto front = ParetoFront({{1.0, 1.0, 7}});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].tag, 7);
}

TEST(ParallelTest, CoversFullRange) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  }, /*grain=*/16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyAndSmallRanges) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(5, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 10);
}

// The partition contract: the chunks tile [0, n) exactly once, and every
// chunk but the last is a whole number of grains long, so a kernel that
// passes its row-tile height as the grain meets a partial tile only at the
// end of the range.
TEST(ParallelTest, ChunksAreWholeGrainsExceptTheLast) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  for (int64_t grain : {1, 4, 16, 64, 4096}) {
    for (int64_t n = 1; n <= 5000; ++n) {
      chunks.clear();
      ParallelFor(
          n,
          [&](int64_t b, int64_t e) {
            std::lock_guard<std::mutex> lock(mu);
            chunks.emplace_back(b, e);
          },
          grain);
      std::sort(chunks.begin(), chunks.end());
      bool ok = !chunks.empty() && chunks.front().first == 0 &&
                chunks.back().second == n;
      for (size_t i = 0; ok && i < chunks.size(); ++i) {
        const int64_t len = chunks[i].second - chunks[i].first;
        ok = len > 0 && (i == 0 || chunks[i].first == chunks[i - 1].second) &&
             (i + 1 == chunks.size() || len % grain == 0);
      }
      if (!ok) {
        std::string got;
        for (const auto& c : chunks) {
          got += " [" + std::to_string(c.first) + "," + std::to_string(c.second) + ")";
        }
        ADD_FAILURE() << "n=" << n << " grain=" << grain << " chunks:" << got;
        return;
      }
    }
  }
}

// Regression: a throw inside a worker chunk used to escape a std::thread and
// std::terminate the process. It must now surface on the calling thread.
TEST(ParallelTest, PropagatesWorkerExceptions) {
  // The chunk containing index 42 throws — whichever worker (or the serial
  // fallback) ends up running it.
  EXPECT_THROW(
      ParallelFor(
          1000,
          [](int64_t b, int64_t e) {
            if (b <= 42 && 42 < e) throw std::runtime_error("worker chunk failed");
          },
          /*grain=*/16),
      std::runtime_error);
  // Every chunk still runs: siblings of the throwing chunk are not skipped.
  std::vector<std::atomic<int>> hits(1000);
  try {
    ParallelFor(
        1000,
        [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
          throw std::runtime_error("every chunk throws");
        },
        /*grain=*/16);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error&) {
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool survives a throwing loop and keeps serving.
  std::atomic<int64_t> sum{0};
  ParallelFor(
      1000, [&](int64_t b, int64_t e) { sum += e - b; }, /*grain=*/16);
  EXPECT_EQ(sum.load(), 1000);
}

// The persistent pool must tolerate concurrent ParallelFor calls from many
// request threads (the serving engine's usage pattern) and nested calls from
// inside a chunk (which degrade to serial).
TEST(ParallelTest, ConcurrentAndNestedLoops) {
  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  std::vector<int64_t> sums(kCallers, 0);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int iter = 0; iter < 20; ++iter) {
        std::atomic<int64_t> sum{0};
        ParallelFor(
            2000,
            [&](int64_t b, int64_t e) {
              int64_t local = 0;
              ParallelFor(
                  e - b, [&](int64_t ib, int64_t ie) { local += ie - ib; },
                  /*grain=*/8);
              sum += local;
            },
            /*grain=*/64);
        sums[static_cast<size_t>(t)] = sum.load();
      }
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(sums[static_cast<size_t>(t)], 2000);
}

// The join under churn: many callers each run many loops of a handful of
// chunks, so the caller's spin, the workers' last-chunk notify and the
// condition-variable fallback race on every loop. Every index must be
// covered exactly once, and no loop may return before its chunks are done.
TEST(ParallelTest, ManyTinyLoopsFromManyCallers) {
  constexpr int kCallers = 8;
  constexpr int kLoops = 1000;
  constexpr int64_t kN = 24;
  std::vector<std::thread> callers;
  std::atomic<int> bad{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      std::vector<int> hits(kN);
      for (int iter = 0; iter < kLoops; ++iter) {
        std::fill(hits.begin(), hits.end(), 0);
        ParallelFor(
            kN,
            [&](int64_t b, int64_t e) {
              for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
            },
            /*grain=*/4);
        for (int h : hits) {
          if (h != 1) bad++;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

// The join must not return before the exception of the last chunk to finish
// is recorded: a slow, throwing final chunk is still rethrown to the caller.
TEST(ParallelTest, ExceptionInTheLastChunkIsRethrown) {
  constexpr int64_t kN = 64;
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int64_t> covered{0};
    try {
      ParallelFor(
          kN,
          [&](int64_t b, int64_t e) {
            if (e == kN) {
              // Outlast every other chunk and the caller's bounded spin.
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              covered += e - b;
              throw std::runtime_error("last chunk failed");
            }
            covered += e - b;
          },
          /*grain=*/4);
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "last chunk failed");
    }
    EXPECT_EQ(covered.load(), kN);
  }
}

// A ParallelFor inside a chunk runs serially: one call over its whole range,
// on the thread that runs the chunk, whichever thread that is.
TEST(ParallelTest, NestedLoopsStaySerial) {
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_calls{0};
  std::atomic<int> off_thread{0};
  ParallelFor(
      256,
      [&](int64_t, int64_t) {
        outer_chunks++;
        const std::thread::id outer = std::this_thread::get_id();
        ParallelFor(
            4096,
            [&](int64_t ib, int64_t ie) {
              if (std::this_thread::get_id() != outer || ib != 0 || ie != 4096) {
                off_thread++;
              }
              inner_calls++;
            },
            /*grain=*/1);
      },
      /*grain=*/8);
  EXPECT_EQ(inner_calls.load(), outer_chunks.load());
  EXPECT_EQ(off_thread.load(), 0);
}

// ---- ParallelSequence: many loops, one pool wake ---------------------------

// Every loop of a sequence is tiled exactly once, each in whole grains but
// its last chunk, whatever the other loops' shapes.
TEST(ParallelTest, SequenceLoopsCoverTheirRangesInWholeGrains) {
  struct Shape {
    int64_t n, grain;
  };
  const std::vector<Shape> shapes = {{1000, 16}, {7, 1},     {4096, 4096},
                                     {5000, 64}, {8193, 4096}, {1, 1},
                                     {999, 7},   {0, 4}};
  std::mutex mu;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> chunks(shapes.size());
  std::vector<ParallelLoop> loops;
  for (size_t i = 0; i < shapes.size(); ++i) {
    loops.push_back({shapes[i].n, shapes[i].grain, [&, i](int64_t b, int64_t e) {
                       std::lock_guard<std::mutex> lock(mu);
                       chunks[i].emplace_back(b, e);
                     }});
  }
  ParallelSequence(loops);
  for (size_t i = 0; i < shapes.size(); ++i) {
    const int64_t n = shapes[i].n;
    const int64_t grain = shapes[i].grain;
    std::vector<std::pair<int64_t, int64_t>>& got = chunks[i];
    std::sort(got.begin(), got.end());
    if (n == 0) {
      EXPECT_TRUE(got.empty()) << "an empty loop ran a chunk";
      continue;
    }
    ASSERT_FALSE(got.empty()) << "loop " << i;
    EXPECT_EQ(got.front().first, 0) << "loop " << i;
    EXPECT_EQ(got.back().second, n) << "loop " << i;
    for (size_t c = 0; c < got.size(); ++c) {
      const int64_t len = got[c].second - got[c].first;
      EXPECT_GT(len, 0) << "loop " << i << " chunk " << c;
      if (c > 0) {
        EXPECT_EQ(got[c].first, got[c - 1].second) << "loop " << i;
      }
      if (c + 1 < got.size()) {
        EXPECT_EQ(len % grain, 0) << "loop " << i;
      }
    }
  }
}

// Loop i + 1 sees every write of loop i, whichever participant made it:
// each loop reads elements other chunks of the loop before it wrote, so a
// participant that ran ahead would read a stale value. Many tiny dependent
// loops from 8 concurrent callers race the waits on every loop.
TEST(ParallelTest, SequenceLoopSeesEveryWriteOfTheLoopsBefore) {
  constexpr int kCallers = 8;
  constexpr int kLoops = 200;
  constexpr int64_t kN = 64;
  std::vector<std::thread> callers;
  std::atomic<int> bad{0};
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        std::vector<int64_t> a(kN, 0), b(kN, 0);
        std::vector<ParallelLoop> loops;
        for (int l = 0; l < kLoops; ++l) {
          const int64_t* src = l % 2 == 0 ? a.data() : b.data();
          int64_t* dst = l % 2 == 0 ? b.data() : a.data();
          loops.push_back({kN, 4, [=](int64_t i0, int64_t i1) {
                             for (int64_t i = i0; i < i1; ++i) {
                               dst[i] = src[(i * 7 + 13) % kN] + 1;
                             }
                           }});
        }
        ParallelSequence(loops);
        for (int64_t v : a) {
          if (v != kLoops) bad++;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

// A throw in a middle loop: every chunk of that loop still runs, no later
// loop's body runs, the exception reaches the caller once, and the pool
// serves the next sequence.
TEST(ParallelTest, SequenceExceptionStopsLaterLoops) {
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int64_t> first{0}, middle{0}, later{0};
    const std::vector<ParallelLoop> loops = {
        {256, 4, [&](int64_t b, int64_t e) { first += e - b; }},
        {256, 4,
         [&](int64_t b, int64_t e) {
           middle += e - b;
           if (b <= 100 && 100 < e) throw std::runtime_error("middle loop failed");
         }},
        {256, 4, [&](int64_t b, int64_t e) { later += e - b; }},
        {256, 4, [&](int64_t b, int64_t e) { later += e - b; }},
    };
    int caught = 0;
    try {
      ParallelSequence(loops);
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "middle loop failed");
      ++caught;
    }
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(first.load(), 256);
    EXPECT_EQ(middle.load(), 256);
    EXPECT_EQ(later.load(), 0);
  }
  std::atomic<int64_t> sum{0};
  ParallelSequence({{1000, 16, [&](int64_t b, int64_t e) { sum += e - b; }},
                    {1000, 16, [&](int64_t b, int64_t e) { sum += e - b; }}});
  EXPECT_EQ(sum.load(), 2000);
}

// A ParallelFor inside a sequence chunk runs serially: one call over its
// whole range, on the thread that runs the chunk.
TEST(ParallelTest, NestedLoopInSequenceChunkStaysSerial) {
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_calls{0};
  std::atomic<int> off_thread{0};
  auto outer = [&](int64_t, int64_t) {
    outer_chunks++;
    const std::thread::id id = std::this_thread::get_id();
    ParallelFor(
        4096,
        [&](int64_t ib, int64_t ie) {
          if (std::this_thread::get_id() != id || ib != 0 || ie != 4096) off_thread++;
          inner_calls++;
        },
        /*grain=*/1);
  };
  const int64_t wakes = PoolWakes();
  ParallelSequence({{256, 8, outer}, {256, 8, outer}});
  EXPECT_EQ(inner_calls.load(), outer_chunks.load());
  EXPECT_EQ(off_thread.load(), 0);
  // The nested loops woke nobody: only the sequence itself did.
  EXPECT_EQ(PoolWakes() - wakes, NumThreads() > 1 ? 1 : 0);
}

// A sequence that finds every worker held by another still completes, on
// its caller alone.
TEST(ParallelTest, SequenceCompletesWhileAnotherHoldsEveryWorker) {
  if (NumThreads() < 2) GTEST_SKIP() << "no pool workers to hold";
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    ParallelFor(
        NumThreads(),
        [&](int64_t, int64_t) {
          holding++;
          while (!release.load()) std::this_thread::yield();
        },
        /*grain=*/1);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (holding.load() < NumThreads() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(holding.load(), NumThreads()) << "the holder never held every worker";
  std::vector<int64_t> v(512, 0);
  std::vector<ParallelLoop> loops;
  for (int l = 0; l < 20; ++l) {
    loops.push_back({512, 8, [&](int64_t b, int64_t e) {
                       for (int64_t i = b; i < e; ++i) v[static_cast<size_t>(i)]++;
                     }});
  }
  ParallelSequence(loops);
  release = true;
  holder.join();
  for (int64_t x : v) EXPECT_EQ(x, 20);
}

// One wake per sequence, however many loops it runs; none when every loop
// is one chunk.
TEST(ParallelTest, OneWakePerSequence) {
  std::vector<ParallelLoop> loops;
  for (int l = 0; l < 6; ++l) loops.push_back({4096, 64, [](int64_t, int64_t) {}});
  int64_t wakes = PoolWakes();
  ParallelSequence(loops);
  EXPECT_EQ(PoolWakes() - wakes, NumThreads() > 1 ? 1 : 0);

  for (ParallelLoop& l : loops) l.grain = l.n;
  wakes = PoolWakes();
  ParallelSequence(loops);
  EXPECT_EQ(PoolWakes() - wakes, 0);
}

TEST(ParallelTest, WorkGrainMakesSmallLoopsOneChunk) {
  EXPECT_EQ(WorkGrain(1000, 64, kParallelMinWork - 1), 1000);
  EXPECT_EQ(WorkGrain(1000, 64, kParallelMinWork), 64);
  // A loop already shorter than its grain keeps it.
  EXPECT_EQ(WorkGrain(10, 16, 1), 16);
}

TEST(BoundedQueueTest, PushDrainOrderAndOverflow) {
  BoundedQueue<int> queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.TryPush(int(i)));
  // Full: the rejected item is NOT consumed (movable-state contract).
  int spare = 99;
  EXPECT_FALSE(queue.TryPush(std::move(spare)));
  EXPECT_EQ(spare, 99);
  EXPECT_EQ(queue.size(), 3u);

  std::vector<int> drained = queue.WaitDrain();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2}));  // FIFO
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.TryPush(7));  // capacity freed by the drain
}

TEST(BoundedQueueTest, CloseWakesConsumerAndRejectsProducers) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1));
  std::vector<int> first;
  std::vector<int> second;
  std::thread consumer([&] {
    first = queue.WaitDrain();    // gets the queued item
    second = queue.WaitDrain();   // blocks until Close, then empty
  });
  // Close while the consumer may be blocked: it must wake with empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Close();
  consumer.join();
  EXPECT_EQ(first, std::vector<int>{1});
  EXPECT_TRUE(second.empty());
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(2));  // closed queues admit nothing
}

TEST(BoundedQueueTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.TryPush(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> all;
  while (all.size() < kProducers * kPerProducer) {
    std::vector<int> got = queue.WaitDrain();
    all.insert(all.end(), got.begin(), got.end());
  }
  for (auto& p : producers) p.join();
  std::set<int> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kProducers * kPerProducer));
}

TEST(LatencyHistogramTest, EmptyAndSingleObservation) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.Percentile(50.0), 0.0);
  hist.Record(100.0);
  EXPECT_EQ(hist.count(), 1);
  // One sample: every percentile lands in its (geometric) bucket.
  EXPECT_GT(hist.p50(), 50.0);
  EXPECT_LT(hist.p50(), 200.0);
  EXPECT_EQ(hist.p50(), hist.p99());
}

TEST(LatencyHistogramTest, PercentilesTrackDistribution) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000);
  // Geometric buckets (growth 1.333) are good to ~±35% — monitoring
  // accuracy, which is what the serving stats need.
  EXPECT_GT(hist.p50(), 500.0 * 0.65);
  EXPECT_LT(hist.p50(), 500.0 * 1.45);
  EXPECT_GT(hist.p99(), 990.0 * 0.65);
  EXPECT_LT(hist.p99(), 990.0 * 1.45);
  EXPECT_LE(hist.p50(), hist.p99());
  EXPECT_LE(hist.Percentile(0.0), hist.Percentile(100.0));
}

TEST(LatencyHistogramTest, ClampsOutliersAndConcurrentRecords) {
  LatencyHistogram hist;
  hist.Record(-5.0);   // below span: first bucket, not UB
  hist.Record(1e12);   // above span: last bucket
  EXPECT_EQ(hist.count(), 2);

  LatencyHistogram shared;
  constexpr int kThreads = 4;
  constexpr int kRecords = 2000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 1; i <= kRecords; ++i) shared.Record(static_cast<double>(i));
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(shared.count(), kThreads * kRecords);
  EXPECT_GT(shared.p99(), shared.p50());
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"bb", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("| name "), std::string::npos);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatFloat(3.14159, 2), "3.14");
  EXPECT_EQ(FormatMeanStd(81.53, 0.74, 1), "81.5 ±0.7");
}

}  // namespace
}  // namespace mixq
