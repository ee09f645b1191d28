// Copyright 2026 MixQ-GNN Authors
#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/cpu_features.h"
#include "common/parallel.h"

namespace mixq {

namespace {

// Cache/register blocking for the NN kernels. An l-tile of B rows stays hot
// in L1/L2 across the row chunk; within a tile, an MR x NR accumulator block
// lives in registers for the whole l run, so C is loaded/stored once per
// tile instead of once per l step. Every output element still sees its adds
// in ascending-l order, so blocked results are bitwise identical to the
// naive triple loop.
constexpr int64_t kInnerTile = 256;  // B rows per l-tile
constexpr int64_t kMr = 4;           // A rows per micro-kernel
constexpr int64_t kNr = 16;          // C columns per micro-kernel

// Generic-edge micro-kernel: C[i0:i0+rb, j0:j0+jb] += A[:, l0:l1] * B-tile.
// Four independent accumulation chains per column keep the FMA pipeline fed
// even when jb is too small to vectorize (e.g. a class-count-wide C).
template <typename AccT, typename InT>
inline void MicroKernelEdge(const InT* a, const InT* b, AccT* c, int64_t k,
                            int64_t n, int64_t i0, int64_t rb, int64_t j0,
                            int64_t jb, int64_t l0, int64_t l1) {
  if (rb == kMr) {
    // Same four-chain shape as the full kernel, with a runtime column count
    // (e.g. a class-count-wide output layer).
    AccT acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
    AccT* cr = c + i0 * n + j0;
    for (int64_t jj = 0; jj < jb; ++jj) {
      acc0[jj] = cr[jj];
      acc1[jj] = cr[n + jj];
      acc2[jj] = cr[2 * n + jj];
      acc3[jj] = cr[3 * n + jj];
    }
    const InT* a0 = a + i0 * k;
    const InT* a1 = a0 + k;
    const InT* a2 = a1 + k;
    const InT* a3 = a2 + k;
    for (int64_t l = l0; l < l1; ++l) {
      const InT* bl = b + l * n + j0;
      const AccT av0 = static_cast<AccT>(a0[l]);
      const AccT av1 = static_cast<AccT>(a1[l]);
      const AccT av2 = static_cast<AccT>(a2[l]);
      const AccT av3 = static_cast<AccT>(a3[l]);
      for (int64_t jj = 0; jj < jb; ++jj) {
        const AccT bv = static_cast<AccT>(bl[jj]);
        acc0[jj] += av0 * bv;
        acc1[jj] += av1 * bv;
        acc2[jj] += av2 * bv;
        acc3[jj] += av3 * bv;
      }
    }
    for (int64_t jj = 0; jj < jb; ++jj) {
      cr[jj] = acc0[jj];
      cr[n + jj] = acc1[jj];
      cr[2 * n + jj] = acc2[jj];
      cr[3 * n + jj] = acc3[jj];
    }
    return;
  }
  AccT acc[kMr][kNr];
  for (int64_t r = 0; r < rb; ++r) {
    for (int64_t jj = 0; jj < jb; ++jj) acc[r][jj] = c[(i0 + r) * n + j0 + jj];
  }
  for (int64_t l = l0; l < l1; ++l) {
    const InT* bl = b + l * n + j0;
    for (int64_t r = 0; r < rb; ++r) {
      const AccT av = static_cast<AccT>(a[(i0 + r) * k + l]);
      for (int64_t jj = 0; jj < jb; ++jj) {
        acc[r][jj] += av * static_cast<AccT>(bl[jj]);
      }
    }
  }
  for (int64_t r = 0; r < rb; ++r) {
    for (int64_t jj = 0; jj < jb; ++jj) c[(i0 + r) * n + j0 + jj] = acc[r][jj];
  }
}

// Full kMr x kNr micro-kernel. The single jj loop whose body carries four
// independent FMAs is the shape GCC turns into broadcast-FMA vector code
// with all accumulators in registers (a 2-D accumulator array makes it
// interleave l iterations with shuffles instead).
template <typename AccT, typename InT>
inline void MicroKernelFull(const InT* a, const InT* b, AccT* c, int64_t k,
                            int64_t n, int64_t i0, int64_t j0, int64_t l0,
                            int64_t l1) {
  AccT acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
  AccT* cr = c + i0 * n + j0;
  for (int64_t jj = 0; jj < kNr; ++jj) {
    acc0[jj] = cr[jj];
    acc1[jj] = cr[n + jj];
    acc2[jj] = cr[2 * n + jj];
    acc3[jj] = cr[3 * n + jj];
  }
  const InT* a0 = a + i0 * k;
  const InT* a1 = a0 + k;
  const InT* a2 = a1 + k;
  const InT* a3 = a2 + k;
  for (int64_t l = l0; l < l1; ++l) {
    const InT* bl = b + l * n + j0;
    const AccT av0 = static_cast<AccT>(a0[l]);
    const AccT av1 = static_cast<AccT>(a1[l]);
    const AccT av2 = static_cast<AccT>(a2[l]);
    const AccT av3 = static_cast<AccT>(a3[l]);
    for (int64_t jj = 0; jj < kNr; ++jj) {
      const AccT bv = static_cast<AccT>(bl[jj]);
      acc0[jj] += av0 * bv;
      acc1[jj] += av1 * bv;
      acc2[jj] += av2 * bv;
      acc3[jj] += av3 * bv;
    }
  }
  for (int64_t jj = 0; jj < kNr; ++jj) {
    cr[jj] = acc0[jj];
    cr[n + jj] = acc1[jj];
    cr[2 * n + jj] = acc2[jj];
    cr[3 * n + jj] = acc3[jj];
  }
}

// Finished elements of C per epilogue call: `rows_done` runs once enough
// micro-tile rows have finished to hold this many (or at the chunk's end),
// so a class-count-wide output gets its pointwise epilogue over a few
// hundred contiguous elements instead of one short pass per micro-tile,
// while outputs of 64 or more columns keep one call per micro-tile.
constexpr int64_t kEpilogueElems = 256;

// `rows_done(i0, rb)` runs on rows [i0, i0 + rb) of C once they are final:
// after their micro-kernels of the last l-tile, while the rows are still in
// L1.
template <typename AccT, typename InT, typename RowsDone>
void BlockedGemmNN(const InT* a, const InT* b, AccT* c, int64_t m, int64_t k,
                   int64_t n, bool accumulate, RowsDone rows_done) {
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        if (!accumulate) {
          std::memset(c + r0 * n, 0,
                      sizeof(AccT) * static_cast<size_t>((r1 - r0) * n));
        }
        if (k == 0) rows_done(r0, r1 - r0);
        for (int64_t l0 = 0; l0 < k; l0 += kInnerTile) {
          const int64_t l1 = std::min(k, l0 + kInnerTile);
          int64_t pending = r0;  // first finished row not yet handed over
          for (int64_t i0 = r0; i0 < r1; i0 += kMr) {
            const int64_t rb = std::min(kMr, r1 - i0);
            for (int64_t j0 = 0; j0 < n; j0 += kNr) {
              const int64_t jb = std::min(kNr, n - j0);
              if (rb == kMr && jb == kNr) {
                MicroKernelFull<AccT, InT>(a, b, c, k, n, i0, j0, l0, l1);
              } else {
                MicroKernelEdge<AccT, InT>(a, b, c, k, n, i0, rb, j0, jb, l0, l1);
              }
            }
            const int64_t end = i0 + rb;
            if (l1 == k && ((end - pending) * n >= kEpilogueElems || end == r1)) {
              rows_done(pending, end - pending);
              pending = end;
            }
          }
        }
      },
      /*grain=*/16);
}

constexpr auto kNoEpilogue = [](int64_t, int64_t) {};

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  BlockedGemmNN<float, float>(a, b, c, m, k, n, accumulate, kNoEpilogue);
}

void GemmNNEpilogue(const float* a, const float* b, float* work, int64_t m,
                    int64_t k, int64_t n, int64_t n_out, const FloatEpilogue& ep,
                    float* dst) {
  assert(n_out <= n && (work != dst || n_out == n));
  const FloatEpilogue* e = &ep;  // outlives the (synchronous) loop
  BlockedGemmNN<float, float>(
      a, b, work, m, k, n, /*accumulate=*/false, [=](int64_t i0, int64_t rb) {
        // Copy and bias per row; the rows then lie contiguous in dst (stride
        // n_out), so fake quantization and ReLU run as one pass over all of
        // them instead of one short pass per class-count-wide row.
        for (int64_t i = i0; i < i0 + rb; ++i) {
          e->CopyBias(work + i * n, dst + i * n_out, /*col=*/0, n_out);
        }
        e->Pointwise(dst + i0 * n_out, rb * n_out);
      });
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
            bool accumulate) {
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          const float* ai = a + i * n;
          float* ci = c + i * k;
          for (int64_t j = 0; j < k; ++j) {
            const float* bj = b + j * n;
            float acc = accumulate ? ci[j] : 0.0f;
            for (int64_t l = 0; l < n; ++l) acc += ai[l] * bj[l];
            ci[j] = acc;
          }
        }
      },
      /*grain=*/16);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  // Parallelize over output rows (k of them); each output row i gathers
  // column i of A against all rows of B.
  ParallelFor(
      k,
      [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          float* ci = c + i * n;
          if (!accumulate) std::memset(ci, 0, sizeof(float) * static_cast<size_t>(n));
          for (int64_t l = 0; l < m; ++l) {
            const float av = a[l * k + i];
            if (av == 0.0f) continue;
            const float* bl = b + l * n;
            for (int64_t j = 0; j < n; ++j) ci[j] += av * bl[j];
          }
        }
      },
      /*grain=*/16);
}

void GemmInt32(const int32_t* a, const int32_t* b, int64_t* c, int64_t m, int64_t k,
               int64_t n, bool accumulate) {
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int64_t* ci = c + i * n;
          if (!accumulate) std::memset(ci, 0, sizeof(int64_t) * static_cast<size_t>(n));
          const int32_t* ai = a + i * k;
          for (int64_t l = 0; l < k; ++l) {
            const int64_t av = ai[l];
            if (av == 0) continue;
            const int32_t* bl = b + l * n;
            for (int64_t j = 0; j < n; ++j) ci[j] += av * static_cast<int64_t>(bl[j]);
          }
        }
      },
      /*grain=*/16);
}

void GemmInt8(const int8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
              int64_t n) {
  // Same register-blocked structure as GemmNN; int8 operands quarter the
  // memory traffic and widen to int32 in the accumulators.
  BlockedGemmNN<int32_t, int8_t>(a, b, c, m, k, n, /*accumulate=*/false,
                                 kNoEpilogue);
}

void PackInt8PairB(const int8_t* b, int64_t k, int64_t n, int16_t* packed) {
  const int64_t kp = (k + 1) / 2;
  for (int64_t p = 0; p < kp; ++p) {
    int16_t* row = packed + p * 2 * n;
    const int8_t* b0 = b + 2 * p * n;
    const int8_t* b1 = 2 * p + 1 < k ? b0 + n : nullptr;
    for (int64_t j = 0; j < n; ++j) {
      row[2 * j] = static_cast<int16_t>(b0[j]);
      row[2 * j + 1] = b1 != nullptr ? static_cast<int16_t>(b1[j]) : int16_t{0};
    }
  }
}

void PackInt8QuadB(const int8_t* b, int64_t k, int64_t n, int8_t* packed,
                   int32_t* corr) {
  const int64_t kq = (k + 3) / 4;
  for (int64_t q = 0; q < kq; ++q) {
    int8_t* row = packed + q * 4 * n;
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t d = 0; d < 4; ++d) {
        const int64_t l = 4 * q + d;
        row[4 * j + d] = l < k ? b[l * n + j] : int8_t{0};
      }
    }
  }
  for (int64_t j = 0; j < n; ++j) {
    int64_t sum = 0;
    for (int64_t l = 0; l < k; ++l) sum += b[l * n + j];
    // Exact wherever the VNNI kernel may run (its accumulators fit int32, so
    // does this). Deeper columns, which bundles can carry, wrap modulo 2^32
    // instead of overflowing a signed int: the value is then never used.
    corr[j] = static_cast<int32_t>(static_cast<uint32_t>(128 * sum));
  }
}

namespace {

// Portable pair-dot row kernel: acc[j] += a0 * P[2j] + a1 * P[2j + 1].
inline void PairDotRow(const int16_t* bp, int32_t a0, int32_t a1, int32_t* acc,
                       int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    acc[j] += a0 * static_cast<int32_t>(bp[2 * j]) +
              a1 * static_cast<int32_t>(bp[2 * j + 1]);
  }
}

// Portable quad-dot row kernel over PackInt8QuadB storage, in SIGNED
// arithmetic (no +128 shift, no correction): exact int32 either way.
inline void QuadDotRow(const int8_t* bq, int32_t a0, int32_t a1, int32_t a2,
                       int32_t a3, int32_t* acc, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    acc[j] += a0 * static_cast<int32_t>(bq[4 * j]) +
              a1 * static_cast<int32_t>(bq[4 * j + 1]) +
              a2 * static_cast<int32_t>(bq[4 * j + 2]) +
              a3 * static_cast<int32_t>(bq[4 * j + 3]);
  }
}

// One row of the fused scalar path over pair-packed B: accumulate a column
// block on the stack, requantize it straight into `di` — the int32 values
// never leave L1.
inline void FusedRowPair(const int8_t* ar, const int16_t* pb, int64_t k,
                         int64_t n, int64_t jb0, int64_t jb1,
                         const RequantEpilogue& ep, int8_t* di) {
  const int64_t kp = (k + 1) / 2;
  int32_t buf[kRequantBlock];
  for (int64_t j0 = jb0; j0 < jb1; j0 += kRequantBlock) {
    const int64_t w = std::min<int64_t>(kRequantBlock, jb1 - j0);
    std::memset(buf, 0, sizeof(int32_t) * static_cast<size_t>(w));
    for (int64_t p = 0; p < kp; ++p) {
      const int32_t av0 = ar[2 * p];
      const int32_t av1 = 2 * p + 1 < k ? ar[2 * p + 1] : 0;
      PairDotRow(pb + p * 2 * n + 2 * j0, av0, av1, buf, w);
    }
    RequantBlock(buf, w, ep.total, ep.bias != nullptr ? ep.bias + j0 : nullptr,
                   ep.emitter, di + j0);
  }
}

// Same, over quad-packed B (used for VNNI edge/tail handling).
inline void FusedRowQuad(const int8_t* ar, const int8_t* qb, int64_t k,
                         int64_t n, int64_t jb0, int64_t jb1,
                         const RequantEpilogue& ep, int8_t* di) {
  const int64_t kq = (k + 3) / 4;
  int32_t buf[kRequantBlock];
  for (int64_t j0 = jb0; j0 < jb1; j0 += kRequantBlock) {
    const int64_t w = std::min<int64_t>(kRequantBlock, jb1 - j0);
    std::memset(buf, 0, sizeof(int32_t) * static_cast<size_t>(w));
    for (int64_t q = 0; q < kq; ++q) {
      const int64_t l = 4 * q;
      const int32_t a0 = ar[l];
      const int32_t a1 = l + 1 < k ? ar[l + 1] : 0;
      const int32_t a2 = l + 2 < k ? ar[l + 2] : 0;
      const int32_t a3 = l + 3 < k ? ar[l + 3] : 0;
      QuadDotRow(qb + q * 4 * n + 4 * j0, a0, a1, a2, a3, buf, w);
    }
    RequantBlock(buf, w, ep.total, ep.bias != nullptr ? ep.bias + j0 : nullptr,
                   ep.emitter, di + j0);
  }
}

void GemmInt8PackedBScalar(const int8_t* a, const int16_t* packed_b, int32_t* c,
                           int64_t m, int64_t k, int64_t n) {
  const int64_t kp = (k + 1) / 2;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int32_t* ci = c + i * n;
          std::memset(ci, 0, sizeof(int32_t) * static_cast<size_t>(n));
          const int8_t* ar = a + i * k;
          for (int64_t p = 0; p < kp; ++p) {
            const int32_t av0 = ar[2 * p];
            const int32_t av1 = 2 * p + 1 < k ? ar[2 * p + 1] : 0;
            PairDotRow(packed_b + p * 2 * n, av0, av1, ci, n);
          }
        }
      },
      /*grain=*/16);
}

void GemmInt8QuadBScalar(const int8_t* a, const int8_t* quad_b, int32_t* c,
                         int64_t m, int64_t k, int64_t n) {
  const int64_t kq = (k + 3) / 4;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
          int32_t* ci = c + i * n;
          std::memset(ci, 0, sizeof(int32_t) * static_cast<size_t>(n));
          const int8_t* ar = a + i * k;
          for (int64_t q = 0; q < kq; ++q) {
            const int64_t l = 4 * q;
            const int32_t a0 = ar[l];
            const int32_t a1 = l + 1 < k ? ar[l + 1] : 0;
            const int32_t a2 = l + 2 < k ? ar[l + 2] : 0;
            const int32_t a3 = l + 3 < k ? ar[l + 3] : 0;
            QuadDotRow(quad_b + q * 4 * n, a0, a1, a2, a3, ci, n);
          }
        }
      },
      /*grain=*/16);
}

// Portable 16-lane tile over pair-packed B: rows [i0, i0 + rb) of A times
// columns [j0, j0 + 16) of B into `tile`, with a fixed trip count per
// k-pair whatever the emitted width.
inline void PairTile16(const int8_t* a, const int16_t* packed_b, int64_t k,
                       int64_t n, int64_t i0, int64_t rb, int64_t j0,
                       int32_t tile[][16]) {
  const int64_t kp = (k + 1) / 2;
  for (int64_t r = 0; r < rb; ++r) {
    int32_t* acc = tile[r];
    for (int64_t j = 0; j < 16; ++j) acc[j] = 0;
    const int8_t* ar = a + (i0 + r) * k;
    for (int64_t p = 0; p < kp; ++p) {
      const int32_t av0 = ar[2 * p];
      const int32_t av1 = 2 * p + 1 < k ? ar[2 * p + 1] : 0;
      PairDotRow(packed_b + p * 2 * n + 2 * j0, av0, av1, acc, 16);
    }
  }
}

// The scalar tier in the vector tiers' shape: 16-lane tiles through
// RequantTile16, FusedRowPair only for columns past the last full tile.
void GemmInt8RequantScalar(const int8_t* a, const int16_t* packed_b, int64_t m,
                           int64_t k, int64_t n, int64_t n_out,
                           const RequantEpilogue& ep, int8_t* dst) {
  const int64_t n16 = n - n % 16;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        int32_t tile[kMr][16];
        for (int64_t i0 = r0; i0 < r1; i0 += kMr) {
          const int64_t rb = std::min(kMr, r1 - i0);
          for (int64_t j0 = 0; j0 < n16 && j0 < n_out; j0 += 16) {
            PairTile16(a, packed_b, k, n, i0, rb, j0, tile);
            const double* bias = ep.bias != nullptr ? ep.bias + j0 : nullptr;
            RequantTile16(tile, rb, std::min<int64_t>(16, n_out - j0), ep.total,
                          bias, ep.emitter, dst + i0 * n_out + j0, n_out);
          }
          if (n16 < n_out) {
            for (int64_t i = i0; i < i0 + rb; ++i) {
              FusedRowPair(a + i * k, packed_b, k, n, n16, n_out, ep,
                           dst + i * n_out);
            }
          }
        }
      },
      /*grain=*/16);
}

#if MIXQ_COMPILED_AVX2

void GemmInt8PackedBAvx2(const int8_t* a, const int16_t* packed_b, int32_t* c,
                         int64_t m, int64_t k, int64_t n) {
  const int64_t kp = (k + 1) / 2;
  const int64_t n16 = n - n % 16;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        int64_t i0 = r0;
        for (; i0 + kMr <= r1; i0 += kMr) {
          const int8_t* a0 = a + i0 * k;
          const int8_t* a1 = a0 + k;
          const int8_t* a2 = a1 + k;
          const int8_t* a3 = a2 + k;
          for (int64_t j0 = 0; j0 < n16; j0 += 16) {
            // 4 rows x 16 columns of int32 accumulators in registers; each
            // vpmaddwd consumes one packed k-pair for 8 columns.
            __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
            __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
            __m256i acc20 = _mm256_setzero_si256(), acc21 = _mm256_setzero_si256();
            __m256i acc30 = _mm256_setzero_si256(), acc31 = _mm256_setzero_si256();
            for (int64_t p = 0; p < kp; ++p) {
              const int16_t* bp = packed_b + p * 2 * n + 2 * j0;
              const __m256i b0 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
              const __m256i b1 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
              const int64_t l = 2 * p;
              const bool has_hi = l + 1 < k;
              auto pair = [&](const int8_t* ar) {
                const uint16_t lo = static_cast<uint16_t>(static_cast<int16_t>(ar[l]));
                const uint16_t hi = has_hi ? static_cast<uint16_t>(
                                                 static_cast<int16_t>(ar[l + 1]))
                                           : uint16_t{0};
                return _mm256_set1_epi32(static_cast<int32_t>(
                    static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16)));
              };
              const __m256i av0 = pair(a0);
              acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(av0, b0));
              acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(av0, b1));
              const __m256i av1 = pair(a1);
              acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(av1, b0));
              acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(av1, b1));
              const __m256i av2 = pair(a2);
              acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(av2, b0));
              acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(av2, b1));
              const __m256i av3 = pair(a3);
              acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(av3, b0));
              acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(av3, b1));
            }
            int32_t* ci = c + i0 * n + j0;
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci), acc00);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 8), acc01);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + n), acc10);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + n + 8), acc11);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 2 * n), acc20);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 2 * n + 8), acc21);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 3 * n), acc30);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(ci + 3 * n + 8), acc31);
          }
          if (n16 < n) {
            for (int64_t r = 0; r < kMr; ++r) {
              int32_t* ci = c + (i0 + r) * n;
              std::memset(ci + n16, 0,
                          sizeof(int32_t) * static_cast<size_t>(n - n16));
              const int8_t* ar = a + (i0 + r) * k;
              for (int64_t p = 0; p < kp; ++p) {
                const int32_t av0 = ar[2 * p];
                const int32_t av1 = 2 * p + 1 < k ? ar[2 * p + 1] : 0;
                PairDotRow(packed_b + p * 2 * n + 2 * n16, av0, av1, ci + n16,
                           n - n16);
              }
            }
          }
        }
        for (; i0 < r1; ++i0) {
          int32_t* ci = c + i0 * n;
          std::memset(ci, 0, sizeof(int32_t) * static_cast<size_t>(n));
          const int8_t* ar = a + i0 * k;
          for (int64_t p = 0; p < kp; ++p) {
            const int32_t av0 = ar[2 * p];
            const int32_t av1 = 2 * p + 1 < k ? ar[2 * p + 1] : 0;
            PairDotRow(packed_b + p * 2 * n, av0, av1, ci, n);
          }
        }
      },
      /*grain=*/16);
}

// Fused vpmaddwd kernel: the register tiles above, but the accumulators are
// spilled to a stack tile and requantized straight into the int8 output at
// the unpadded stride — the int32 values never touch a scratch matrix.
void GemmInt8RequantAvx2(const int8_t* a, const int16_t* packed_b, int64_t m,
                         int64_t k, int64_t n, int64_t n_out,
                         const RequantEpilogue& ep, int8_t* dst) {
  const int64_t kp = (k + 1) / 2;
  const int64_t n16 = n - n % 16;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        alignas(32) int32_t tile[kMr][16];
        int64_t i0 = r0;
        for (; i0 + kMr <= r1; i0 += kMr) {
          const int8_t* a0 = a + i0 * k;
          const int8_t* a1 = a0 + k;
          const int8_t* a2 = a1 + k;
          const int8_t* a3 = a2 + k;
          // Tiles whose 16 columns all land in the zero-weight padding are
          // skipped outright (nothing of theirs is ever emitted).
          for (int64_t j0 = 0; j0 < n16 && j0 < n_out; j0 += 16) {
            __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
            __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
            __m256i acc20 = _mm256_setzero_si256(), acc21 = _mm256_setzero_si256();
            __m256i acc30 = _mm256_setzero_si256(), acc31 = _mm256_setzero_si256();
            for (int64_t p = 0; p < kp; ++p) {
              const int16_t* bp = packed_b + p * 2 * n + 2 * j0;
              const __m256i b0 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
              const __m256i b1 =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
              const int64_t l = 2 * p;
              const bool has_hi = l + 1 < k;
              auto pair = [&](const int8_t* ar) {
                const uint16_t lo = static_cast<uint16_t>(static_cast<int16_t>(ar[l]));
                const uint16_t hi = has_hi ? static_cast<uint16_t>(
                                                 static_cast<int16_t>(ar[l + 1]))
                                           : uint16_t{0};
                return _mm256_set1_epi32(static_cast<int32_t>(
                    static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16)));
              };
              const __m256i av0 = pair(a0);
              acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(av0, b0));
              acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(av0, b1));
              const __m256i av1 = pair(a1);
              acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(av1, b0));
              acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(av1, b1));
              const __m256i av2 = pair(a2);
              acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(av2, b0));
              acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(av2, b1));
              const __m256i av3 = pair(a3);
              acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(av3, b0));
              acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(av3, b1));
            }
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0]), acc00);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 8), acc01);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1]), acc10);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 8), acc11);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2]), acc20);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 8), acc21);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3]), acc30);
            _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 8), acc31);
            const int64_t emit = std::min<int64_t>(16, n_out - j0);
            const double* bias = ep.bias != nullptr ? ep.bias + j0 : nullptr;
            RequantTile16(tile, kMr, emit, ep.total, bias, ep.emitter,
                          dst + i0 * n_out + j0, n_out);
          }
          if (n16 < n_out) {
            for (int64_t r = 0; r < kMr; ++r) {
              FusedRowPair(a + (i0 + r) * k, packed_b, k, n, n16, n_out, ep,
                           dst + (i0 + r) * n_out);
            }
          }
        }
        for (; i0 < r1; ++i0) {
          FusedRowPair(a + i0 * k, packed_b, k, n, 0, n_out, ep, dst + i0 * n_out);
        }
      },
      /*grain=*/16);
}

#endif  // MIXQ_COMPILED_AVX2

#if MIXQ_COMPILED_VNNI

// 256-bit vpdpbusd: EVEX form with AVX512-VNNI+VL, VEX form with AVX-VNNI.
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
#define MIXQ_MM256_DPBUSD _mm256_dpbusd_epi32
#else
#define MIXQ_MM256_DPBUSD _mm256_dpbusd_avx_epi32
#endif

// Broadcast of one row's k-quad, shifted into vpdpbusd's unsigned operand:
// codes are symmetric (|a| <= 127) so a + 128 fits [1, 255]. Zero-padded k
// positions multiply zero weight bytes, so their shifted value is harmless.
inline __m256i QuadU8(const int8_t* ar, int64_t l, int64_t k) {
  if (l + 3 < k) {
    // Full quad: one 4-byte load; XOR with 0x80 per byte IS the +128 shift
    // ((uint8)(v + 128) == v ^ 0x80 for every int8 v). The byte-wise build
    // below costs ~12 scalar ops per row per quad and halves GEMM
    // throughput; this is 2.
    uint32_t w;
    std::memcpy(&w, ar + l, 4);
    return _mm256_set1_epi32(static_cast<int32_t>(w ^ 0x80808080u));
  }
  uint32_t w = static_cast<uint32_t>(static_cast<uint8_t>(ar[l] + 128));
  w |= static_cast<uint32_t>(
           static_cast<uint8_t>((l + 1 < k ? ar[l + 1] : 0) + 128))
       << 8;
  w |= static_cast<uint32_t>(
           static_cast<uint8_t>((l + 2 < k ? ar[l + 2] : 0) + 128))
       << 16;
  w |= static_cast<uint32_t>(
           static_cast<uint8_t>((l + 3 < k ? ar[l + 3] : 0) + 128))
       << 24;
  return _mm256_set1_epi32(static_cast<int32_t>(w));
}

// Shared 4x16 vpdpbusd tile: accumulates over all k-quads, subtracts the
// +128-shift correction (128 * colsum, row-independent), leaves exact int32
// sums in `tile`. Identical values to the vpmaddwd/scalar kernels.
inline void VnniTile(const int8_t* a0, const int8_t* a1, const int8_t* a2,
                     const int8_t* a3, const int8_t* quad_b, const int32_t* corr,
                     int64_t k, int64_t n, int64_t j0, int32_t tile[][16]) {
  const int64_t kq = (k + 3) / 4;
  __m256i acc00 = _mm256_setzero_si256(), acc01 = _mm256_setzero_si256();
  __m256i acc10 = _mm256_setzero_si256(), acc11 = _mm256_setzero_si256();
  __m256i acc20 = _mm256_setzero_si256(), acc21 = _mm256_setzero_si256();
  __m256i acc30 = _mm256_setzero_si256(), acc31 = _mm256_setzero_si256();
  for (int64_t q = 0; q < kq; ++q) {
    const int8_t* bq = quad_b + q * 4 * n + 4 * j0;
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq + 32));
    const int64_t l = 4 * q;
    const __m256i av0 = QuadU8(a0, l, k);
    acc00 = MIXQ_MM256_DPBUSD(acc00, av0, b0);
    acc01 = MIXQ_MM256_DPBUSD(acc01, av0, b1);
    const __m256i av1 = QuadU8(a1, l, k);
    acc10 = MIXQ_MM256_DPBUSD(acc10, av1, b0);
    acc11 = MIXQ_MM256_DPBUSD(acc11, av1, b1);
    const __m256i av2 = QuadU8(a2, l, k);
    acc20 = MIXQ_MM256_DPBUSD(acc20, av2, b0);
    acc21 = MIXQ_MM256_DPBUSD(acc21, av2, b1);
    const __m256i av3 = QuadU8(a3, l, k);
    acc30 = MIXQ_MM256_DPBUSD(acc30, av3, b0);
    acc31 = MIXQ_MM256_DPBUSD(acc31, av3, b1);
  }
  const __m256i c0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(corr + j0));
  const __m256i c1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(corr + j0 + 8));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0]),
                     _mm256_sub_epi32(acc00, c0));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 8),
                     _mm256_sub_epi32(acc01, c1));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1]),
                     _mm256_sub_epi32(acc10, c0));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 8),
                     _mm256_sub_epi32(acc11, c1));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2]),
                     _mm256_sub_epi32(acc20, c0));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 8),
                     _mm256_sub_epi32(acc21, c1));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3]),
                     _mm256_sub_epi32(acc30, c0));
  _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 8),
                     _mm256_sub_epi32(acc31, c1));
}

void GemmInt8QuadBVnni(const int8_t* a, const int8_t* quad_b, const int32_t* corr,
                       int32_t* c, int64_t m, int64_t k, int64_t n) {
  const int64_t kq = (k + 3) / 4;
  const int64_t n16 = n - n % 16;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        alignas(32) int32_t tile[kMr][16];
        int64_t i0 = r0;
        for (; i0 + kMr <= r1; i0 += kMr) {
          const int8_t* a0 = a + i0 * k;
          const int8_t* a1 = a0 + k;
          const int8_t* a2 = a1 + k;
          const int8_t* a3 = a2 + k;
          for (int64_t j0 = 0; j0 < n16; j0 += 16) {
            VnniTile(a0, a1, a2, a3, quad_b, corr, k, n, j0, tile);
            for (int64_t r = 0; r < kMr; ++r) {
              std::memcpy(c + (i0 + r) * n + j0, tile[r],
                          sizeof(int32_t) * 16);
            }
          }
          if (n16 < n) {
            for (int64_t r = 0; r < kMr; ++r) {
              int32_t* ci = c + (i0 + r) * n;
              std::memset(ci + n16, 0,
                          sizeof(int32_t) * static_cast<size_t>(n - n16));
              const int8_t* ar = a + (i0 + r) * k;
              for (int64_t q = 0; q < kq; ++q) {
                const int64_t l = 4 * q;
                QuadDotRow(quad_b + q * 4 * n + 4 * n16, ar[l],
                           l + 1 < k ? ar[l + 1] : 0, l + 2 < k ? ar[l + 2] : 0,
                           l + 3 < k ? ar[l + 3] : 0, ci + n16, n - n16);
              }
            }
          }
        }
        for (; i0 < r1; ++i0) {
          int32_t* ci = c + i0 * n;
          std::memset(ci, 0, sizeof(int32_t) * static_cast<size_t>(n));
          const int8_t* ar = a + i0 * k;
          for (int64_t q = 0; q < kq; ++q) {
            const int64_t l = 4 * q;
            QuadDotRow(quad_b + q * 4 * n, ar[l], l + 1 < k ? ar[l + 1] : 0,
                       l + 2 < k ? ar[l + 2] : 0, l + 3 < k ? ar[l + 3] : 0, ci,
                       n);
          }
        }
      },
      /*grain=*/16);
}

void GemmInt8RequantVnni(const int8_t* a, const int8_t* quad_b,
                         const int32_t* corr, int64_t m, int64_t k, int64_t n,
                         int64_t n_out, const RequantEpilogue& ep, int8_t* dst) {
  const int64_t n16 = n - n % 16;
  ParallelFor(
      m,
      [=](int64_t r0, int64_t r1) {
        alignas(32) int32_t tile[kMr][16];
        int64_t i0 = r0;
        for (; i0 + kMr <= r1; i0 += kMr) {
          const int8_t* a0 = a + i0 * k;
          const int8_t* a1 = a0 + k;
          const int8_t* a2 = a1 + k;
          const int8_t* a3 = a2 + k;
          for (int64_t j0 = 0; j0 < n16 && j0 < n_out; j0 += 16) {
            VnniTile(a0, a1, a2, a3, quad_b, corr, k, n, j0, tile);
            const int64_t emit = std::min<int64_t>(16, n_out - j0);
            const double* bias = ep.bias != nullptr ? ep.bias + j0 : nullptr;
            RequantTile16(tile, kMr, emit, ep.total, bias, ep.emitter,
                          dst + i0 * n_out + j0, n_out);
          }
          if (n16 < n_out) {
            for (int64_t r = 0; r < kMr; ++r) {
              FusedRowQuad(a + (i0 + r) * k, quad_b, k, n, n16, n_out, ep,
                           dst + (i0 + r) * n_out);
            }
          }
        }
        for (; i0 < r1; ++i0) {
          FusedRowQuad(a + i0 * k, quad_b, k, n, 0, n_out, ep, dst + i0 * n_out);
        }
      },
      /*grain=*/16);
}

#endif  // MIXQ_COMPILED_VNNI

}  // namespace

void GemmInt8PackedB(const int8_t* a, const int16_t* packed_b, int32_t* c,
                     int64_t m, int64_t k, int64_t n) {
#if MIXQ_COMPILED_AVX2
  if (ActiveKernelIsa() != KernelIsa::kScalar) {
    GemmInt8PackedBAvx2(a, packed_b, c, m, k, n);
    return;
  }
#endif
  GemmInt8PackedBScalar(a, packed_b, c, m, k, n);
}

void GemmInt8QuadB(const int8_t* a, const int8_t* quad_b, const int32_t* corr,
                   int32_t* c, int64_t m, int64_t k, int64_t n) {
  // Standalone kernel entry (benches, arbitrary codes): no per-step
  // certificate is available here, so the coarse full-scale depth predicate
  // gates the unsigned-shift path.
#if MIXQ_COMPILED_VNNI
  if (ActiveKernelIsa() == KernelIsa::kVnni && Int8VnniDepthOk(k)) {
    GemmInt8QuadBVnni(a, quad_b, corr, c, m, k, n);
    return;
  }
#endif
  (void)corr;  // the signed scalar path needs no shift correction
  GemmInt8QuadBScalar(a, quad_b, c, m, k, n);
}

void GemmInt8Requant(const int8_t* a, const Int8PackedWeights& w, int64_t m,
                     int64_t k, int64_t n, int64_t n_out,
                     const RequantEpilogue& ep, int8_t* dst) {
  const KernelIsa isa = ActiveKernelIsa();
  // The plan checker's per-step certificate must never be less conservative
  // than the coarse full-scale predicate it replaced.
  assert(!(w.quad != nullptr && Int8VnniDepthOk(k)) || w.vnni_ok);
#if MIXQ_COMPILED_VNNI
  if (isa == KernelIsa::kVnni && w.quad != nullptr && w.corr != nullptr &&
      w.vnni_ok) {
    GemmInt8RequantVnni(a, w.quad, w.corr, m, k, n, n_out, ep, dst);
    return;
  }
#endif
#if MIXQ_COMPILED_AVX2
  if (isa != KernelIsa::kScalar) {
    GemmInt8RequantAvx2(a, w.pair, m, k, n, n_out, ep, dst);
    return;
  }
#endif
  (void)isa;
  GemmInt8RequantScalar(a, w.pair, m, k, n, n_out, ep, dst);
}

}  // namespace mixq
