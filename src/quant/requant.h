// Copyright 2026 MixQ-GNN Authors
// The requantization code emitter shared by the lowered executors
// (engine/execution_plan.cc) and the fused GEMM/SpMM epilogue kernels
// (tensor/gemm.cc, sparse/csr.cc). Keeping ONE implementation of the
// round-and-clip is what lets the fused epilogues stay bitwise identical to
// accumulating first and requantizing each element afterwards: both shapes
// feed the same double through the same expressions.
//
// The lowered quantizers round half away from zero — the same rule as the
// reference quantizers' std::lround — with an inline, vectorizable
// `(int32)(x ± 0.5)`. The two can disagree only when x sits within half an
// ulp of a .5 tie, a ~2^-52 probability event that never arises from float
// inputs scaled by a float-derived reciprocal, so lowered results remain
// bitwise identical to the lround-based reference. Values are pre-clamped
// just outside the code grid (NaN maps to the low bound) so the integer
// conversion is always defined; the reference path's lround merely returns
// an unspecified value there, and both end at the same clipped code for
// anything finite.
#pragma once

#include <cstdint>

#include "quant/quant_params.h"

namespace mixq {

/// Round-and-clip a pre-scaled real value into an integer code. `v` is the
/// value in units of the output scale, before the zero point. The double
/// pre-clamp keeps the int32 conversion defined for out-of-grid inputs.
struct CodeEmitter {
  double vlo = -1.0, vhi = 1.0;  // pre-round clamp, in scale units
  int32_t zp = 0;
  int32_t lo = 0, hi = 0;

  /// Default-constructed emitters are placeholders (everything clips to 0);
  /// real ones are built from the step's output params at lowering.
  CodeEmitter() = default;

  explicit CodeEmitter(const QuantParams& p)
      : vlo(static_cast<double>(p.qmin() - p.zero_point) - 1.0),
        vhi(static_cast<double>(p.qmax() - p.zero_point) + 1.0),
        zp(p.zero_point),
        lo(static_cast<int32_t>(p.qmin())),
        hi(static_cast<int32_t>(p.qmax())) {}

  inline int32_t Code(double v) const {
    const double vc = !(v >= vlo) ? vlo : (v > vhi ? vhi : v);  // NaN -> vlo
    const int32_t q = static_cast<int32_t>(vc >= 0.0 ? vc + 0.5 : vc - 0.5) + zp;
    return q < lo ? lo : (q > hi ? hi : q);
  }
};

/// A fused requantization epilogue: codes = Code(total·acc (+ bias[j])).
/// `total` folds the operand scales over the output scale; `bias` (nullable)
/// is the per-output-column bias already divided by the output scale. Both
/// are frozen at lowering so the hot path allocates and recomputes nothing.
struct RequantEpilogue {
  double total = 1.0;
  const double* bias = nullptr;
  CodeEmitter emitter;
};

/// Column-block width of the fused epilogue kernels: int32 accumulators live
/// in a stack block of at most this many lanes and are requantized from
/// there, so they never round-trip through a scratch matrix.
inline constexpr int64_t kRequantBlock = 256;

/// Requantizes `count` (<= kRequantBlock) int32 accumulators into int8
/// codes. THE fused-epilogue arithmetic: per element exactly
/// em.Code(total * acc (+ bias)), which is what keeps fused codes bitwise
/// equal to an exact accumulation followed by a separate requant pass
/// (tests/tensor_ops_test.cpp, tests/sparse_test.cpp). Rounds into an int32
/// block first and narrows in a second sweep (a direct scalar-narrowing
/// store defeats the vectorizer).
inline void RequantBlock(const int32_t* acc, int64_t count, double total,
                         const double* bias, const CodeEmitter& em, int8_t* dst) {
  // Local emitter copy + __restrict views: dst is a char-type pointer that
  // formally aliases everything (including em's fields), and without these
  // the compiler reloads the clamp bounds per element instead of hoisting
  // them and vectorizing the double math — a ~8x epilogue slowdown.
  const CodeEmitter e = em;
  const int32_t* __restrict ap = acc;
  const double* __restrict bp = bias;
  int8_t* __restrict dp = dst;
  int32_t tmp[kRequantBlock];
  if (bp != nullptr) {
    for (int64_t j = 0; j < count; ++j) {
      tmp[j] = e.Code(total * static_cast<double>(ap[j]) + bp[j]);
    }
  } else {
    for (int64_t j = 0; j < count; ++j) {
      tmp[j] = e.Code(total * static_cast<double>(ap[j]));
    }
  }
  for (int64_t j = 0; j < count; ++j) dp[j] = static_cast<int8_t>(tmp[j]);
}

/// Requantizes a register tile spilled as `rows` stack rows of 16 int32
/// accumulators into strided int8 output rows. One emitter copy serves the
/// whole tile — at 16-element trip counts the per-call RequantBlock setup
/// is a measurable fraction of the epilogue, so the GEMM kernels emit
/// through this instead of 4 separate calls.
inline void RequantTile16(const int32_t (*tile)[16], int64_t rows, int64_t emit,
                          double total, const double* bias,
                          const CodeEmitter& em, int8_t* dst, int64_t stride) {
  const CodeEmitter e = em;
  const double* __restrict bp = bias;
  int32_t tmp[16];
  for (int64_t r = 0; r < rows; ++r) {
    const int32_t* __restrict ap = tile[r];
    int8_t* __restrict dp = dst + r * stride;
    if (bp != nullptr) {
      for (int64_t j = 0; j < emit; ++j) {
        tmp[j] = e.Code(total * static_cast<double>(ap[j]) + bp[j]);
      }
    } else {
      for (int64_t j = 0; j < emit; ++j) {
        tmp[j] = e.Code(total * static_cast<double>(ap[j]));
      }
    }
    for (int64_t j = 0; j < emit; ++j) dp[j] = static_cast<int8_t>(tmp[j]);
  }
}

}  // namespace mixq
