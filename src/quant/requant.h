// Copyright 2026 MixQ-GNN Authors
// The requantization code emitter shared by the lowered executors
// (engine/execution_plan.cc) and the fused GEMM/SpMM epilogue kernels
// (tensor/gemm.cc, sparse/csr.cc), in both precisions: int8 codes
// (RequantEpilogue) and fp32 fake quantization (FloatEpilogue). Keeping ONE
// implementation of the round-and-clip is what lets the fused epilogues stay
// bitwise identical to accumulating first and quantizing each element
// afterwards: both shapes feed the same double through the same expressions.
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
#include <limits>

#include "quant/quant_params.h"

namespace mixq {

/// True when CodeEmitter(p) is exact on every input of a 1..32-bit grid:
/// its pre-clamp bounds (one past each end of the grid, in scale units) and
/// the rounded value plus the zero point, at most qmax + 1, all fit int32.
/// A 32-bit grid fails: qmax = 2^31 - 1 leaves no room for vhi = 2^31, so
/// the int32 conversion would overflow in the top half-step. Lowering
/// refuses such a grid and the plan checker rejects it, so no executor ever
/// builds an emitter for one.
inline bool FitsInt32Codes(const QuantParams& p) {
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  const int64_t zp = p.zero_point;
  return p.qmax() + 1 <= kMax && p.qmin() - zp - 1 >= kMin &&
         p.qmax() - zp + 1 <= kMax;
}

/// Round-and-clip a pre-scaled real value into an integer code. `v` is the
/// value in units of the output scale, before the zero point. The double
/// pre-clamp keeps the int32 conversion defined for out-of-grid inputs on
/// every grid that passes FitsInt32Codes.
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

/// Fake quantization onto one grid: round-and-clip through the CodeEmitter,
/// then reconstruct in float. THE per-element expression of the lowered fp32
/// quantize points (engine/execution_plan.cc's FakeQuantBuffer and the fused
/// FloatEpilogue below), mirroring FakeQuantOp (quant/fake_quant.cc) value
/// for value: multiply by the double reciprocal, round, clip, `(q - Z) * S`.
struct GridFakeQuant {
  double inv_scale = 1.0;
  float scale = 1.0f;
  CodeEmitter emitter;

  GridFakeQuant() = default;
  explicit GridFakeQuant(const QuantParams& p)
      : inv_scale(1.0 / p.scale), scale(p.scale), emitter(p) {}

  inline float operator()(float x) const {
    const int32_t q = emitter.Code(static_cast<double>(x) * inv_scale);
    return static_cast<float>(q - emitter.zp) * scale;
  }
};

/// A fused fp32 epilogue: y = relu(FakeQuant(acc + bias[j])), each part
/// optional. The lowered executor folds the in-place quantize and ReLU
/// steps that directly follow a GEMM, SpMM or add into the kernel that
/// produced their input (engine/execution_plan.h, Step::folds), which then
/// applies this to each row slice once it is fully accumulated. Every part
/// is the same float expression as the separate pass it replaces
/// (`row[j] + bias[j]`, GridFakeQuant, `v > 0 ? v : 0`), applied in the same
/// order, so fused results are bitwise identical to the two-pass shape.
struct FloatEpilogue {
  const float* bias = nullptr;  ///< per output column; null = no bias
  bool quantize = false;
  GridFakeQuant quant;  ///< meaningful when `quantize`
  bool relu = false;

  bool Identity() const { return bias == nullptr && !quantize && !relu; }

  /// Applies the epilogue to `count` elements of one row, output columns
  /// [col, col + count): reads `src`, writes `dst` (which may be `src`).
  /// Each part is its own in-place pass over the L1-resident slice: one
  /// pointer per loop is the shape GCC vectorizes without alias checks.
  inline void ApplyRow(const float* src, float* dst, int64_t col,
                       int64_t count) const {
    if (src != dst) {
      for (int64_t j = 0; j < count; ++j) dst[j] = src[j];
    }
    if (bias != nullptr) {
      const float* b = bias + col;
      for (int64_t j = 0; j < count; ++j) dst[j] = dst[j] + b[j];
    }
    if (quantize) {
      // Local copy: float stores through dst may alias the fields of *this.
      const GridFakeQuant fq = quant;
      for (int64_t j = 0; j < count; ++j) dst[j] = fq(dst[j]);
    }
    if (relu) {
      for (int64_t j = 0; j < count; ++j) dst[j] = dst[j] > 0.0f ? dst[j] : 0.0f;
    }
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
