// Copyright 2026 MixQ-GNN Authors
// Raw dense GEMM kernels (row-major, parallel over output rows). Shared by
// the autograd matmul op, the lowered serving executor, and the kernel
// micro-benchmarks. The NN kernels are cache-blocked over the inner
// dimension; blocking never changes per-element accumulation order, so
// results are bitwise reproducible across block/thread configurations.
#pragma once

#include <cstdint>

#include "quant/requant.h"

namespace mixq {

/// C[m,n] (+)= A[m,k] * B[k,n]. If accumulate is false, C is overwritten.
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

/// GemmNN with a fused fp32 epilogue, the serving executor's dense step:
/// computes A[m,k] * B[k,n] into `work` (row stride n), and as soon as a row
/// block is fully accumulated (after the last inner-dimension tile, so rows
/// with k above the tile depth see every product first) writes
/// ep.ApplyRow over its first `n_out` columns to `dst` at row stride n_out,
/// inside the same row chunk. Columns [n_out, n) are zero-weight
/// padding that is never emitted, which replaces the separate strip pass.
/// `work` may be `dst` only when n_out == n. Bitwise identical to GemmNN,
/// then stripping the padding, then the epilogue's parts as separate passes.
void GemmNNEpilogue(const float* a, const float* b, float* work, int64_t m,
                    int64_t k, int64_t n, int64_t n_out, const FloatEpilogue& ep,
                    float* dst);

/// C[m,k] (+)= A[m,n] * B[k,n]^T  (i.e. C = A * B^T).
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
            bool accumulate = false);

/// C[k,n] (+)= A[m,k]^T * B[m,n]  (i.e. C = A^T * B).
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

/// Integer GEMM with int32 accumulation: C[m,n] (+)= A[m,k] * B[k,n].
/// Inputs are quantized values stored as int32 (restricted to their bit-width
/// range by the quantizer); used by the Theorem-1 fused path and benches.
void GemmInt32(const int32_t* a, const int32_t* b, int64_t* c, int64_t m, int64_t k,
               int64_t n, bool accumulate = false);

/// Int8-specialized GEMM: C[m,n] = A[m,k] * B[k,n] with int32 accumulation.
/// Operands are quantized codes stored as int8 (any symmetric width <= 8
/// bits), the layout used by the lowered integer serving path. Cache-blocked
/// like GemmNN; int32 never overflows for k < 2^31 / 127^2 (~133k).
void GemmInt8(const int8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t k,
              int64_t n);

/// Number of int16 elements of packed storage PackInt8PairB emits for a
/// [k, n] matrix: ceil(k/2) row pairs of 2n entries each.
inline int64_t PackedPairSize(int64_t k, int64_t n) { return ((k + 1) / 2) * 2 * n; }

/// Packs int8 codes B[k,n] into the pair-interleaved int16 layout consumed
/// by GemmInt8PackedB: P[p][2j + d] = B[2p + d][j] (odd k zero-padded).
/// Pairing two k-steps per column feeds SIMD multiply-add-pairs (vpmaddwd)
/// on x86; weights are packed once at model-compile time.
void PackInt8PairB(const int8_t* b, int64_t k, int64_t n, int16_t* packed);

/// C[m,n] = A[m,k] * B with A int8 row-major and B pre-packed by
/// PackInt8PairB. Exact int32 accumulation (pairing only reassociates an
/// exact sum). Dispatches on common/cpu_features.h (AVX2 vpmaddwd kernel vs
/// portable scalar); every tier computes bitwise-identical int32 sums.
void GemmInt8PackedB(const int8_t* a, const int16_t* packed_b, int32_t* c,
                     int64_t m, int64_t k, int64_t n);

/// Number of int8 elements of packed storage PackInt8QuadB emits for a
/// [k, n] matrix: ceil(k/4) row quads of 4n entries each.
inline int64_t PackedQuadSize(int64_t k, int64_t n) { return ((k + 3) / 4) * 4 * n; }

/// Packs int8 codes B[k,n] into the quad-interleaved layout consumed by the
/// VNNI kernel: Q[q][4j + d] = B[4q + d][j] (k zero-padded to a multiple of
/// 4), plus the per-column correction corr[j] = 128 * sum_k B[k][j] that the
/// kernel subtracts after shifting signed A codes into vpdpbusd's unsigned
/// operand (a + 128). It is wrapped to int32 where it does not fit, which
/// happens only where neither Int8VnniDepthOk(k) nor the step's VNNI
/// certificate holds, so no kernel reads it. Weights are packed once at
/// model-compile/bundle-load.
void PackInt8QuadB(const int8_t* b, int64_t k, int64_t n, int8_t* packed,
                   int32_t* corr);

/// Coarse depth predicate for the VNNI kernel's int32 accumulators: k
/// products of (a + 128) in [1, 255] by |b| <= 127 must fit below 2^31.
/// Tighter than Int8-pair depth (the +128 shift doubles the magnitude).
/// The serving path no longer dispatches on this: the plan checker
/// (engine/plan_verifier.h) certifies each GEMM step from the actual frozen
/// weight codes (Int8PackedWeights::vnni_ok), which is never weaker than
/// this full-scale assumption — the predicate remains for standalone kernel
/// callers (benches, GemmInt8QuadB) and as a debug cross-check at dispatch.
inline bool Int8VnniDepthOk(int64_t k) {
  return k < ((int64_t{1} << 31) - 1) / (255 * 127);
}

/// C[m,n] = A[m,k] * B with B pre-packed by PackInt8QuadB, computed with
/// vpdpbusd (u8 x s8 quad dot): exact int32 accumulation, bitwise identical
/// to GemmInt8PackedB. Requires Int8VnniDepthOk(k); falls back to the
/// vpmaddwd/scalar kernel shape internally when VNNI is not active.
void GemmInt8QuadB(const int8_t* a, const int8_t* quad_b, const int32_t* corr,
                   int32_t* c, int64_t m, int64_t k, int64_t n);

/// Packed int8 weight views of one linear, produced at lowering. `quad` and
/// `corr` may be null (VNNI packing unavailable); `pair` is always set.
/// `vnni_ok` is the per-step certificate from the plan checker
/// (engine/plan_verifier.h): every VNNI partial sum Σ (aᵢ+128)·bᵢ of this
/// step provably fits int32 given the step's source code bound and the
/// frozen weight codes. False (the default) routes dispatch to the
/// vpmaddwd/scalar kernels.
struct Int8PackedWeights {
  const int16_t* pair = nullptr;
  const int8_t* quad = nullptr;
  const int32_t* corr = nullptr;
  bool vnni_ok = false;
};

/// Fused GEMM + requantization: computes A[m,k] * B over the padded width
/// `n`, requantizes the int32 register/row-block accumulators through `ep`
/// and stores int8 codes at the UNPADDED stride `n_out` (columns >= n_out
/// are computed into registers but never emitted, eliminating both the int32
/// scratch round-trip and the padding strip pass). Codes are bitwise
/// identical to GemmInt8PackedB + a separate requant pass: accumulators are
/// exact integers and the epilogue applies the same double-precision
/// arithmetic per element. Dispatches VNNI > vpmaddwd > scalar; the VNNI
/// tier additionally requires w.vnni_ok (the per-step overflow certificate).
void GemmInt8Requant(const int8_t* a, const Int8PackedWeights& w, int64_t m,
                     int64_t k, int64_t n, int64_t n_out,
                     const RequantEpilogue& ep, int8_t* dst);

}  // namespace mixq
