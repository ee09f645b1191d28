// Copyright 2026 MixQ-GNN Authors
// Value-range certificates of lowered serving programs.
//
// The plan checker (engine/plan_verifier.h) proves a plan's *values* in a
// certificate pass after the walk that proves its structure, turning
// "accumulation is exact" (DESIGN.md §2) from a convention into a per-plan
// theorem. Every int8 producer clamps into its grid, and each step's source
// grid is, by derivation, the grid last written to its source buffer, so a
// step's source codes are bounded by that grid's qmax. From that bound and
// the step's table entry it establishes, per integer step, that
//
//   (a) no int32 accumulator can overflow — the GEMM bound is the source
//       code bound times the *actual* frozen weight codes' max column
//       |·|-sum, far tighter than the coarse k·127² depth cut;
//   (b) the vpmaddwd int16 pairwise intermediate (a₀b₀ + a₁b₁) and the VNNI
//       kernel's unsigned-shifted partial sums Σ (aᵢ+128)·bᵢ stay in range —
//       the VNNI verdict is a per-step certificate consumed by kernel
//       dispatch in place of the global Int8VnniDepthOk predicate.
//
// This header holds what the walk emits: the certificate types below.
//
// SpMM accumulation depends on the graph, which arrives later: the plan
// carries a SYMBOLIC certificate — `max_spmm_nnz`, the largest per-row
// stored-entry count any registered graph may have — derived from the
// per-step source/adjacency code bounds. Graph-dependent bounds (max row
// nnz, adjacency value range) are computed once per operator
// (SparseOperator::range_bounds, warmed at RegisterGraph) and checked
// against the certificate at pairing time (batcher precision resolution,
// PredictQuantized), falling back to fp32 with a typed, step-indexed
// diagnostic instead of overflowing silently.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sparse/spmm.h"

namespace mixq {
namespace engine {

/// Proven accumulator bounds of one integer GEMM step. `step` indexes the
/// derived plan.int_steps(). All peaks are magnitudes of exact integer
/// quantities.
struct GemmRangeCert {
  size_t step = 0;
  /// Bound on every signed int32 partial sum: src_code_max · max column
  /// |w|-sum. Proven <= INT32_MAX (the checker rejects otherwise).
  int64_t acc_peak = 0;
  /// Bound on the vpmaddwd pairwise intermediate |a₀b₀ + a₁b₁|:
  /// 2 · src_code_max · the largest |code| in the weights. Proven to fit
  /// int16 — with int8 codes on an 8-bit source grid the worst case is
  /// 2·127·128 = 32512.
  int64_t pair_peak = 0;
  /// Bound on the VNNI kernel's unsigned-shifted partial sums
  /// Σᵢ (aᵢ+128)·|bᵢ| <= (src_code_max + 128) · max column |w|-sum.
  int64_t vnni_peak = 0;
  /// vnni_peak <= INT32_MAX: the per-step certificate the vpdpbusd dispatch
  /// consumes (an unsafe step is served by the vpmaddwd/scalar kernels whose
  /// bound is acc_peak — not a plan rejection).
  bool vnni_safe = false;
};

/// Symbolic (graph-independent) accumulator bounds of one integer SpMM step.
struct SpmmRangeCert {
  size_t step = 0;
  int64_t src_code_max = 0;  ///< |source codes| bound: the source grid's qmax
  int64_t adj_code_max = 0;  ///< |adjacency codes| bound from the grid
  float adj_scale = 1.0f;    ///< adjacency grid scale (for value-range refinement)
  /// Largest per-row stored-entry count for which every int32 partial sum
  /// Σ adjᵢ·srcᵢ provably fits: floor(INT32_MAX / (adj_code_max ·
  /// src_code_max)); INT64_MAX when either bound is 0.
  int64_t max_nnz = 0;
};

/// The plan checker's value output (PlanCheck::cert): per-step certificates
/// plus the plan-level symbolic graph bound. A plan with no int8 lowering
/// (or no int8 SpMM) yields max_spmm_nnz == INT64_MAX — any graph pairs
/// with it.
struct PlanRangeCertificate {
  int64_t max_spmm_nnz = INT64_MAX;  ///< min over spmms[].max_nnz
  std::vector<GemmRangeCert> gemms;
  std::vector<SpmmRangeCert> spmms;
};

/// Checks one concrete graph's bounds (SparseOperator::range_bounds, cached
/// per operator) against a plan's symbolic certificate: OK when
/// bounds.max_row_nnz <= cert.max_spmm_nnz, else retries each violated SpMM
/// step with the adjacency code bound REFINED by the graph's actual value
/// range (values far below the grid's clip point quantize to small codes,
/// buying depth). kInvalidArgument naming the first step whose int32
/// accumulator the graph could overflow; also rejects non-finite adjacency
/// values (they would quantize through UB).
Status CheckGraphAgainstCertificate(const PlanRangeCertificate& cert,
                                    const GraphRangeBounds& bounds);

// ---- shared per-step arithmetic --------------------------------------------
// One implementation serves the plan checker, FinalizeDerived's per-step
// VNNI flags, and the boundary tests, so dispatch can never disagree with the
// certificate.

/// max_j Σᵢ |w[i·n + j]| over a row-major [k, n] code matrix: the exact
/// per-output-column magnitude budget of an integer GEMM.
int64_t MaxColumnAbsSum(const int8_t* w, int64_t k, int64_t n);

/// max |w[i]| over `count` codes: the exact per-product magnitude budget of
/// an integer GEMM's weights.
int64_t MaxAbsCode(const int8_t* w, int64_t count);

/// True when every VNNI partial sum Σᵢ (aᵢ+128)·|bᵢ| <= (src_code_max+128) ·
/// col_abs_sum fits int32. Implied by Int8VnniDepthOk(k) (which assumes
/// full-scale 255·127 products); never weaker than it.
inline bool VnniAccumulationSafe(int64_t src_code_max, int64_t col_abs_sum) {
  return (src_code_max + 128) * col_abs_sum <=
         static_cast<int64_t>(INT32_MAX);
}

/// Magnitude bound of the vpmaddwd pairwise intermediate for codes bounded
/// by a_max/w_max: |a₀b₀ + a₁b₁| <= 2·a_max·w_max.
inline int64_t PairIntermediatePeak(int64_t a_max, int64_t w_max) {
  return 2 * a_max * w_max;
}

}  // namespace engine
}  // namespace mixq
