// Copyright 2026 MixQ-GNN Authors
// Compressed Sparse Row matrix. The adjacency operator of every GNN layer in
// this repo is a CsrMatrix; SpMM against node-feature tensors is the dominant
// message-passing kernel (Eq. (2) of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "quant/requant.h"

namespace mixq {

/// A single COO entry used when assembling matrices.
struct CooEntry {
  int64_t row = 0;
  int64_t col = 0;
  float value = 1.0f;
};

/// Immutable CSR sparse matrix (FP32 values).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO entries. Duplicate (row, col) entries are summed.
  static CsrMatrix FromCoo(int64_t rows, int64_t cols, std::vector<CooEntry> entries);

  /// Identity matrix of size n.
  static CsrMatrix Identity(int64_t n);

  /// Adopts pre-built CSR arrays, e.g. read back from a graph bundle
  /// (engine/model_bundle.h). Unlike FromCoo this validates instead of
  /// CHECK-crashing — the arrays may come from an untrusted file:
  /// kInvalidArgument unless row_ptr has rows+1 monotone entries starting at
  /// 0, col_idx/values both have row_ptr.back() entries, and every row's
  /// columns are strictly ascending and within [0, cols) (the entry-order
  /// invariant FromCoo establishes and the SpMM kernels' bitwise contracts
  /// rely on). Values are adopted bit-for-bit.
  static Result<CsrMatrix> FromParts(int64_t rows, int64_t cols,
                                     std::vector<int64_t> row_ptr,
                                     std::vector<int64_t> col_idx,
                                     std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// Number of stored entries in row r (the in-neighbourhood size when this
  /// matrix maps messages from columns to rows).
  int64_t RowNnz(int64_t r) const {
    MIXQ_CHECK_GE(r, 0);
    MIXQ_CHECK_LT(r, rows_);
    return row_ptr_[static_cast<size_t>(r + 1)] - row_ptr_[static_cast<size_t>(r)];
  }

  /// Materialized transpose (CSR of A^T). Used for SpMM backward.
  CsrMatrix Transpose() const;

  /// Row-induced slice for receptive-field-pruned forwards: a CSR whose row
  /// i is this matrix's row `rows[i]`, entries kept in their original
  /// (ascending-column) order so per-row SpMM accumulation — and hence the
  /// float result — is bitwise identical to the full matrix. When
  /// `col_remap` is non-null, every stored column id c is rewritten to
  /// col_remap[c] (the old→new frontier position map; each referenced
  /// column must have a valid entry) and the slice has `new_cols` columns;
  /// when null, column ids stay global and `new_cols` is ignored.
  CsrMatrix InducedRows(const std::vector<int64_t>& rows,
                        const int64_t* col_remap, int64_t new_cols) const;

  /// Returns a copy with every stored value replaced by `value`.
  CsrMatrix WithConstantValues(float value) const;

  /// Dense row-major materialization (tests and small examples only).
  std::vector<float> ToDense() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;   // size rows_+1
  std::vector<int64_t> col_idx_;   // size nnz
  std::vector<float> values_;      // size nnz
};

/// GCN renormalization: Â = D^{-1/2} (I + A) D^{-1/2}, with
/// d_v = 1 + Σ_u w_vu (paper §2). `adjacency` must be square.
CsrMatrix GcnNormalize(const CsrMatrix& adjacency);

/// Row-normalization: D^{-1} A (mean aggregator, used by GraphSAGE).
CsrMatrix RowNormalize(const CsrMatrix& adjacency);

/// Raw SpMM kernel: Y[n,f] (+)= A[n,m] * X[m,f], parallel over rows.
void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y,
             bool accumulate = false);

/// Y[n,f] = A·X with a fused fp32 epilogue: each row is final once its
/// register-resident column passes are stored, and gets the epilogue right
/// there, inside the same chunk. Bitwise identical to SpmmRaw followed by
/// the epilogue's parts as separate passes.
void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y,
             const FloatEpilogue& ep);

/// The row-range entry of the overload above: rows [r0, r1) of Y only, on
/// the calling thread. The whole-matrix call runs exactly this over chunks
/// of rows; the serving executor calls it inside its own loop sequence
/// (common/parallel.h). Every row is computed the same way for any range.
void SpmmRawRows(const CsrMatrix& a, const float* x, int64_t f, float* y,
                 const FloatEpilogue& ep, int64_t r0, int64_t r1);

/// Integer SpMM with int64 accumulation: quantized adjacency values `a_q`
/// (aligned with a.col_idx()) times quantized features. Implements the
/// integer product Q_a(A)·Q_x(X) inside Theorem 1.
void SpmmInt(const CsrMatrix& a, const int32_t* a_q, const int32_t* x, int64_t f,
             int64_t* y);

/// Int8-specialized integer SpMM with int32 accumulation: the serving-path
/// variant of SpmmInt for symmetric codes of width <= 8 bits. Safe against
/// overflow for rows with < 2^31 / 127^2 (~133k) stored entries. Each row
/// accumulates in registers over column passes of at most 64 columns; the
/// per-element k-order is the stored order, so results are exact.
void SpmmInt8(const CsrMatrix& a, const int8_t* a_q, const int8_t* x, int64_t f,
              int32_t* y);

/// Fused int8 SpMM + requantization: accumulates rows in registers, gathers
/// them into a stack int32 block of at most kRequantBlock lanes and
/// requantizes it straight to int8 codes through `ep` (ep.bias is ignored;
/// adjacency requant has no bias). The int32 accumulators never touch a
/// scratch matrix. Codes are bitwise
/// identical to SpmmInt8 + a separate requant pass: accumulators are exact
/// integers and the epilogue applies the same double-precision arithmetic.
void SpmmInt8Requant(const CsrMatrix& a, const int8_t* a_q, const int8_t* x,
                     int64_t f, const RequantEpilogue& ep, int8_t* y);

/// SpmmInt8Requant over rows [r0, r1) only, on the calling thread (the
/// row-range entry, as SpmmRawRows).
void SpmmInt8RequantRows(const CsrMatrix& a, const int8_t* a_q, const int8_t* x,
                         int64_t f, const RequantEpilogue& ep, int8_t* y,
                         int64_t r0, int64_t r1);

/// Pattern-level SpMM: Y[n,f] (+)= P·X where P shares `pattern`'s sparsity
/// but takes its numeric values from `values` (size nnz). Lets callers swap
/// values (e.g. fake-quantized adjacency mixtures) without rebuilding CSR.
void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, bool accumulate = false);

/// SpmmPattern (Y overwritten) with a fused fp32 epilogue per row tile, as
/// the SpmmRaw overload above.
void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, const FloatEpilogue& ep);

/// SpmmPattern with an epilogue over rows [r0, r1) only, on the calling
/// thread (the row-range entry, as SpmmRawRows).
void SpmmPatternRows(const CsrMatrix& pattern, const float* values, const float* x,
                     int64_t f, float* y, const FloatEpilogue& ep, int64_t r0,
                     int64_t r1);

}  // namespace mixq
