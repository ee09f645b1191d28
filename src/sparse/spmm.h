// Copyright 2026 MixQ-GNN Authors
// Differentiable sparse-dense matrix multiplication (message passing).
#pragma once

#include <memory>
#include <mutex>

#include "sparse/csr.h"
#include "tensor/tensor.h"

namespace mixq {

/// Graph-side facts the int8 plans' symbolic range certificates are checked
/// against (engine/plan_analysis.h): the deepest row and the adjacency's
/// value range. A row permutation leaves all three unchanged.
struct GraphRangeBounds {
  int64_t max_row_nnz = 0;    ///< deepest row's stored-entry count
  float value_abs_max = 0.0f; ///< max |aᵢⱼ| over stored adjacency entries
  bool values_finite = true;  ///< no NaN/Inf stored entries
};

/// An adjacency operator shared across layers/epochs. Caches the transpose
/// needed by backward so it is built once per graph, not once per call.
class SparseOperator {
 public:
  explicit SparseOperator(CsrMatrix matrix) : matrix_(std::move(matrix)) {}

  const CsrMatrix& matrix() const { return matrix_; }
  /// Lazily built and cached A^T.
  const CsrMatrix& transpose() const;

  /// Permutation mapping transposed-entry order to original entry order:
  /// transpose().values()[i] corresponds to matrix().values()[perm[i]].
  /// Used to re-thread external value vectors through the backward SpMM.
  const std::vector<int64_t>& transpose_permutation() const;

  /// row index of each stored entry k (inverse of row_ptr); cached.
  const std::vector<int64_t>& entry_rows() const;

  /// The matrix's GraphRangeBounds: one O(nnz) scan on first use, then
  /// cached. Safe to call from concurrent serving threads.
  const GraphRangeBounds& range_bounds() const;

  int64_t rows() const { return matrix_.rows(); }
  int64_t cols() const { return matrix_.cols(); }
  int64_t nnz() const { return matrix_.nnz(); }

 private:
  void BuildTranspose() const;

  CsrMatrix matrix_;
  mutable std::shared_ptr<CsrMatrix> transpose_;  // built on first use
  mutable std::shared_ptr<std::vector<int64_t>> transpose_perm_;
  mutable std::shared_ptr<std::vector<int64_t>> entry_rows_;
  mutable std::once_flag range_bounds_once_;
  mutable GraphRangeBounds range_bounds_;
};

using SparseOperatorPtr = std::shared_ptr<SparseOperator>;

/// Wraps a CSR matrix in a shared operator.
inline SparseOperatorPtr MakeOperator(CsrMatrix m) {
  return std::make_shared<SparseOperator>(std::move(m));
}

/// Y = A · X with autograd through X (A is a constant graph operator;
/// dX += A^T · dY). This is the FP32 message-passing primitive of Eq. (2).
Tensor Spmm(const SparseOperatorPtr& a, const Tensor& x);

/// Y = P(values) · X where P shares `a`'s sparsity pattern and `values` is a
/// rank-1 differentiable tensor of size nnz. Gradients flow into both
/// `values` (d/dv_k = <dY[row_k,:], X[col_k,:]>) and `x`. This is how the
/// relaxed quantizer mixes fake-quantized adjacency candidates (Fig. 6)
/// while keeping α differentiable.
Tensor SpmmValues(const SparseOperatorPtr& a, const Tensor& values, const Tensor& x);

}  // namespace mixq
