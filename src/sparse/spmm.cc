// Copyright 2026 MixQ-GNN Authors
#include "sparse/spmm.h"

#include <algorithm>
#include <cmath>

#include "tensor/op_utils.h"

namespace mixq {

void SparseOperator::BuildTranspose() const {
  if (transpose_) return;
  const CsrMatrix& m = matrix_;
  const int64_t rows = m.rows(), cols = m.cols(), nnz = m.nnz();
  // Counting-sort CSR transpose that also records the entry permutation.
  std::vector<int64_t> t_row_ptr(static_cast<size_t>(cols + 1), 0);
  for (int64_t k = 0; k < nnz; ++k) {
    t_row_ptr[static_cast<size_t>(m.col_idx()[static_cast<size_t>(k)] + 1)]++;
  }
  for (size_t i = 1; i < t_row_ptr.size(); ++i) t_row_ptr[i] += t_row_ptr[i - 1];
  std::vector<int64_t> t_col_idx(static_cast<size_t>(nnz));
  std::vector<float> t_values(static_cast<size_t>(nnz));
  auto perm = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(nnz));
  std::vector<int64_t> cursor = t_row_ptr;
  auto entry_rows = std::make_shared<std::vector<int64_t>>(static_cast<size_t>(nnz));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = m.row_ptr()[static_cast<size_t>(r)];
         k < m.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      (*entry_rows)[static_cast<size_t>(k)] = r;
      const int64_t c = m.col_idx()[static_cast<size_t>(k)];
      const int64_t pos = cursor[static_cast<size_t>(c)]++;
      t_col_idx[static_cast<size_t>(pos)] = r;
      t_values[static_cast<size_t>(pos)] = m.values()[static_cast<size_t>(k)];
      (*perm)[static_cast<size_t>(pos)] = k;
    }
  }
  // Assemble the transposed CSR via COO round-trip-free construction.
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(nnz));
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t k = t_row_ptr[static_cast<size_t>(c)];
         k < t_row_ptr[static_cast<size_t>(c + 1)]; ++k) {
      entries.push_back({c, t_col_idx[static_cast<size_t>(k)],
                         t_values[static_cast<size_t>(k)]});
    }
  }
  transpose_ = std::make_shared<CsrMatrix>(CsrMatrix::FromCoo(cols, rows, entries));
  // FromCoo sorts by (row, col); our fill order is already (col-major of A) =
  // (row-major of A^T) with ties in original row order, i.e. sorted — so the
  // permutation aligns with the rebuilt CSR as long as there are no duplicate
  // (row, col) pairs, which CsrMatrix::FromCoo would have merged upstream.
  MIXQ_CHECK_EQ(transpose_->nnz(), nnz) << "duplicate entries in sparse pattern";
  transpose_perm_ = std::move(perm);
  entry_rows_ = std::move(entry_rows);
}

const CsrMatrix& SparseOperator::transpose() const {
  BuildTranspose();
  return *transpose_;
}

const std::vector<int64_t>& SparseOperator::transpose_permutation() const {
  BuildTranspose();
  return *transpose_perm_;
}

const std::vector<int64_t>& SparseOperator::entry_rows() const {
  BuildTranspose();
  return *entry_rows_;
}

const GraphRangeBounds& SparseOperator::range_bounds() const {
  std::call_once(range_bounds_once_, [this] {
    GraphRangeBounds bounds;
    const std::vector<int64_t>& row_ptr = matrix_.row_ptr();
    for (size_t r = 1; r < row_ptr.size(); ++r) {
      bounds.max_row_nnz = std::max(bounds.max_row_nnz, row_ptr[r] - row_ptr[r - 1]);
    }
    for (float v : matrix_.values()) {
      if (!std::isfinite(v)) {
        bounds.values_finite = false;
        continue;
      }
      bounds.value_abs_max = std::max(bounds.value_abs_max, std::fabs(v));
    }
    range_bounds_ = bounds;
  });
  return range_bounds_;
}

Tensor Spmm(const SparseOperatorPtr& a, const Tensor& x) {
  MIXQ_CHECK(a != nullptr);
  MIXQ_CHECK_EQ(x.shape().rank(), 2);
  MIXQ_CHECK_EQ(a->cols(), x.rows())
      << "spmm dims " << a->rows() << "x" << a->cols() << " * " << x.shape().ToString();
  const int64_t n = a->rows(), f = x.cols();
  std::vector<float> out(static_cast<size_t>(n * f));
  SpmmRaw(a->matrix(), x.data().data(), f, out.data());
  auto xi = x.impl_ptr();
  return internal::MakeOpResult(
      Shape(n, f), std::move(out), {x}, [a, xi, f](TensorImpl& self) {
        if (!internal::NeedsGrad(*xi)) return;
        xi->EnsureGrad();
        SpmmRaw(a->transpose(), self.grad.data(), f, xi->grad.data(),
                /*accumulate=*/true);
      });
}

Tensor SpmmValues(const SparseOperatorPtr& a, const Tensor& values, const Tensor& x) {
  MIXQ_CHECK(a != nullptr);
  MIXQ_CHECK_EQ(values.numel(), a->nnz());
  MIXQ_CHECK_EQ(x.shape().rank(), 2);
  MIXQ_CHECK_EQ(a->cols(), x.rows());
  const int64_t n = a->rows(), f = x.cols();
  std::vector<float> out(static_cast<size_t>(n * f));
  SpmmPattern(a->matrix(), values.data().data(), x.data().data(), f, out.data());
  auto vi = values.impl_ptr();
  auto xi = x.impl_ptr();
  return internal::MakeOpResult(
      Shape(n, f), std::move(out), {values, x}, [a, vi, xi, f](TensorImpl& self) {
        if (internal::NeedsGrad(*xi)) {
          xi->EnsureGrad();
          // dX += P(values)^T · dY: re-thread the current values through the
          // cached transpose permutation.
          const auto& perm = a->transpose_permutation();
          std::vector<float> vt(static_cast<size_t>(a->nnz()));
          for (size_t i = 0; i < vt.size(); ++i) {
            vt[i] = vi->data[static_cast<size_t>(perm[i])];
          }
          SpmmPattern(a->transpose(), vt.data(), self.grad.data(), f,
                      xi->grad.data(), /*accumulate=*/true);
        }
        if (internal::NeedsGrad(*vi)) {
          vi->EnsureGrad();
          const auto& rows = a->entry_rows();
          const auto& cols = a->matrix().col_idx();
          for (int64_t k = 0; k < a->nnz(); ++k) {
            const float* gy = self.grad.data() + rows[static_cast<size_t>(k)] * f;
            const float* xr = xi->data.data() + cols[static_cast<size_t>(k)] * f;
            double acc = 0.0;
            for (int64_t j = 0; j < f; ++j) acc += static_cast<double>(gy[j]) * xr[j];
            vi->grad[static_cast<size_t>(k)] += static_cast<float>(acc);
          }
        }
      });
}

}  // namespace mixq
