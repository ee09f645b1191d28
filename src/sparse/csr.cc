// Copyright 2026 MixQ-GNN Authors
#include "sparse/csr.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/parallel.h"

namespace mixq {

CsrMatrix CsrMatrix::FromCoo(int64_t rows, int64_t cols, std::vector<CooEntry> entries) {
  MIXQ_CHECK_GE(rows, 0);
  MIXQ_CHECK_GE(cols, 0);
  for (const auto& e : entries) {
    MIXQ_CHECK_GE(e.row, 0);
    MIXQ_CHECK_LT(e.row, rows);
    MIXQ_CHECK_GE(e.col, 0);
    MIXQ_CHECK_LT(e.col, cols);
  }
  std::sort(entries.begin(), entries.end(), [](const CooEntry& a, const CooEntry& b) {
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows + 1), 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  size_t i = 0;
  while (i < entries.size()) {
    // Merge duplicates by summing.
    int64_t r = entries[i].row, c = entries[i].col;
    float v = entries[i].value;
    size_t j = i + 1;
    while (j < entries.size() && entries[j].row == r && entries[j].col == c) {
      v += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[static_cast<size_t>(r + 1)]++;
    i = j;
  }
  for (size_t r = 1; r < m.row_ptr_.size(); ++r) m.row_ptr_[r] += m.row_ptr_[r - 1];
  return m;
}

Result<CsrMatrix> CsrMatrix::FromParts(int64_t rows, int64_t cols,
                                       std::vector<int64_t> row_ptr,
                                       std::vector<int64_t> col_idx,
                                       std::vector<float> values) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("CSR dimensions must be non-negative");
  }
  // Unsigned arithmetic: `rows` is untrusted, and rows + 1 would be signed
  // overflow UB at INT64_MAX.
  if (static_cast<uint64_t>(row_ptr.size()) != static_cast<uint64_t>(rows) + 1) {
    return Status::InvalidArgument(
        "CSR row_ptr has " + std::to_string(row_ptr.size()) +
        " entries for " + std::to_string(rows) + " rows");
  }
  if (row_ptr.front() != 0) {
    return Status::InvalidArgument("CSR row_ptr must start at 0");
  }
  for (size_t r = 1; r < row_ptr.size(); ++r) {
    if (row_ptr[r] < row_ptr[r - 1]) {
      return Status::InvalidArgument("CSR row_ptr must be non-decreasing");
    }
  }
  const int64_t nnz = row_ptr.back();
  if (static_cast<int64_t>(col_idx.size()) != nnz ||
      static_cast<int64_t>(values.size()) != nnz) {
    return Status::InvalidArgument(
        "CSR arrays disagree: row_ptr implies " + std::to_string(nnz) +
        " entries, col_idx has " + std::to_string(col_idx.size()) +
        ", values has " + std::to_string(values.size()));
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = row_ptr[static_cast<size_t>(r)];
         k < row_ptr[static_cast<size_t>(r + 1)]; ++k) {
      const int64_t c = col_idx[static_cast<size_t>(k)];
      if (c < 0 || c >= cols) {
        return Status::InvalidArgument("CSR column " + std::to_string(c) +
                                       " out of range [0, " +
                                       std::to_string(cols) + ")");
      }
      if (k > row_ptr[static_cast<size_t>(r)] &&
          c <= col_idx[static_cast<size_t>(k - 1)]) {
        return Status::InvalidArgument(
            "CSR columns must be strictly ascending within row " +
            std::to_string(r));
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) entries.push_back({i, i, 1.0f});
  return FromCoo(n, n, std::move(entries));
}

CsrMatrix CsrMatrix::Transpose() const {
  std::vector<CooEntry> entries;
  entries.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r + 1)]; ++k) {
      entries.push_back({col_idx_[static_cast<size_t>(k)], r,
                         values_[static_cast<size_t>(k)]});
    }
  }
  return FromCoo(cols_, rows_, std::move(entries));
}

CsrMatrix CsrMatrix::InducedRows(const std::vector<int64_t>& rows,
                                 const int64_t* col_remap, int64_t new_cols) const {
  CsrMatrix m;
  m.rows_ = static_cast<int64_t>(rows.size());
  m.cols_ = col_remap != nullptr ? new_cols : cols_;
  m.row_ptr_.assign(rows.size() + 1, 0);
  int64_t nnz = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    MIXQ_CHECK_GE(r, 0);
    MIXQ_CHECK_LT(r, rows_);
    nnz += row_ptr_[static_cast<size_t>(r + 1)] - row_ptr_[static_cast<size_t>(r)];
    m.row_ptr_[i + 1] = nnz;
  }
  m.col_idx_.resize(static_cast<size_t>(nnz));
  m.values_.resize(static_cast<size_t>(nnz));
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    const int64_t k0 = row_ptr_[static_cast<size_t>(r)];
    const int64_t count = row_ptr_[static_cast<size_t>(r + 1)] - k0;
    if (count == 0) continue;  // all-empty slices hold data() == nullptr
    int64_t* cols_out = m.col_idx_.data() + m.row_ptr_[i];
    std::memcpy(m.values_.data() + m.row_ptr_[i], values_.data() + k0,
                sizeof(float) * static_cast<size_t>(count));
    if (col_remap == nullptr) {
      std::memcpy(cols_out, col_idx_.data() + k0,
                  sizeof(int64_t) * static_cast<size_t>(count));
    } else {
      for (int64_t k = 0; k < count; ++k) {
        cols_out[k] = col_remap[col_idx_[static_cast<size_t>(k0 + k)]];
      }
    }
  }
  return m;
}

CsrMatrix CsrMatrix::WithConstantValues(float value) const {
  CsrMatrix copy = *this;
  std::fill(copy.values_.begin(), copy.values_.end(), value);
  return copy;
}

std::vector<float> CsrMatrix::ToDense() const {
  std::vector<float> dense(static_cast<size_t>(rows_ * cols_), 0.0f);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r + 1)]; ++k) {
      dense[static_cast<size_t>(r * cols_ + col_idx_[static_cast<size_t>(k)])] +=
          values_[static_cast<size_t>(k)];
    }
  }
  return dense;
}

CsrMatrix GcnNormalize(const CsrMatrix& adjacency) {
  MIXQ_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const int64_t n = adjacency.rows();
  // d_v = 1 + sum of row v of A (the +1 accounts for the added self loop).
  std::vector<double> degree(static_cast<size_t>(n), 1.0);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t k = adjacency.row_ptr()[static_cast<size_t>(r)];
         k < adjacency.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      degree[static_cast<size_t>(r)] += adjacency.values()[static_cast<size_t>(k)];
    }
  }
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(adjacency.nnz() + n));
  auto inv_sqrt = [&](int64_t v) {
    return static_cast<float>(1.0 / std::sqrt(std::max(degree[static_cast<size_t>(v)], 1e-12)));
  };
  for (int64_t r = 0; r < n; ++r) {
    entries.push_back({r, r, inv_sqrt(r) * inv_sqrt(r)});  // self loop of I + A
    for (int64_t k = adjacency.row_ptr()[static_cast<size_t>(r)];
         k < adjacency.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      const int64_t c = adjacency.col_idx()[static_cast<size_t>(k)];
      const float w = adjacency.values()[static_cast<size_t>(k)];
      entries.push_back({r, c, w * inv_sqrt(r) * inv_sqrt(c)});
    }
  }
  return CsrMatrix::FromCoo(n, n, std::move(entries));
}

CsrMatrix RowNormalize(const CsrMatrix& adjacency) {
  const int64_t n = adjacency.rows();
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<size_t>(adjacency.nnz()));
  for (int64_t r = 0; r < n; ++r) {
    double deg = 0.0;
    for (int64_t k = adjacency.row_ptr()[static_cast<size_t>(r)];
         k < adjacency.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      deg += adjacency.values()[static_cast<size_t>(k)];
    }
    if (deg <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / deg);
    for (int64_t k = adjacency.row_ptr()[static_cast<size_t>(r)];
         k < adjacency.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      entries.push_back({r, adjacency.col_idx()[static_cast<size_t>(k)],
                         adjacency.values()[static_cast<size_t>(k)] * inv});
    }
  }
  return CsrMatrix::FromCoo(n, adjacency.cols(), std::move(entries));
}

namespace {

// Feature-column tile width of the SpMM row loops. For wide feature
// matrices, walking a row's whole neighbourhood one column tile at a time
// keeps the Y slice and every gathered X slice inside an L1-sized window
// (a 256-lane tile is 1 KiB of floats) instead of streaming full rows past
// each other. Per output element the k-order is untouched, so tiled results
// are bitwise identical to the unblocked loop; for f <= kSpmmColBlock the
// loop degenerates to the original single pass. Matches kRequantBlock so
// the fused int8 epilogue requantizes exactly one tile at a time.
constexpr int64_t kSpmmColBlock = kRequantBlock;

// The float SpMM row loop behind SpmmRaw and SpmmPattern. `kSkipZero` is
// SpmmPattern's skip of zero-valued entries (a zero weight times an inf or
// NaN feature would otherwise poison the row); SpmmRaw multiplies every
// stored entry. `ep` (nullable) runs on each column tile once the row's
// neighbour loop has passed over it.
template <bool kSkipZero>
void SpmmFloat(const CsrMatrix& a, const float* values, const float* x, int64_t f,
               float* y, bool accumulate, const FloatEpilogue* ep) {
  const int64_t n = a.rows();
  ParallelFor(
      n,
      [&a, values, x, f, y, accumulate, ep](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t k0 = a.row_ptr()[static_cast<size_t>(r)];
          const int64_t k1 = a.row_ptr()[static_cast<size_t>(r + 1)];
          for (int64_t j0 = 0; j0 < f; j0 += kSpmmColBlock) {
            const int64_t jw = std::min<int64_t>(kSpmmColBlock, f - j0);
            float* yr = y + r * f + j0;
            if (!accumulate) std::memset(yr, 0, sizeof(float) * static_cast<size_t>(jw));
            for (int64_t k = k0; k < k1; ++k) {
              const float w = values[k];
              if (kSkipZero && w == 0.0f) continue;
              const float* xr = x + a.col_idx()[static_cast<size_t>(k)] * f + j0;
              for (int64_t j = 0; j < jw; ++j) yr[j] += w * xr[j];
            }
            if (ep != nullptr) ep->ApplyRow(yr, yr, j0, jw);
          }
        }
      },
      /*grain=*/64);
}

}  // namespace

void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y, bool accumulate) {
  SpmmFloat<false>(a, a.values().data(), x, f, y, accumulate, nullptr);
}

void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y,
             const FloatEpilogue& ep) {
  SpmmFloat<false>(a, a.values().data(), x, f, y, /*accumulate=*/false,
                   ep.Identity() ? nullptr : &ep);
}

void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, bool accumulate) {
  SpmmFloat<true>(pattern, values, x, f, y, accumulate, nullptr);
}

void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, const FloatEpilogue& ep) {
  SpmmFloat<true>(pattern, values, x, f, y, /*accumulate=*/false,
                  ep.Identity() ? nullptr : &ep);
}

void SpmmInt(const CsrMatrix& a, const int32_t* a_q, const int32_t* x, int64_t f,
             int64_t* y) {
  const int64_t n = a.rows();
  ParallelFor(
      n,
      [&a, a_q, x, f, y](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          int64_t* yr = y + r * f;
          std::memset(yr, 0, sizeof(int64_t) * static_cast<size_t>(f));
          for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
               k < a.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
            const int64_t w = a_q[k];
            if (w == 0) continue;
            const int32_t* xr = x + a.col_idx()[static_cast<size_t>(k)] * f;
            for (int64_t j = 0; j < f; ++j) yr[j] += w * static_cast<int64_t>(xr[j]);
          }
        }
      },
      /*grain=*/64);
}

void SpmmInt8(const CsrMatrix& a, const int8_t* a_q, const int8_t* x, int64_t f,
              int32_t* y) {
  const int64_t n = a.rows();
  ParallelFor(
      n,
      [&a, a_q, x, f, y](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t k0 = a.row_ptr()[static_cast<size_t>(r)];
          const int64_t k1 = a.row_ptr()[static_cast<size_t>(r + 1)];
          for (int64_t j0 = 0; j0 < f; j0 += kSpmmColBlock) {
            const int64_t jw = std::min<int64_t>(kSpmmColBlock, f - j0);
            int32_t* yr = y + r * f + j0;
            std::memset(yr, 0, sizeof(int32_t) * static_cast<size_t>(jw));
            for (int64_t k = k0; k < k1; ++k) {
              const int32_t w = a_q[k];
              if (w == 0) continue;
              const int8_t* xr = x + a.col_idx()[static_cast<size_t>(k)] * f + j0;
              for (int64_t j = 0; j < jw; ++j) yr[j] += w * static_cast<int32_t>(xr[j]);
            }
          }
        }
      },
      /*grain=*/64);
}

void SpmmInt8Requant(const CsrMatrix& a, const int8_t* a_q, const int8_t* x,
                     int64_t f, const RequantEpilogue& ep, int8_t* y) {
  const int64_t n = a.rows();
  ParallelFor(
      n,
      [&a, a_q, x, f, &ep, y](int64_t r0, int64_t r1) {
        int32_t buf[kRequantBlock];
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t k0 = a.row_ptr()[static_cast<size_t>(r)];
          const int64_t k1 = a.row_ptr()[static_cast<size_t>(r + 1)];
          for (int64_t j0 = 0; j0 < f; j0 += kSpmmColBlock) {
            const int64_t jw = std::min<int64_t>(kSpmmColBlock, f - j0);
            std::memset(buf, 0, sizeof(int32_t) * static_cast<size_t>(jw));
            for (int64_t k = k0; k < k1; ++k) {
              const int32_t w = a_q[k];
              if (w == 0) continue;
              const int8_t* xr = x + a.col_idx()[static_cast<size_t>(k)] * f + j0;
              for (int64_t j = 0; j < jw; ++j) buf[j] += w * static_cast<int32_t>(xr[j]);
            }
            RequantBlock(buf, jw, ep.total, /*bias=*/nullptr, ep.emitter,
                         y + r * f + j0);
          }
        }
      },
      /*grain=*/64);
}

}  // namespace mixq
