// Copyright 2026 MixQ-GNN Authors
#include "sparse/csr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

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

// The SpMM row loops keep each output row in registers. A row is cut into
// column passes of compile-time width: 64 columns per pass over the row's
// neighbours (four 16-lane tiles; the fp32 or int32 accumulators fill eight
// 256-bit or four 512-bit registers), then one 16-, 32- or 48-column pass
// for the full tiles left, then the f % 16 tail. Each pass seeds its
// accumulators (from y, or zero), adds the neighbours in stored order and
// stores once, so every output element sees the same adds in the same
// order whatever the width: results are bitwise identical across widths
// and to the one-element-at-a-time loop.
constexpr int64_t kSpmmTile = 16;
constexpr int64_t kSpmmPass = 4 * kSpmmTile;

template <int64_t W>
using Width = std::integral_constant<int64_t, W>;

// The column passes of an f-wide row, chosen once per call: T = f % 16 is
// the tail width. A narrow row (f < 16: the class-count-wide output layer of
// node classification) is the tail alone, and its row stride is the
// compile-time T as well.
template <int64_t T, bool kWide>
struct RowShape {
  static constexpr bool kIsWide = kWide;
  static constexpr int64_t Stride(int64_t f) { return kWide ? f : T; }

  // Calls pass(j0, Width<W>{}) over columns [0, width) of a row, where
  // width % 16 == T.
  template <typename Pass>
  static void ForEachPass(int64_t width, const Pass& pass) {
    int64_t j0 = 0;
    if constexpr (kWide) {
      for (; j0 + kSpmmPass <= width; j0 += kSpmmPass) pass(j0, Width<kSpmmPass>{});
      switch ((width - j0) / kSpmmTile) {
        case 3: pass(j0, Width<3 * kSpmmTile>{}); j0 += 3 * kSpmmTile; break;
        case 2: pass(j0, Width<2 * kSpmmTile>{}); j0 += 2 * kSpmmTile; break;
        case 1: pass(j0, Width<kSpmmTile>{}); j0 += kSpmmTile; break;
        default: break;
      }
    }
    if constexpr (T > 0) pass(j0, Width<T>{});
  }
};

// Calls fn(Width<T>{}) with T == t, for 0 <= t < kSpmmTile.
template <int64_t T = 0, typename Fn>
inline void WithTailWidth(int64_t t, const Fn& fn) {
  if constexpr (T + 1 < kSpmmTile) {
    if (t != T) {
      WithTailWidth<T + 1>(t, fn);
      return;
    }
  }
  fn(Width<T>{});
}

// Calls fn(RowShape<...>{}) for f-wide rows.
template <typename Fn>
inline void WithRowShape(int64_t f, const Fn& fn) {
  if (f >= kSpmmTile) {
    WithTailWidth(f % kSpmmTile, [&](auto tail) {
      fn(RowShape<decltype(tail)::value, true>{});
    });
  } else {
    WithTailWidth(f, [&](auto tail) {
      fn(RowShape<decltype(tail)::value, false>{});
    });
  }
}

// One column pass of one row: out[0, W) = (seed ? out : 0) + sum over the
// stored entries k0..k1 of w[k] * x[col_idx[k] * f + j], in stored order.
// `kSkipZero` skips zero weights: SpmmPattern's rule (a zero weight times an
// inf or NaN feature would otherwise poison the row), and a no-op on exact
// integer sums. `x` and `out` point at the pass's first column.
template <int64_t W, bool kSkipZero, typename AccT, typename WT, typename XT>
inline void SpmmColumns(const int64_t* col_idx, const WT* w, int64_t k0,
                        int64_t k1, const XT* x, int64_t f, AccT* out, bool seed) {
  AccT acc[W];
  for (int64_t j = 0; j < W; ++j) acc[j] = seed ? out[j] : AccT{0};
  for (int64_t k = k0; k < k1; ++k) {
    const AccT wk = static_cast<AccT>(w[k]);
    if (kSkipZero && wk == AccT{0}) continue;
    const XT* xr = x + col_idx[k] * f;
    // Emits nothing; as a side effect in the neighbour loop it keeps GCC's
    // -O3 unroll-and-jam from fusing two neighbours into one scalar column
    // loop, which leaves a full tile's column loop vectorized over
    // registers. Narrow tails gain from the jam and keep it.
    if constexpr (W >= kSpmmTile) asm volatile("");
    for (int64_t j = 0; j < W; ++j) acc[j] += wk * static_cast<AccT>(xr[j]);
  }
  for (int64_t j = 0; j < W; ++j) out[j] = acc[j];
}

// Rows per chunk quantum of the whole-matrix SpMMs. A call of less work
// than the pool's threshold runs as one chunk (WorkGrain): it would wake
// the workers for less than the wake costs. Chunk geometry never changes
// results.
constexpr int64_t kSpmmRowGrain = 64;

// Runs rows(r0, r1) over every row of `a` on the pool.
template <typename Rows>
void ForAllRows(const CsrMatrix& a, int64_t f, const Rows& rows) {
  ParallelFor(a.rows(), rows, WorkGrain(a.rows(), kSpmmRowGrain, a.nnz() * f));
}

// The integer SpMMs: exact sums into y at full width, rows in parallel.
template <typename AccT, typename WT, typename XT>
void SpmmIntRows(const CsrMatrix& a, const WT* w, const XT* x, int64_t f, AccT* y) {
  ForAllRows(a, f, [&](int64_t r0, int64_t r1) {
    WithRowShape(f, [&](auto shape) {
      using Shape = decltype(shape);
      const int64_t* row_ptr = a.row_ptr().data();
      const int64_t* col_idx = a.col_idx().data();
      const int64_t stride = Shape::Stride(f);
      for (int64_t r = r0; r < r1; ++r) {
        Shape::ForEachPass(stride, [&](int64_t j0, auto width) {
          SpmmColumns<decltype(width)::value, true>(
              col_idx, w, row_ptr[r], row_ptr[r + 1], x + j0, stride,
              y + r * stride + j0, /*seed=*/false);
        });
      }
    });
  });
}

// The float SpMM behind SpmmRaw and SpmmPattern, with and without an
// epilogue, over rows [r0, r1): one loop, so every shape and every row range
// runs the same code and agrees on every bit, NaN payloads included. `ep`
// (nullable) runs once a row is done: copy and bias per row, fake
// quantization and ReLU once per block of consecutive rows (contiguous in y)
// of about kRequantBlock elements, so a class-count-wide output is not
// epilogued row by row.
template <bool kSkipZero>
void SpmmFloatRows(const CsrMatrix& a, const float* values, const float* x,
                   int64_t f, float* y, bool accumulate, const FloatEpilogue* ep,
                   int64_t r0, int64_t r1) {
  if (f <= 0) return;
  const int64_t rows = std::max<int64_t>(1, kRequantBlock / f);
  WithRowShape(f, [&](auto shape) {
    using Shape = decltype(shape);
    const int64_t* row_ptr = a.row_ptr().data();
    const int64_t* col_idx = a.col_idx().data();
    const int64_t stride = Shape::Stride(f);
    for (int64_t b0 = r0; b0 < r1; b0 += rows) {
      const int64_t b1 = std::min(r1, b0 + rows);
      for (int64_t r = b0; r < b1; ++r) {
        float* yr = y + r * stride;
        Shape::ForEachPass(stride, [&](int64_t j0, auto width) {
          SpmmColumns<decltype(width)::value, kSkipZero>(
              col_idx, values, row_ptr[r], row_ptr[r + 1], x + j0, stride,
              yr + j0, accumulate);
        });
        if (ep != nullptr) ep->CopyBias(yr, yr, /*col=*/0, stride);
      }
      if (ep != nullptr) ep->Pointwise(y + b0 * stride, (b1 - b0) * stride);
    }
  });
}

template <bool kSkipZero>
void SpmmFloat(const CsrMatrix& a, const float* values, const float* x, int64_t f,
               float* y, bool accumulate, const FloatEpilogue* ep) {
  ForAllRows(a, f, [&](int64_t r0, int64_t r1) {
    SpmmFloatRows<kSkipZero>(a, values, x, f, y, accumulate, ep, r0, r1);
  });
}

const FloatEpilogue* NonIdentity(const FloatEpilogue& ep) {
  return ep.Identity() ? nullptr : &ep;
}

}  // namespace

void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y, bool accumulate) {
  SpmmFloat<false>(a, a.values().data(), x, f, y, accumulate, nullptr);
}

void SpmmRaw(const CsrMatrix& a, const float* x, int64_t f, float* y,
             const FloatEpilogue& ep) {
  SpmmFloat<false>(a, a.values().data(), x, f, y, /*accumulate=*/false,
                   NonIdentity(ep));
}

void SpmmRawRows(const CsrMatrix& a, const float* x, int64_t f, float* y,
                 const FloatEpilogue& ep, int64_t r0, int64_t r1) {
  SpmmFloatRows<false>(a, a.values().data(), x, f, y, /*accumulate=*/false,
                       NonIdentity(ep), r0, r1);
}

void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, bool accumulate) {
  SpmmFloat<true>(pattern, values, x, f, y, accumulate, nullptr);
}

void SpmmPattern(const CsrMatrix& pattern, const float* values, const float* x,
                 int64_t f, float* y, const FloatEpilogue& ep) {
  SpmmFloat<true>(pattern, values, x, f, y, /*accumulate=*/false, NonIdentity(ep));
}

void SpmmPatternRows(const CsrMatrix& pattern, const float* values, const float* x,
                     int64_t f, float* y, const FloatEpilogue& ep, int64_t r0,
                     int64_t r1) {
  SpmmFloatRows<true>(pattern, values, x, f, y, /*accumulate=*/false,
                      NonIdentity(ep), r0, r1);
}

void SpmmInt(const CsrMatrix& a, const int32_t* a_q, const int32_t* x, int64_t f,
             int64_t* y) {
  SpmmIntRows(a, a_q, x, f, y);
}

void SpmmInt8(const CsrMatrix& a, const int8_t* a_q, const int8_t* x, int64_t f,
              int32_t* y) {
  SpmmIntRows(a, a_q, x, f, y);
}

void SpmmInt8RequantRows(const CsrMatrix& a, const int8_t* a_q, const int8_t* x,
                         int64_t f, const RequantEpilogue& ep, int8_t* y,
                         int64_t r0, int64_t r1) {
  if (f <= 0) return;
  // A requant pass covers whole rows while they fit kRequantBlock lanes;
  // wider rows are requantized kRequantBlock columns (a multiple of the
  // tile) at a time.
  const int64_t seg = std::min(f, kRequantBlock);
  const int64_t rows = kRequantBlock / seg;
  WithRowShape(f, [&](auto shape) {
    using Shape = decltype(shape);
    const int64_t* row_ptr = a.row_ptr().data();
    const int64_t* col_idx = a.col_idx().data();
    const int64_t stride = Shape::Stride(f);
    int32_t buf[kRequantBlock];
    for (int64_t b0 = r0; b0 < r1; b0 += rows) {
      const int64_t b1 = std::min(r1, b0 + rows);
      for (int64_t s0 = 0; s0 < stride; s0 += seg) {
        const int64_t sw = std::min(seg, stride - s0);
        for (int64_t r = b0; r < b1; ++r) {
          int32_t* out = buf + (r - b0) * sw;
          auto pass = [&](int64_t j0, auto width) {
            SpmmColumns<decltype(width)::value, true>(
                col_idx, a_q, row_ptr[r], row_ptr[r + 1], x + s0 + j0, stride,
                out + j0, /*seed=*/false);
          };
          if constexpr (Shape::kIsWide) {
            if (s0 + sw < stride) {  // a full segment: no tail
              RowShape<0, true>::ForEachPass(sw, pass);
              continue;
            }
          }
          Shape::ForEachPass(sw, pass);
        }
        RequantBlock(buf, (b1 - b0) * sw, ep.total, /*bias=*/nullptr, ep.emitter,
                     y + b0 * stride + s0);
      }
    }
  });
}

void SpmmInt8Requant(const CsrMatrix& a, const int8_t* a_q, const int8_t* x,
                     int64_t f, const RequantEpilogue& ep, int8_t* y) {
  ForAllRows(a, f, [&](int64_t r0, int64_t r1) {
    SpmmInt8RequantRows(a, a_q, x, f, ep, y, r0, r1);
  });
}

}  // namespace mixq
