// Copyright 2026 MixQ-GNN Authors
#include "sparse/reorder.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace mixq {

namespace {

// Neighbour lists up to this long are ordered by insertion sort.
constexpr std::ptrdiff_t kInsertionSortMax = 64;

}  // namespace

std::vector<int64_t> DegreeSortOrder(const CsrMatrix& a) {
  const int64_t n = a.rows();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::stable_sort(order.begin(), order.end(), [&a](int64_t x, int64_t y) {
    return a.RowNnz(x) > a.RowNnz(y);
  });
  return order;
}

std::vector<int64_t> RcmOrder(const CsrMatrix& a) {
  MIXQ_CHECK_EQ(a.rows(), a.cols());
  const int64_t n = a.rows();
  const int64_t* row_ptr = a.row_ptr().data();
  const int64_t* col_idx = a.col_idx().data();
  auto degree = [row_ptr](int64_t v) { return row_ptr[v + 1] - row_ptr[v]; };
  // Seeds in ascending-degree order so each component starts from a
  // peripheral (minimum-degree) node, the classic CM heuristic. A counting
  // sort by degree, ties in index order: the stable sort's order, in O(n).
  int64_t max_degree = 0;
  for (int64_t v = 0; v < n; ++v) max_degree = std::max(max_degree, degree(v));
  std::vector<int64_t> start(static_cast<size_t>(max_degree + 2), 0);
  for (int64_t v = 0; v < n; ++v) ++start[static_cast<size_t>(degree(v) + 1)];
  for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  std::vector<int64_t> seeds(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    seeds[static_cast<size_t>(start[static_cast<size_t>(degree(v))]++)] = v;
  }

  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<char> visited(static_cast<size_t>(n), 0);
  for (const int64_t seed : seeds) {
    if (visited[static_cast<size_t>(seed)]) continue;
    // BFS; `order` itself is the queue (head chases the tail).
    visited[static_cast<size_t>(seed)] = 1;
    size_t head = order.size();
    order.push_back(seed);
    while (head < order.size()) {
      const int64_t v = order[head++];
      const size_t begin = order.size();
      for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
        const int64_t c = col_idx[k];
        if (!visited[static_cast<size_t>(c)]) {
          visited[static_cast<size_t>(c)] = 1;
          order.push_back(c);
        }
      }
      // Unvisited neighbours by ascending degree, ties in column order. An
      // in-place insertion sort is stable and allocation-free; long lists
      // (hubs of power-law graphs) take the O(d log d) stable sort instead.
      const auto lo = order.begin() + static_cast<std::ptrdiff_t>(begin);
      const auto hi = order.end();
      if (hi - lo > kInsertionSortMax) {
        std::stable_sort(lo, hi, [&degree](int64_t x, int64_t y) {
          return degree(x) < degree(y);
        });
      } else {
        for (auto it = lo; it != hi; ++it) {
          const int64_t u = *it;
          const int64_t du = degree(u);
          auto hole = it;
          for (; hole != lo && degree(*(hole - 1)) > du; --hole) *hole = *(hole - 1);
          *hole = u;
        }
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

CsrMatrix PermuteSquare(const CsrMatrix& a, const std::vector<int64_t>& new_to_old) {
  MIXQ_CHECK_EQ(a.rows(), a.cols());
  const int64_t n = a.rows();
  MIXQ_CHECK_EQ(static_cast<int64_t>(new_to_old.size()), n);
  std::vector<int64_t> old_to_new(static_cast<size_t>(n), -1);
  for (int64_t p = 0; p < n; ++p) {
    const int64_t old = new_to_old[static_cast<size_t>(p)];
    MIXQ_CHECK_GE(old, 0);
    MIXQ_CHECK_LT(old, n);
    MIXQ_CHECK_EQ(old_to_new[static_cast<size_t>(old)], -1);  // must be a permutation
    old_to_new[static_cast<size_t>(old)] = p;
  }
  return a.InducedRows(new_to_old, old_to_new.data(), n);
}

}  // namespace mixq
