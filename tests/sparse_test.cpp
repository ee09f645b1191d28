// Copyright 2026 MixQ-GNN Authors
// Tests for CSR construction, normalizations, SpMM kernels, and the
// differentiable Spmm/SpmmValues ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "quant/quant_params.h"
#include "quant/requant.h"
#include "sparse/csr.h"
#include "sparse/frontier.h"
#include "sparse/reorder.h"
#include "sparse/spmm.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tests/kernel_isa_sweep.h"

namespace mixq {
namespace {

CsrMatrix SmallMatrix() {
  // [[0, 2, 0], [1, 0, 3], [0, 0, 4]]
  return CsrMatrix::FromCoo(3, 3, {{0, 1, 2.0f}, {1, 0, 1.0f}, {1, 2, 3.0f},
                                   {2, 2, 4.0f}});
}

TEST(CsrTest, FromCooBasics) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.RowNnz(0), 1);
  EXPECT_EQ(m.RowNnz(1), 2);
  EXPECT_EQ(m.RowNnz(2), 1);
}

TEST(CsrTest, DuplicatesAreSummed) {
  CsrMatrix m = CsrMatrix::FromCoo(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_FLOAT_EQ(m.values()[0], 3.5f);
}

TEST(CsrTest, ToDenseRoundTrip) {
  auto dense = SmallMatrix().ToDense();
  const std::vector<float> expected = {0, 2, 0, 1, 0, 3, 0, 0, 4};
  ASSERT_EQ(dense.size(), expected.size());
  for (size_t i = 0; i < dense.size(); ++i) EXPECT_FLOAT_EQ(dense[i], expected[i]);
}

TEST(CsrTest, IdentityIsDiagonal) {
  CsrMatrix eye = CsrMatrix::Identity(4);
  EXPECT_EQ(eye.nnz(), 4);
  auto dense = eye.ToDense();
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(dense[static_cast<size_t>(i * 4 + j)], i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(CsrTest, TransposeIsCorrect) {
  CsrMatrix m = SmallMatrix();
  auto td = m.Transpose().ToDense();
  auto d = m.ToDense();
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(td[static_cast<size_t>(j * 3 + i)],
                      d[static_cast<size_t>(i * 3 + j)]);
    }
  }
}

TEST(CsrTest, WithConstantValues) {
  CsrMatrix m = SmallMatrix().WithConstantValues(1.0f);
  for (float v : m.values()) EXPECT_FLOAT_EQ(v, 1.0f);
  EXPECT_EQ(m.nnz(), 4);
}

TEST(GcnNormalizeTest, SymmetricAndSelfLoops) {
  // Undirected path graph 0-1-2.
  CsrMatrix adj = CsrMatrix::FromCoo(
      3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  CsrMatrix norm = GcnNormalize(adj);
  auto d = norm.ToDense();
  // Degrees (with +1 self loop): d0=2, d1=3, d2=2.
  EXPECT_NEAR(d[0], 1.0 / 2.0, 1e-6);                    // (0,0): 1/sqrt(2*2)
  EXPECT_NEAR(d[1], 1.0 / std::sqrt(6.0), 1e-6);         // (0,1)
  EXPECT_NEAR(d[4], 1.0 / 3.0, 1e-6);                    // (1,1)
  // Symmetry of the normalized operator.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(d[static_cast<size_t>(i * 3 + j)], d[static_cast<size_t>(j * 3 + i)],
                  1e-6);
    }
  }
}

TEST(RowNormalizeTest, RowsSumToOne) {
  CsrMatrix adj = SmallMatrix();
  CsrMatrix norm = RowNormalize(adj);
  for (int64_t r = 0; r < norm.rows(); ++r) {
    double s = 0.0;
    for (int64_t k = norm.row_ptr()[static_cast<size_t>(r)];
         k < norm.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      s += norm.values()[static_cast<size_t>(k)];
    }
    if (norm.RowNnz(r) > 0) {
      EXPECT_NEAR(s, 1.0, 1e-6);
    }
  }
}

TEST(SpmmRawTest, MatchesDense) {
  CsrMatrix a = SmallMatrix();
  Tensor x = Tensor::FromVector(Shape(3, 2), {1, 2, 3, 4, 5, 6});
  std::vector<float> y(6);
  SpmmRaw(a, x.data().data(), 2, y.data());
  // Row0 = 2*x1 = (6,8); Row1 = 1*x0 + 3*x2 = (16,20); Row2 = 4*x2 = (20,24).
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
  EXPECT_FLOAT_EQ(y[2], 16.0f);
  EXPECT_FLOAT_EQ(y[3], 20.0f);
  EXPECT_FLOAT_EQ(y[4], 20.0f);
  EXPECT_FLOAT_EQ(y[5], 24.0f);
}

TEST(SpmmRawTest, AccumulateAddsToExisting) {
  CsrMatrix a = CsrMatrix::Identity(2);
  Tensor x = Tensor::FromVector(Shape(2, 1), {1, 2});
  std::vector<float> y = {10.0f, 20.0f};
  SpmmRaw(a, x.data().data(), 1, y.data(), /*accumulate=*/true);
  EXPECT_FLOAT_EQ(y[0], 11.0f);
  EXPECT_FLOAT_EQ(y[1], 22.0f);
}

TEST(SpmmIntTest, IntegerAggregation) {
  CsrMatrix a = SmallMatrix();
  std::vector<int32_t> aq = {2, 1, 3, 4};  // matches stored values
  std::vector<int32_t> x = {1, 2, 3, 4, 5, 6};
  std::vector<int64_t> y(6);
  SpmmInt(a, aq.data(), x.data(), 2, y.data());
  EXPECT_EQ(y[0], 6);
  EXPECT_EQ(y[2], 16);
  EXPECT_EQ(y[5], 24);
}

TEST(SparseOperatorTest, TransposePermutationRethreadsValues) {
  auto op = MakeOperator(SmallMatrix());
  const auto& perm = op->transpose_permutation();
  ASSERT_EQ(static_cast<int64_t>(perm.size()), op->nnz());
  // transpose().values()[i] must equal matrix().values()[perm[i]].
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_FLOAT_EQ(op->transpose().values()[i],
                    op->matrix().values()[static_cast<size_t>(perm[i])]);
  }
}

TEST(SparseOperatorTest, EntryRowsInverseOfRowPtr) {
  auto op = MakeOperator(SmallMatrix());
  const auto& rows = op->entry_rows();
  const auto& m = op->matrix();
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[static_cast<size_t>(r)];
         k < m.row_ptr()[static_cast<size_t>(r + 1)]; ++k) {
      EXPECT_EQ(rows[static_cast<size_t>(k)], r);
    }
  }
}

TEST(SpmmOpTest, GradientThroughX) {
  auto op = MakeOperator(SmallMatrix());
  Rng rng(1);
  Tensor x = Tensor::RandomUniform(Shape(3, 4), &rng, -1.0f, 1.0f);
  auto res = CheckGradient(x, [&] { return Sum(Mul(Spmm(op, x), Spmm(op, x))); });
  EXPECT_TRUE(res.ok()) << res.max_abs_error;
}

TEST(SpmmValuesTest, MatchesPlainSpmmForward) {
  auto op = MakeOperator(SmallMatrix());
  Rng rng(2);
  Tensor x = Tensor::RandomUniform(Shape(3, 3), &rng, -1.0f, 1.0f);
  Tensor values = Tensor::FromVector(Shape(op->nnz()), op->matrix().values());
  Tensor y1 = Spmm(op, x);
  Tensor y2 = SpmmValues(op, values, x);
  for (size_t i = 0; i < y1.data().size(); ++i) {
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-5);
  }
}

TEST(SpmmValuesTest, GradientThroughValuesAndX) {
  auto op = MakeOperator(SmallMatrix());
  Rng rng(3);
  Tensor x = Tensor::RandomUniform(Shape(3, 3), &rng, -1.0f, 1.0f);
  Tensor values = Tensor::RandomUniform(Shape(op->nnz()), &rng, 0.5f, 1.5f);
  values.SetRequiresGrad(true);
  auto rv = CheckGradient(values, [&] { return Sum(Mul(SpmmValues(op, values, x),
                                                       SpmmValues(op, values, x))); });
  EXPECT_TRUE(rv.ok()) << rv.max_abs_error;
  auto rx = CheckGradient(x, [&] { return Sum(Mul(SpmmValues(op, values, x),
                                                  SpmmValues(op, values, x))); });
  EXPECT_TRUE(rx.ok()) << rx.max_abs_error;
}

TEST(SpmmPatternTest, ExternalValuesOverridePattern) {
  CsrMatrix a = SmallMatrix();
  std::vector<float> ones(static_cast<size_t>(a.nnz()), 1.0f);
  Tensor x = Tensor::FromVector(Shape(3, 1), {1, 1, 1});
  std::vector<float> y(3);
  SpmmPattern(a, ones.data(), x.data().data(), 1, y.data());
  // With unit values, each row sums its neighbour count.
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
}

TEST(SpmmOpTest, RectangularOperator) {
  CsrMatrix a = CsrMatrix::FromCoo(2, 4, {{0, 3, 1.0f}, {1, 0, 2.0f}});
  auto op = MakeOperator(a);
  Tensor x = Tensor::FromVector(Shape(4, 1), {1, 2, 3, 4});
  Tensor y = Spmm(op, x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 2.0f);
}

// ---------------------------------------------------------------------------
// Receptive-field frontier utilities (pruned serving).
// ---------------------------------------------------------------------------

TEST(FrontierTest, ExpandFrontierIsSortedDedupedInNeighbourhood) {
  // Row r's stored columns are the in-neighbourhood the next SpMM reads.
  CsrMatrix m = CsrMatrix::FromCoo(
      5, 5, {{0, 1, 1.0f}, {0, 3, 1.0f}, {1, 0, 1.0f}, {3, 3, 1.0f},
             {3, 1, 1.0f}, {4, 2, 1.0f}});
  FrontierWorkspace ws;
  EXPECT_EQ(ExpandFrontier(m, {0}, false, &ws), (std::vector<int64_t>{1, 3}));
  // Overlapping neighbourhoods dedupe; output is sorted.
  EXPECT_EQ(ExpandFrontier(m, {0, 3}, false, &ws), (std::vector<int64_t>{1, 3}));
  // include_rows unions the seed rows (the closed neighbourhood).
  EXPECT_EQ(ExpandFrontier(m, {0, 4}, true, &ws),
            (std::vector<int64_t>{0, 1, 2, 3, 4}));
  // A row with no stored entries (node 2) has an empty open frontier.
  EXPECT_TRUE(ExpandFrontier(m, {2}, false, &ws).empty());
  EXPECT_EQ(RowsNnz(m, {0, 3, 2}), 4);
}

TEST(FrontierTest, WorkspaceEpochsSurviveReuse) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 3, {{0, 1, 1.0f}, {1, 2, 1.0f}});
  FrontierWorkspace ws;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ExpandFrontier(m, {0, 1}, false, &ws),
              (std::vector<int64_t>{1, 2}));
  }
}

TEST(FrontierTest, SortedUnionAndPositions) {
  EXPECT_EQ(SortedUnion({1, 4, 9}, {2, 4, 10}),
            (std::vector<int64_t>{1, 2, 4, 9, 10}));
  EXPECT_EQ(SortedUnion({}, {3, 5}), (std::vector<int64_t>{3, 5}));
  EXPECT_EQ(SortedPositions({2, 9}, {1, 2, 4, 9, 10}),
            (std::vector<int64_t>{1, 3}));
}

TEST(InducedRowsTest, SliceKeepsValuesAndOrderAndRemapsColumns) {
  CsrMatrix m = SmallMatrix();  // [[0,2,0],[1,0,3],[0,0,4]]
  // Global columns (no remap): row i of the slice is row rows[i] of m.
  CsrMatrix sliced = m.InducedRows({1, 2}, nullptr, 0);
  EXPECT_EQ(sliced.rows(), 2);
  EXPECT_EQ(sliced.cols(), 3);
  auto dense = sliced.ToDense();
  const std::vector<float> expected = {1, 0, 3, 0, 0, 4};
  ASSERT_EQ(dense.size(), expected.size());
  for (size_t i = 0; i < dense.size(); ++i) EXPECT_FLOAT_EQ(dense[i], expected[i]);

  // Remapped columns: frontier {0, 2} -> local positions {0, 1}. Entry
  // order within a row is preserved (ascending original column), which is
  // what keeps per-row SpMM accumulation bitwise identical.
  std::vector<int64_t> remap = {0, -1, 1};
  CsrMatrix local = m.InducedRows({1, 2}, remap.data(), 2);
  EXPECT_EQ(local.cols(), 2);
  auto local_dense = local.ToDense();
  const std::vector<float> local_expected = {1, 3, 0, 4};
  ASSERT_EQ(local_dense.size(), local_expected.size());
  for (size_t i = 0; i < local_dense.size(); ++i) {
    EXPECT_FLOAT_EQ(local_dense[i], local_expected[i]);
  }
}

TEST(InducedRowsTest, SpmmOnSliceMatchesFullRows) {
  // Bitwise contract at the kernel level: SpMM over an induced slice equals
  // the same rows of the full SpMM, exactly.
  CsrMatrix m = CsrMatrix::FromCoo(
      6, 6, {{0, 1, 0.3f}, {0, 4, -1.2f}, {1, 0, 2.0f}, {2, 2, 0.7f},
             {3, 5, 1.1f}, {3, 0, -0.4f}, {5, 3, 0.9f}});
  const int64_t f = 5;
  std::vector<float> x(static_cast<size_t>(6 * f));
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.1f * static_cast<float>(i) - 1.3f;
  std::vector<float> full(static_cast<size_t>(6 * f));
  SpmmRaw(m, x.data(), f, full.data());

  const std::vector<int64_t> rows = {0, 3, 5};
  FrontierWorkspace ws;
  std::vector<int64_t> frontier = ExpandFrontier(m, rows, false, &ws);
  ws.EnsureSize(6);
  for (size_t j = 0; j < frontier.size(); ++j) ws.pos[frontier[j]] = j;
  CsrMatrix sliced =
      m.InducedRows(rows, ws.pos.data(), static_cast<int64_t>(frontier.size()));
  // Gather the frontier's feature rows into local order.
  std::vector<float> x_local(frontier.size() * static_cast<size_t>(f));
  for (size_t j = 0; j < frontier.size(); ++j) {
    std::copy_n(x.data() + frontier[j] * f, f, x_local.data() + j * f);
  }
  std::vector<float> pruned(rows.size() * static_cast<size_t>(f));
  SpmmRaw(sliced, x_local.data(), f, pruned.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t c = 0; c < f; ++c) {
      EXPECT_EQ(pruned[i * f + c], full[rows[i] * f + c])
          << "row " << rows[i] << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Locality reordering (sparse/reorder.h).
// ---------------------------------------------------------------------------

/// A small irregular graph with a hub (node 1), a pendant chain, and an
/// isolated node (5) — exercises degree ties, BFS restarts, and empty rows.
CsrMatrix ReorderFixture() {
  return CsrMatrix::FromCoo(
      6, 6, {{0, 1, 0.5f}, {1, 0, 0.5f}, {1, 2, -1.0f}, {1, 4, 2.0f},
             {2, 1, -1.0f}, {2, 3, 0.25f}, {3, 2, 0.25f}, {4, 1, 2.0f}});
}

void ExpectPermutation(const std::vector<int64_t>& order, int64_t n) {
  ASSERT_EQ(static_cast<int64_t>(order.size()), n);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int64_t p : order) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[static_cast<size_t>(p)]) << "duplicate id " << p;
    seen[static_cast<size_t>(p)] = true;
  }
}

TEST(ReorderTest, DegreeSortOrderIsDescendingAndStable) {
  CsrMatrix m = ReorderFixture();
  std::vector<int64_t> order = DegreeSortOrder(m);
  ExpectPermutation(order, 6);
  for (size_t p = 0; p + 1 < order.size(); ++p) {
    const int64_t a = m.RowNnz(order[p]), b = m.RowNnz(order[p + 1]);
    EXPECT_GE(a, b);
    // Stable ties: equal degrees keep ascending old ids.
    if (a == b) {
      EXPECT_LT(order[p], order[p + 1]);
    }
  }
  EXPECT_EQ(order[0], 1);  // the hub (degree 3) leads
}

TEST(ReorderTest, RcmOrderCoversEveryComponent) {
  CsrMatrix m = ReorderFixture();
  std::vector<int64_t> order = RcmOrder(m);
  ExpectPermutation(order, 6);
  // RCM on one path graph: the classic bandwidth result is that neighbours
  // land at adjacent new ids. Check the max |new(u) - new(v)| over edges
  // of the connected chain 0-1-2-3 plus 1-4 stays small (≤ 2 here).
  std::vector<int64_t> new_of_old(6);
  for (size_t p = 0; p < order.size(); ++p) new_of_old[static_cast<size_t>(order[p])] = static_cast<int64_t>(p);
  const auto& row_ptr = m.row_ptr();
  const auto& cols = m.col_idx();
  int64_t bandwidth = 0;
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t k = row_ptr[static_cast<size_t>(r)]; k < row_ptr[static_cast<size_t>(r + 1)]; ++k) {
      bandwidth = std::max(bandwidth,
                           std::abs(new_of_old[static_cast<size_t>(r)] -
                                    new_of_old[static_cast<size_t>(cols[static_cast<size_t>(k)])]));
    }
  }
  EXPECT_LE(bandwidth, 2);
}

// The std::stable_sort formulation of reverse Cuthill-McKee that RcmOrder
// replaced: seeds and each BFS vertex's unvisited neighbours sorted by
// ascending degree, ties in index order.
std::vector<int64_t> ReferenceRcmOrder(const CsrMatrix& a) {
  const int64_t n = a.rows();
  std::vector<int64_t> order;
  std::vector<char> visited(static_cast<size_t>(n), 0);
  std::vector<int64_t> seeds(static_cast<size_t>(n));
  std::iota(seeds.begin(), seeds.end(), int64_t{0});
  auto by_degree = [&a](int64_t x, int64_t y) { return a.RowNnz(x) < a.RowNnz(y); };
  std::stable_sort(seeds.begin(), seeds.end(), by_degree);
  std::vector<int64_t> neighbours;
  for (const int64_t seed : seeds) {
    if (visited[static_cast<size_t>(seed)]) continue;
    visited[static_cast<size_t>(seed)] = 1;
    size_t head = order.size();
    order.push_back(seed);
    while (head < order.size()) {
      const int64_t v = order[head++];
      neighbours.clear();
      for (int64_t k = a.row_ptr()[static_cast<size_t>(v)];
           k < a.row_ptr()[static_cast<size_t>(v + 1)]; ++k) {
        const int64_t c = a.col_idx()[static_cast<size_t>(k)];
        if (!visited[static_cast<size_t>(c)]) {
          visited[static_cast<size_t>(c)] = 1;
          neighbours.push_back(c);
        }
      }
      std::stable_sort(neighbours.begin(), neighbours.end(), by_degree);
      order.insert(order.end(), neighbours.begin(), neighbours.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

// RcmOrder's counting sort of the seeds and its insertion sort of neighbour
// lists (stable sort past 64 entries) reproduce the stable-sort order
// exactly: on seeded random graphs with isolated nodes, many degree ties,
// asymmetric rows, and hubs whose neighbour lists take the long-list path.
TEST(ReorderTest, RcmOrderMatchesStableSortReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int64_t n = rng.UniformInt(1, 400);
    std::vector<CooEntry> entries;
    for (int64_t r = 0; r < n; ++r) {
      if (rng.UniformInt(0, 5) == 0) continue;  // isolated unless linked to
      const int64_t degree =
          rng.UniformInt(0, 9) == 0 ? rng.UniformInt(60, 200) : rng.UniformInt(1, 4);
      for (int64_t d = 0; d < degree; ++d) {
        const int64_t c = rng.UniformInt(0, n - 1);
        entries.push_back({r, c, 1.0f});
        if (seed % 2 == 0) entries.push_back({c, r, 1.0f});  // symmetric half
      }
    }
    const CsrMatrix m = CsrMatrix::FromCoo(n, n, std::move(entries));
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n));
    EXPECT_EQ(RcmOrder(m), ReferenceRcmOrder(m));
  }
}

TEST(PermuteSquareTest, RowsRelocateWithColumnsRemappedInOriginalOrder) {
  CsrMatrix m = ReorderFixture();
  const std::vector<int64_t> new_to_old = {3, 1, 5, 0, 4, 2};
  std::vector<int64_t> new_of_old(6);
  for (size_t p = 0; p < new_to_old.size(); ++p) {
    new_of_old[static_cast<size_t>(new_to_old[p])] = static_cast<int64_t>(p);
  }
  CsrMatrix pm = PermuteSquare(m, new_to_old);
  ASSERT_EQ(pm.rows(), 6);
  ASSERT_EQ(pm.nnz(), m.nnz());
  for (int64_t p = 0; p < 6; ++p) {
    const int64_t old_row = new_to_old[static_cast<size_t>(p)];
    ASSERT_EQ(pm.RowNnz(p), m.RowNnz(old_row));
    const int64_t base_new = pm.row_ptr()[static_cast<size_t>(p)];
    const int64_t base_old = m.row_ptr()[static_cast<size_t>(old_row)];
    for (int64_t k = 0; k < pm.RowNnz(p); ++k) {
      // Entry k keeps its position (original order, NOT re-sorted) and its
      // value; only the column id is rewritten old→new.
      EXPECT_EQ(pm.col_idx()[static_cast<size_t>(base_new + k)],
                new_of_old[static_cast<size_t>(
                    m.col_idx()[static_cast<size_t>(base_old + k)])]);
      EXPECT_EQ(pm.values()[static_cast<size_t>(base_new + k)],
                m.values()[static_cast<size_t>(base_old + k)]);
    }
  }
}

TEST(PermuteSquareTest, SpmmThroughPermutationIsBitwiseInvisible) {
  // The serving contract end-to-end at the kernel level: permute operator
  // and features, SpMM, un-permute the output — bitwise equal to SpMM on
  // the original. Holds for any valid order because each row's accumulation
  // order is preserved.
  CsrMatrix m = ReorderFixture();
  const int64_t f = 7;
  std::vector<float> x(static_cast<size_t>(6 * f));
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.37f * static_cast<float>(i) - 2.1f;
  std::vector<float> y_ref(x.size());
  SpmmRaw(m, x.data(), f, y_ref.data());

  for (const std::vector<int64_t>& order :
       {DegreeSortOrder(m), RcmOrder(m), std::vector<int64_t>{5, 4, 3, 2, 1, 0}}) {
    CsrMatrix pm = PermuteSquare(m, order);
    std::vector<float> x_perm(x.size());
    for (size_t p = 0; p < order.size(); ++p) {
      std::copy_n(x.data() + order[p] * f, f, x_perm.data() + p * f);
    }
    std::vector<float> y_perm(x.size());
    SpmmRaw(pm, x_perm.data(), f, y_perm.data());
    for (size_t p = 0; p < order.size(); ++p) {
      for (int64_t c = 0; c < f; ++c) {
        EXPECT_EQ(y_perm[p * f + static_cast<size_t>(c)],
                  y_ref[static_cast<size_t>(order[p] * f) + static_cast<size_t>(c)]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused int8 SpMM requant epilogue.
// ---------------------------------------------------------------------------

// The fusion contract: requantizing each row's feature tile inside the SpMM
// emits exactly the codes of the two-pass shape — SpmmInt8's exact int32
// aggregate, then a plain per-element CodeEmitter pass — on every kernel
// tier, across feature widths on both sides of the column-tile width, over
// a CSR whose empty rows (leading, inner and trailing) aggregate to zero.
TEST(Int8RequantKernels, SpmmInt8RequantMatchesTwoPass) {
  const int64_t n = 40;
  Rng rng(11);
  std::vector<CooEntry> entries;
  for (int64_t r = 1; r + 1 < n; ++r) {
    if (r % 5 == 2) continue;
    const int64_t degree = rng.UniformInt(1, 9);
    for (int64_t d = 0; d < degree; ++d) {
      entries.push_back({r, rng.UniformInt(0, n - 1), 1.0f});
    }
  }
  const CsrMatrix a = CsrMatrix::FromCoo(n, n, std::move(entries));
  std::vector<int8_t> a_q(static_cast<size_t>(a.nnz()));
  for (int8_t& v : a_q) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (int64_t f : {int64_t{1}, int64_t{7}, int64_t{16}, kRequantBlock + 44}) {
    std::vector<int8_t> x(static_cast<size_t>(n * f));
    for (int8_t& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    for (int bits : {4, 8}) {
      SCOPED_TRACE("f=" + std::to_string(f) + " bits=" + std::to_string(bits));
      const QuantParams out_p = ParamsFromRange(-1.0f, 1.0f, bits, true);
      RequantEpilogue ep;
      // Spreads the aggregates over about 1.5x the grid, so codes clip too.
      ep.total = 1.037 * static_cast<double>(out_p.qmax()) / 20000.0;
      ep.emitter = CodeEmitter(out_p);
      ForEachKernelIsa([&] {
        std::vector<int32_t> acc(static_cast<size_t>(n * f));
        SpmmInt8(a, a_q.data(), x.data(), f, acc.data());
        std::vector<int8_t> expect(acc.size());
        for (size_t i = 0; i < acc.size(); ++i) {
          expect[i] = static_cast<int8_t>(
              ep.emitter.Code(ep.total * static_cast<double>(acc[i])));
        }
        std::vector<int8_t> fused(expect.size(), 99);
        SpmmInt8Requant(a, a_q.data(), x.data(), f, ep, fused.data());
        EXPECT_EQ(fused, expect);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Fused fp32 SpMM epilogue.
// ---------------------------------------------------------------------------

std::vector<uint32_t> Bits(const std::vector<float>& v) {
  std::vector<uint32_t> bits(v.size());
  std::memcpy(bits.data(), v.data(), sizeof(float) * v.size());
  return bits;
}

// The separate passes a FloatEpilogue replaces: bias add, fake quantization
// (FakeQuantOp's expression), ReLU.
float TwoPassEpilogue(float v, const float* bias, int64_t j, const QuantParams* q,
                      bool relu) {
  if (bias != nullptr) v = v + bias[j];
  if (q != nullptr) {
    const int32_t code =
        CodeEmitter(*q).Code(static_cast<double>(v) * (1.0 / q->scale));
    v = static_cast<float>(code - q->zero_point) * q->scale;
  }
  if (relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

// The fusion contract of the fp32 SpMMs: applying the epilogue to each
// row's column tile as soon as it is aggregated emits exactly the floats of
// SpmmRaw/SpmmPattern followed by each part as its own pass. Covers widths
// on both sides of the column-tile width (the bias offset of later tiles),
// empty rows (leading, inner and trailing), zero pattern values next to
// inf/NaN features (SpmmPattern skips them, SpmmRaw multiplies them), and
// aggregates on exact .5 code ties.
TEST(FloatEpilogueKernels, SpmmEpilogueMatchesTwoPass) {
  const int64_t n = 40;
  Rng rng(23);
  std::vector<CooEntry> entries;
  for (int64_t r = 1; r + 1 < n; ++r) {
    if (r % 5 == 2) continue;
    const int64_t degree = rng.UniformInt(1, 9);
    for (int64_t d = 0; d < degree; ++d) {
      // Dyadic weights: with dyadic features every aggregate is an exact
      // multiple of 1/8, so odd ones are .5 ties at scale 0.25.
      entries.push_back(
          {r, rng.UniformInt(0, n - 1), 0.5f * static_cast<float>(rng.UniformInt(-2, 2))});
    }
  }
  const CsrMatrix a = CsrMatrix::FromCoo(n, n, std::move(entries));
  std::vector<float> pattern_values = a.values();
  for (size_t k = 0; k < pattern_values.size(); k += 3) pattern_values[k] = 0.0f;
  for (int64_t f : {int64_t{1}, int64_t{7}, int64_t{16}, kRequantBlock + 44}) {
    std::vector<float> x(static_cast<size_t>(n * f));
    for (float& v : x) v = 0.25f * static_cast<float>(rng.UniformInt(-6, 6));
    x[static_cast<size_t>(3 * f)] = std::numeric_limits<float>::quiet_NaN();
    x[static_cast<size_t>(7 * f + f / 2)] = std::numeric_limits<float>::infinity();
    x[static_cast<size_t>(11 * f)] = -std::numeric_limits<float>::infinity();
    std::vector<float> bias(static_cast<size_t>(f));
    for (float& v : bias) v = 0.125f * static_cast<float>(rng.UniformInt(-3, 3));
    for (bool pattern : {false, true}) {
      std::vector<float> acc(static_cast<size_t>(n * f));
      if (pattern) {
        SpmmPattern(a, pattern_values.data(), x.data(), f, acc.data());
      } else {
        SpmmRaw(a, x.data(), f, acc.data());
      }
      for (bool with_bias : {false, true}) {
        for (int bits : {0, 4, 8}) {
          for (bool relu : {false, true}) {
            SCOPED_TRACE("f=" + std::to_string(f) + (pattern ? " pattern" : " raw") +
                         (with_bias ? " bias" : "") + " bits=" +
                         std::to_string(bits) + (relu ? " relu" : ""));
            QuantParams q;
            q.scale = 0.25f;
            q.zero_point = 0;
            q.bits = bits;
            q.symmetric = true;
            FloatEpilogue ep;
            ep.bias = with_bias ? bias.data() : nullptr;
            ep.quantize = bits > 0;
            if (ep.quantize) ep.quant = GridFakeQuant(q);
            ep.relu = relu;
            std::vector<float> expect(acc.size());
            for (int64_t i = 0; i < n; ++i) {
              for (int64_t j = 0; j < f; ++j) {
                expect[static_cast<size_t>(i * f + j)] = TwoPassEpilogue(
                    acc[static_cast<size_t>(i * f + j)], ep.bias, j,
                    ep.quantize ? &q : nullptr, relu);
              }
            }
            std::vector<float> fused(expect.size(), 99.0f);
            if (pattern) {
              SpmmPattern(a, pattern_values.data(), x.data(), f, fused.data(), ep);
            } else {
              SpmmRaw(a, x.data(), f, fused.data(), ep);
            }
            EXPECT_EQ(Bits(fused), Bits(expect));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Narrow-width SpMM paths (feature widths below 16).
// ---------------------------------------------------------------------------

// A graph with isolated nodes, a few deep rows and zero, infinite and NaN
// stored values, large enough that the narrow paths split it into chunks.
CsrMatrix NarrowSweepGraph(Rng* rng) {
  const int64_t n = 900;
  std::vector<CooEntry> entries;
  for (int64_t r = 0; r < n; ++r) {
    if (r % 7 == 3) continue;  // isolated
    const int64_t degree = r % 97 == 5 ? 120 : rng->UniformInt(1, 8);
    for (int64_t d = 0; d < degree; ++d) {
      entries.push_back({r, rng->UniformInt(0, n - 1), rng->Uniform(-1.0f, 1.0f)});
    }
  }
  CsrMatrix a = CsrMatrix::FromCoo(n, n, std::move(entries));
  std::vector<float>& values = a.mutable_values();
  for (size_t k = 0; k < values.size(); k += 11) values[k] = 0.0f;
  values[17] = std::numeric_limits<float>::infinity();
  values[29] = -std::numeric_limits<float>::infinity();
  values[41] = std::numeric_limits<float>::quiet_NaN();
  return a;
}

// Copies the f-wide rows of `narrow` into columns [col0, col0 + f) of rows
// `wide` columns wide; the other columns keep their values.
template <typename T>
void EmbedColumns(const std::vector<T>& narrow, int64_t f, int64_t wide,
                  std::vector<T>* out, int64_t col0 = 0) {
  const int64_t rows = static_cast<int64_t>(narrow.size()) / f;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < f; ++j) {
      (*out)[static_cast<size_t>(r * wide + col0 + j)] =
          narrow[static_cast<size_t>(r * f + j)];
    }
  }
}

// Columns [col0, col0 + f) of rows `wide` columns wide.
template <typename T>
std::vector<T> FirstColumns(const std::vector<T>& wide_rows, int64_t wide, int64_t f,
                            int64_t col0 = 0) {
  const int64_t rows = static_cast<int64_t>(wide_rows.size()) / wide;
  std::vector<T> out(static_cast<size_t>(rows * f));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < f; ++j) {
      out[static_cast<size_t>(r * f + j)] =
          wide_rows[static_cast<size_t>(r * wide + col0 + j)];
    }
  }
  return out;
}

// SpmmRaw and SpmmPattern on the f-wide features `x` against the same
// columns embedded at column `col0` of an f + 16 wide operand (so always
// >= 16): overwriting and accumulating, and with every epilogue
// combination. `bits` maps a result to the bit patterns compared.
void ExpectFloatSpmmMatchesEmbedding(
    const CsrMatrix& a, const std::vector<float>& pattern_values,
    const std::vector<float>& x, int64_t f, int64_t col0, Rng* rng,
    std::vector<uint32_t> (*bits)(const std::vector<float>&)) {
  const int64_t n = a.rows();
  const int64_t wide = f + 16;
  std::vector<float> x_wide(static_cast<size_t>(n * wide));
  for (float& v : x_wide) v = rng->Uniform(-2.0f, 2.0f);
  EmbedColumns(x, f, wide, &x_wide, col0);
  std::vector<float> y0(static_cast<size_t>(n * f));
  for (float& v : y0) v = rng->Uniform(-1.0f, 1.0f);
  std::vector<float> y0_wide(static_cast<size_t>(n * wide), 5.0f);
  EmbedColumns(y0, f, wide, &y0_wide, col0);
  std::vector<float> bias_wide(static_cast<size_t>(wide));
  for (float& v : bias_wide) v = rng->Uniform(-0.5f, 0.5f);
  const std::vector<float> bias(bias_wide.begin() + col0,
                                bias_wide.begin() + col0 + f);
  for (bool pattern : {false, true}) {
    auto spmm = [&](const float* xs, int64_t width, float* y, bool accumulate) {
      if (pattern) {
        SpmmPattern(a, pattern_values.data(), xs, width, y, accumulate);
      } else {
        SpmmRaw(a, xs, width, y, accumulate);
      }
    };
    auto spmm_ep = [&](const float* xs, int64_t width, float* y,
                       const FloatEpilogue& ep) {
      if (pattern) {
        SpmmPattern(a, pattern_values.data(), xs, width, y, ep);
      } else {
        SpmmRaw(a, xs, width, y, ep);
      }
    };
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE("f=" + std::to_string(f) + (pattern ? " pattern" : " raw") +
                   (accumulate ? " accumulate" : ""));
      std::vector<float> y = y0;
      std::vector<float> y_wide = y0_wide;
      spmm(x.data(), f, y.data(), accumulate);
      spmm(x_wide.data(), wide, y_wide.data(), accumulate);
      EXPECT_EQ(bits(y), bits(FirstColumns(y_wide, wide, f, col0)));
    }
    for (bool with_bias : {false, true}) {
      for (int q : {0, 4, 8}) {
        for (bool relu : {false, true}) {
          SCOPED_TRACE("f=" + std::to_string(f) + (pattern ? " pattern" : " raw") +
                       (with_bias ? " bias" : "") + " bits=" + std::to_string(q) +
                       (relu ? " relu" : ""));
          FloatEpilogue ep;
          ep.quantize = q > 0;
          if (ep.quantize) {
            ep.quant = GridFakeQuant(ParamsFromRange(-3.0f, 3.0f, q, true));
          }
          ep.relu = relu;
          FloatEpilogue ep_wide = ep;
          ep.bias = with_bias ? bias.data() : nullptr;
          ep_wide.bias = with_bias ? bias_wide.data() : nullptr;
          std::vector<float> y(static_cast<size_t>(n * f), 99.0f);
          std::vector<float> y_wide(static_cast<size_t>(n * wide), 99.0f);
          spmm_ep(x.data(), f, y.data(), ep);
          spmm_ep(x_wide.data(), wide, y_wide.data(), ep_wide);
          EXPECT_EQ(bits(y), bits(FirstColumns(y_wide, wide, f, col0)));
        }
      }
    }
  }
}

// Every narrow width f = 1..17 against the same columns in an operand
// f + 16 wide, bit for bit. The 16- and 17-wide cases check the boundary
// from the wide side.
TEST(NarrowWidthKernels, FloatSpmmMatchesWideEmbedding) {
  Rng rng(31);
  const CsrMatrix a = NarrowSweepGraph(&rng);
  const int64_t n = a.rows();
  std::vector<float> pattern_values = a.values();
  for (size_t k = 0; k < pattern_values.size(); k += 5) pattern_values[k] = 0.0f;
  pattern_values[3] = std::numeric_limits<float>::quiet_NaN();
  for (int64_t f = 1; f <= 17; ++f) {
    std::vector<float> x(static_cast<size_t>(n * f));
    for (float& v : x) v = rng.Uniform(-2.0f, 2.0f);
    x[static_cast<size_t>(2 * f)] = std::numeric_limits<float>::infinity();
    x[static_cast<size_t>(9 * f)] = std::numeric_limits<float>::quiet_NaN();
    x[static_cast<size_t>(13 * f)] = -std::numeric_limits<float>::infinity();
    ExpectFloatSpmmMatchesEmbedding(a, pattern_values, x, f, /*col0=*/0, &rng, Bits);
  }
}

// The int8 narrow path (f = 1..17) against the generic loop on the same
// columns embedded in an f + 16 wide operand, on every kernel tier.
TEST(NarrowWidthKernels, Int8SpmmRequantMatchesWideEmbedding) {
  Rng rng(37);
  const CsrMatrix a = NarrowSweepGraph(&rng);
  const int64_t n = a.rows();
  std::vector<int8_t> a_q(static_cast<size_t>(a.nnz()));
  for (int8_t& v : a_q) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (size_t k = 0; k < a_q.size(); k += 9) a_q[k] = 0;
  for (int64_t f = 1; f <= 17; ++f) {
    const int64_t wide = f + 16;
    std::vector<int8_t> x(static_cast<size_t>(n * f));
    for (int8_t& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    std::vector<int8_t> x_wide(static_cast<size_t>(n * wide));
    for (int8_t& v : x_wide) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    EmbedColumns(x, f, wide, &x_wide);
    for (int bits : {4, 8}) {
      SCOPED_TRACE("f=" + std::to_string(f) + " bits=" + std::to_string(bits));
      const QuantParams out_p = ParamsFromRange(-1.0f, 1.0f, bits, true);
      RequantEpilogue ep;
      ep.total = 1.037 * static_cast<double>(out_p.qmax()) / 40000.0;
      ep.emitter = CodeEmitter(out_p);
      ForEachKernelIsa([&] {
        std::vector<int8_t> y(static_cast<size_t>(n * f), 99);
        std::vector<int8_t> y_wide(static_cast<size_t>(n * wide), 99);
        SpmmInt8Requant(a, a_q.data(), x.data(), f, ep, y.data());
        SpmmInt8Requant(a, a_q.data(), x_wide.data(), wide, ep, y_wide.data());
        EXPECT_EQ(y, FirstColumns(y_wide, wide, f));
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Wide SpMM paths (feature widths of 16 and more): register-resident column
// passes of 64, 48, 32 and 16 columns plus the f % 16 tail.
// ---------------------------------------------------------------------------

const int64_t kWideWidths[] = {16, 17, 31, 32, 33, 64, 65, 255, 256, 257, 300};

// Bits() with every NaN mapped to one pattern. When two NaNs meet in an
// add, x86 returns the first operand's, and which operand comes first is
// the compiler's choice of register order, which can differ between pass
// widths in a build without -march=native. Every other value, infinities
// and signed zeros included, is compared bit for bit.
std::vector<uint32_t> BitsAnyNan(const std::vector<float>& v) {
  std::vector<uint32_t> bits = Bits(v);
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i])) bits[i] = 0x7fc00000u;
  }
  return bits;
}

// Every wide width against the same columns embedded at column 5 of an
// f + 16 wide operand, so each column lands on another lane of another
// pass shape, over zero, infinite and NaN features and weights. Bit for
// bit, except that a NaN may come out as any NaN (BitsAnyNan).
TEST(WideWidthKernels, FloatSpmmMatchesWideEmbedding) {
  Rng rng(47);
  const CsrMatrix a = NarrowSweepGraph(&rng);
  const int64_t n = a.rows();
  std::vector<float> pattern_values = a.values();
  for (size_t k = 0; k < pattern_values.size(); k += 5) pattern_values[k] = 0.0f;
  pattern_values[3] = std::numeric_limits<float>::quiet_NaN();
  for (int64_t f : kWideWidths) {
    std::vector<float> x(static_cast<size_t>(n * f));
    for (float& v : x) v = rng.Uniform(-2.0f, 2.0f);
    for (size_t i = 0; i < x.size(); i += 13) x[i] = 0.0f;
    x[static_cast<size_t>(2 * f + 1)] = std::numeric_limits<float>::infinity();
    x[static_cast<size_t>(9 * f + f - 1)] = std::numeric_limits<float>::quiet_NaN();
    x[static_cast<size_t>(13 * f + f / 2)] = -std::numeric_limits<float>::infinity();
    ExpectFloatSpmmMatchesEmbedding(a, pattern_values, x, f, /*col0=*/5, &rng,
                                    BitsAnyNan);
  }
}

// The int8 SpMM at every wide width, under every kernel tier: against the
// same columns embedded in a wider operand, and against the exact integer
// sums requantized one element at a time (the unfused SpmmInt8 is checked
// against the same sums).
TEST(WideWidthKernels, Int8SpmmRequantMatchesWideEmbeddingAndExactSums) {
  Rng rng(53);
  const CsrMatrix a = NarrowSweepGraph(&rng);
  const int64_t n = a.rows();
  constexpr int64_t kCol0 = 5;
  std::vector<int8_t> a_q(static_cast<size_t>(a.nnz()));
  for (int8_t& v : a_q) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (size_t k = 0; k < a_q.size(); k += 9) a_q[k] = 0;
  for (int64_t f : kWideWidths) {
    const int64_t wide = f + 16;
    std::vector<int8_t> x(static_cast<size_t>(n * f));
    for (int8_t& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    std::vector<int8_t> x_wide(static_cast<size_t>(n * wide));
    for (int8_t& v : x_wide) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
    EmbedColumns(x, f, wide, &x_wide, kCol0);
    std::vector<int32_t> sums(static_cast<size_t>(n * f), 0);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        for (int64_t j = 0; j < f; ++j) {
          sums[static_cast<size_t>(r * f + j)] +=
              a_q[static_cast<size_t>(k)] * x[static_cast<size_t>(a.col_idx()[k] * f + j)];
        }
      }
    }
    std::vector<int32_t> unfused(sums.size(), 99);
    SpmmInt8(a, a_q.data(), x.data(), f, unfused.data());
    EXPECT_EQ(unfused, sums) << "f=" << f;
    for (int bits : {4, 8}) {
      SCOPED_TRACE("f=" + std::to_string(f) + " bits=" + std::to_string(bits));
      const QuantParams out_p = ParamsFromRange(-1.0f, 1.0f, bits, true);
      RequantEpilogue ep;
      ep.total = 1.037 * static_cast<double>(out_p.qmax()) / 40000.0;
      ep.emitter = CodeEmitter(out_p);
      std::vector<int8_t> expect(sums.size());
      for (size_t i = 0; i < sums.size(); ++i) {
        expect[i] = static_cast<int8_t>(
            ep.emitter.Code(ep.total * static_cast<double>(sums[i])));
      }
      ForEachKernelIsa([&] {
        std::vector<int8_t> y(static_cast<size_t>(n * f), 99);
        std::vector<int8_t> y_wide(static_cast<size_t>(n * wide), 99);
        SpmmInt8Requant(a, a_q.data(), x.data(), f, ep, y.data());
        SpmmInt8Requant(a, a_q.data(), x_wide.data(), wide, ep, y_wide.data());
        EXPECT_EQ(y, expect);
        EXPECT_EQ(y, FirstColumns(y_wide, wide, f, kCol0));
      });
    }
  }
}

}  // namespace
}  // namespace mixq
