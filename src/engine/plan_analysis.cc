// Copyright 2026 MixQ-GNN Authors
#include "engine/plan_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>


namespace mixq {
namespace engine {

int64_t MaxColumnAbsSum(const int8_t* w, int64_t k, int64_t n) {
  std::vector<int64_t> sums(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < k; ++i) {
    const int8_t* row = w + i * n;
    for (int64_t j = 0; j < n; ++j) {
      sums[static_cast<size_t>(j)] += std::llabs(row[j]);
    }
  }
  int64_t best = 0;
  for (int64_t s : sums) best = std::max(best, s);
  return best;
}

int64_t MaxAbsCode(const int8_t* w, int64_t count) {
  int64_t best = 0;
  for (int64_t i = 0; i < count; ++i) best = std::max<int64_t>(best, std::llabs(w[i]));
  return best;
}

Status CheckGraphAgainstCertificate(const PlanRangeCertificate& cert,
                                    const GraphRangeBounds& bounds) {
  if (!bounds.values_finite) {
    return Status::InvalidArgument(
        "graph adjacency holds non-finite values; quantizing them is "
        "undefined");
  }
  if (bounds.max_row_nnz <= cert.max_spmm_nnz) return Status::OK();
  // The symbolic bound assumed full-scale adjacency codes. This graph's
  // values may sit well below the grid's clip point, in which case its codes
  // are provably smaller and the budget stretches — refine per step before
  // rejecting.
  for (const SpmmRangeCert& sc : cert.spmms) {
    if (bounds.max_row_nnz <= sc.max_nnz) continue;
    int64_t code_max = sc.adj_code_max;
    if (sc.adj_scale > 0.0f) {
      const double ratio = static_cast<double>(bounds.value_abs_max) /
                           static_cast<double>(sc.adj_scale);
      if (ratio < static_cast<double>(code_max)) {
        code_max = std::llround(ratio);
      }
    }
    const int64_t per_entry = code_max * sc.src_code_max;
    const int64_t refined =
        per_entry == 0 ? std::numeric_limits<int64_t>::max()
                       : static_cast<int64_t>(INT32_MAX) / per_entry;
    if (bounds.max_row_nnz > refined) {
      return Status::InvalidArgument(
          "int8 step " + std::to_string(sc.step) +
          " (SpmmRequant): graph max row depth " +
          std::to_string(bounds.max_row_nnz) +
          " exceeds the proven int32 accumulator budget of " +
          std::to_string(refined) + " stored entries (|adj codes| <= " +
          std::to_string(code_max) + ", |src codes| <= " +
          std::to_string(sc.src_code_max) + "); serve fp32");
    }
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace mixq
