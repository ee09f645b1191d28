// Copyright 2026 MixQ-GNN Authors
// FrontierProgram — the receptive-field pruning of one ExecutionPlan run.
//
// A full-graph forward computes logits for every node; a point query needs
// a handful of rows. Because the only step that mixes rows is the SpMM
// (row v of Â·X reads exactly the stored columns of row v), the rows each
// step must compute can be derived by walking the plan's step list
// BACKWARD from the requested target rows: elementwise steps and the
// row-parallel GEMM need the same rows they produce, an SpMM additionally
// pulls in the in-frontier of its output rows. The result is a per-layer
// shrinking frontier — layer l computes only the rows layer l+1 consumes.
//
// Build() runs that analysis, prices the pruned forward against the full
// one on total step-row counts (empirically, pruned wall time tracks ~2x
// the full forward's per step-row across graph sizes — see the gate
// comment in Build), and refuses (nullptr) when the receptive field covers
// too much of the graph: falling back to the full forward then costs
// nothing extra and keeps the full-logits result cache applicable. When it
// accepts, it materializes per-step row lists, row-induced CSR slices with
// old→new column remaps (CsrMatrix::InducedRows), and gather index lists
// for steps whose input buffer holds a wider frontier than they consume
// (GraphSAGE's root path, and the feature matrix itself).
//
// ExecutionPlan::ExecutePruned runs the program through the same step loop
// as the full forward of its precision, over the program's per-step rows.
// Every kernel in that loop is per-row independent and accumulates in the
// same order for any row universe, so pruned fp32 rows are bitwise identical
// to the same rows of Execute(), and pruned int8 codes are bitwise identical
// to ExecuteInt8()'s.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sparse/csr.h"
#include "sparse/frontier.h"
#include "sparse/spmm.h"

namespace mixq {
namespace engine {

class ExecutionPlan;

class FrontierProgram {
 public:
  /// Analyzes plan-over-op for `targets` (sorted unique node ids, all in
  /// range) and builds the pruned program. `int8` selects the integer step
  /// list (requires plan.SupportsInt8()). Returns nullptr when pruning is
  /// not worthwhile: empty targets, or estimated pruned cost >=
  /// `max_cost_fraction` of the full forward's. `ws` may be null (a
  /// transient workspace is used); the serving engine passes the graph's
  /// pinned workspace so no O(N) allocation happens per request.
  static std::unique_ptr<FrontierProgram> Build(const ExecutionPlan& plan,
                                                bool int8,
                                                const SparseOperator& op,
                                                std::vector<int64_t> targets,
                                                FrontierWorkspace* ws,
                                                double max_cost_fraction);

  /// The plan the program was built over; it runs on that plan only
  /// (CompiledModel::PredictPruned rejects any other).
  const ExecutionPlan* plan() const { return plan_; }
  bool int8() const { return int8_; }
  /// Node count of the graph the program was built against; executing it
  /// requires a feature matrix with exactly this many rows.
  int64_t graph_nodes() const { return graph_nodes_; }
  /// The requested rows, sorted unique — the output row order of
  /// ExecutePruned (row i of the output is node targets()[i]).
  const std::vector<int64_t>& targets() const { return targets_; }

  /// Rows of the feature matrix the first layer reads (the L-hop receptive
  /// field of the targets).
  int64_t input_rows() const { return input_rows_; }
  /// Activation rows computed across all steps / their full-forward total.
  int64_t frontier_rows() const { return frontier_rows_; }
  int64_t full_rows() const { return full_rows_; }
  /// Adjacency entries traversed across all SpMM steps / full total.
  int64_t frontier_nnz() const { return frontier_nnz_; }
  int64_t full_nnz() const { return full_nnz_; }

  /// Execution schedule of one plan step, parallel to the plan's step list.
  struct StepExec {
    /// Global node ids (sorted) this step computes; the step runs with
    /// n = rows.size() instead of the graph's N.
    std::vector<int64_t> rows;
    /// Row gather feeding the step: positions into the src buffer's
    /// frontier, or global ids when src is the feature matrix. Empty =
    /// src already holds exactly `rows` (read it contiguously). Add steps
    /// support no gather — Build CHECKs both operands arrive aligned.
    std::vector<int64_t> gather;
    bool src_is_input = false;     ///< gather indexes the feature matrix
    /// Row-induced adjacency slice (SpMM steps only): rows = `rows`,
    /// columns remapped into the src frontier (or kept global when the
    /// SpMM reads the feature matrix directly).
    CsrMatrix induced;
  };

  /// Per-step schedules, parallel to the plan's selected step list — read by
  /// ExecutionPlan::ExecutePruned and by VerifyFrontierProgram
  /// (engine/plan_verifier.h).
  const std::vector<StepExec>& step_execs() const { return steps_; }

 private:
  FrontierProgram() = default;

  const ExecutionPlan* plan_ = nullptr;
  std::vector<StepExec> steps_;
  std::vector<int64_t> targets_;
  bool int8_ = false;
  int64_t graph_nodes_ = 0;
  int64_t input_rows_ = 0;
  int64_t frontier_rows_ = 0;
  int64_t full_rows_ = 0;
  int64_t frontier_nnz_ = 0;
  int64_t full_nnz_ = 0;
};

}  // namespace engine
}  // namespace mixq
