// Copyright 2026 MixQ-GNN Authors
#include "engine/frontier_plan.h"

#include <algorithm>
#include <utility>

#include "engine/execution_plan.h"

namespace mixq {
namespace engine {

namespace {

/// Row-mixing shape of a plan step, shared by the float and integer step
/// lists. Everything except the SpMM is row-parallel: output row i needs
/// input row i only.
enum class StepKind { kElem, kMatMul, kSpmm, kAdd };

struct StepView {
  StepKind kind = StepKind::kElem;
  int src = 0, src2 = 0, dst = 0;
};

// The per-enum classifiers are the single place a step op maps to its
// row-mixing behaviour; a new op added to either executor enum fails these
// switches' -Wswitch coverage instead of silently defaulting to
// row-parallel (which would make Build skip its frontier expansion).
StepKind Classify(ExecutionPlan::Op op) {
  switch (op) {
    case ExecutionPlan::Op::kQuantize:
    case ExecutionPlan::Op::kRelu:
      return StepKind::kElem;
    case ExecutionPlan::Op::kMatMul:
      return StepKind::kMatMul;
    case ExecutionPlan::Op::kSpmm:
      return StepKind::kSpmm;
    case ExecutionPlan::Op::kAdd:
      return StepKind::kAdd;
  }
  MIXQ_CHECK(false) << "unclassified float step op";
  return StepKind::kElem;
}

StepKind Classify(ExecutionPlan::IntOp op) {
  switch (op) {
    case ExecutionPlan::IntOp::kQuantizeInput:
    case ExecutionPlan::IntOp::kRelu:
      return StepKind::kElem;
    case ExecutionPlan::IntOp::kGemmRequant:
      return StepKind::kMatMul;
    case ExecutionPlan::IntOp::kSpmmRequant:
      return StepKind::kSpmm;
    case ExecutionPlan::IntOp::kAddRequant:
      return StepKind::kAdd;
  }
  MIXQ_CHECK(false) << "unclassified integer step op";
  return StepKind::kElem;
}

template <typename StepT>
std::vector<StepView> FlattenSteps(const std::vector<StepT>& steps) {
  std::vector<StepView> views;
  views.reserve(steps.size());
  for (const StepT& st : steps) {
    views.push_back({Classify(st.op), st.src, st.src2, st.dst});
  }
  return views;
}

}  // namespace

std::unique_ptr<FrontierProgram> FrontierProgram::Build(
    const ExecutionPlan& plan, bool int8, const SparseOperator& op,
    std::vector<int64_t> targets, FrontierWorkspace* ws,
    double max_cost_fraction) {
  if (targets.empty()) return nullptr;
  if (int8) {
    MIXQ_CHECK(plan.SupportsInt8()) << "plan has no int8 lowering";
  }
  FrontierWorkspace transient;
  if (ws == nullptr) ws = &transient;

  const CsrMatrix& a = op.matrix();
  const int64_t n = a.rows();

  // Flatten the selected step list into the row-mixing view.
  const std::vector<StepView> views =
      int8 ? FlattenSteps(plan.int_steps()) : FlattenSteps(plan.steps());
  const int final_buffer = int8 ? plan.int_final_buffer() : plan.final_buffer();
  if (views.empty()) return nullptr;

  // Backward dataflow: walk the steps last-to-first carrying, per buffer,
  // the sorted set of rows still required of it. Each step must compute
  // exactly the rows required of its destination at that point; it fully
  // overwrites dst, and contributes its own input requirement — the same
  // rows for row-parallel steps, the in-frontier for the SpMM.
  std::vector<std::vector<int64_t>> need(static_cast<size_t>(plan.num_buffers()));
  need[static_cast<size_t>(final_buffer)] = targets;
  std::vector<std::vector<int64_t>> step_rows(views.size());
  std::vector<int64_t> input_need;
  // Routing gate bound. The cost model is deliberately plain step-row
  // counts: measured across graph sizes (2k-100k nodes) and target counts
  // (1-512), the pruned forward's wall time — analysis, induced slicing,
  // gathers and all — tracks ~2x the full forward's per step-row
  // processed, almost independent of scale (the pruned path pays per-row
  // setup and poor small-n parallel efficiency; flop-weighted models fit
  // the data WORSE because per-row time is memory-bound, not flop-bound).
  // Re-measured after the fused requant epilogues landed: fusing removes
  // the same int32 round-trip from both the full and pruned int8 forwards,
  // so the ratio holds (~1.9-2.1x across the same sweep) and the constant
  // stays. That fixed ~2x penalty is folded into the caller's
  // max_cost_fraction (default 0.2 -> prune only when >= ~2.4x faster than
  // the full forward, whose logits also feed the result cache).
  const int64_t full_rows_total = static_cast<int64_t>(views.size()) * n;
  const double row_bound = max_cost_fraction * static_cast<double>(full_rows_total);
  int64_t frontier_rows = 0, full_rows = 0, frontier_nnz = 0, full_nnz = 0;
  for (size_t i = views.size(); i-- > 0;) {
    const StepView& v = views[i];
    std::vector<int64_t> t = std::move(need[static_cast<size_t>(v.dst)]);
    need[static_cast<size_t>(v.dst)].clear();
    step_rows[i] = t;
    frontier_rows += static_cast<int64_t>(t.size());
    full_rows += n;
    // The gate: frontiers only widen walking backward, so the moment the
    // running row count crosses the bound the group is full-path bound —
    // return before paying for the remaining (widest) expansions. A loop
    // that completes has frontier_rows < row_bound by construction.
    if (static_cast<double>(frontier_rows) >= row_bound) return nullptr;
    auto contribute = [&](int buf, const std::vector<int64_t>& rows) {
      if (buf == ExecutionPlan::kInput) {
        input_need = SortedUnion(input_need, rows);
      } else {
        std::vector<int64_t>& dst = need[static_cast<size_t>(buf)];
        dst = SortedUnion(dst, rows);
      }
    };
    switch (v.kind) {
      case StepKind::kElem:
      case StepKind::kMatMul:
      case StepKind::kAdd: {
        contribute(v.src, t);
        if (v.kind == StepKind::kAdd) contribute(v.src2, t);
        break;
      }
      case StepKind::kSpmm: {
        frontier_nnz += RowsNnz(a, t);
        full_nnz += a.nnz();
        contribute(v.src, ExpandFrontier(a, t, /*include_rows=*/false, ws));
        break;
      }
    }
  }

  // Forward pass: materialize per-step gathers and induced adjacency
  // slices, tracking the frontier each buffer will actually hold.
  std::unique_ptr<FrontierProgram> program(new FrontierProgram());
  program->plan_ = &plan;
  program->int8_ = int8;
  program->graph_nodes_ = n;
  program->targets_ = std::move(targets);
  program->input_rows_ = static_cast<int64_t>(input_need.size());
  program->frontier_rows_ = frontier_rows;
  program->full_rows_ = full_rows;
  program->frontier_nnz_ = frontier_nnz;
  program->full_nnz_ = full_nnz;
  program->steps_.resize(views.size());
  std::vector<std::vector<int64_t>> frontier(static_cast<size_t>(plan.num_buffers()));
  for (size_t i = 0; i < views.size(); ++i) {
    const StepView& v = views[i];
    StepExec& se = program->steps_[i];
    se.rows = std::move(step_rows[i]);
    if (se.rows.empty()) continue;  // dead step for these targets
    switch (v.kind) {
      case StepKind::kElem:
      case StepKind::kMatMul: {
        if (v.src == ExecutionPlan::kInput) {
          se.src_is_input = true;
          se.gather = se.rows;  // global feature-matrix rows
        } else if (frontier[static_cast<size_t>(v.src)] != se.rows) {
          se.gather = SortedPositions(se.rows, frontier[static_cast<size_t>(v.src)]);
        }
        break;
      }
      case StepKind::kSpmm: {
        if (v.src == ExecutionPlan::kInput) {
          // The slice reads the full feature matrix: keep columns global.
          se.src_is_input = true;
          se.induced = a.InducedRows(se.rows, nullptr, 0);
        } else {
          const std::vector<int64_t>& src_rows =
              frontier[static_cast<size_t>(v.src)];
          ws->EnsureSize(n);
          for (size_t j = 0; j < src_rows.size(); ++j) {
            ws->pos[static_cast<size_t>(src_rows[j])] = static_cast<int64_t>(j);
          }
          se.induced = a.InducedRows(se.rows, ws->pos.data(),
                                     static_cast<int64_t>(src_rows.size()));
        }
        break;
      }
      case StepKind::kAdd: {
        // Both operands are written by row-parallel steps over exactly the
        // rows this add consumes in every lowered topology; a plan shape
        // that breaks this needs gather support here.
        MIXQ_CHECK(v.src != ExecutionPlan::kInput &&
                   v.src2 != ExecutionPlan::kInput);
        MIXQ_CHECK(frontier[static_cast<size_t>(v.src)] == se.rows &&
                   frontier[static_cast<size_t>(v.src2)] == se.rows)
            << "pruned add with misaligned operand frontiers";
        break;
      }
    }
    frontier[static_cast<size_t>(v.dst)] = se.rows;
  }
  MIXQ_CHECK(frontier[static_cast<size_t>(final_buffer)] == program->targets_);
  return program;
}

}  // namespace engine
}  // namespace mixq
