// Copyright 2026 MixQ-GNN Authors
// Static checking of lowered serving programs.
//
// An ExecutionPlan is an IR: a flat step list over shared scratch buffers,
// interpreted by executors that index buffers, weight tables, and quantizer
// tables without per-step bounds checks — the hot path trusts the plan. That
// trust is earned at two boundaries, in every build, and CheckPlan is the
// pass that earns it:
//
//   * end of CompileModel's lowering — a machine-checked contract on every
//     lowering (including future backbones);
//   * inside LoadBundle — bundle bytes are attacker-chosen; the codec
//     validates field-local structure, the checker validates the program's
//     global semantics (dataflow, shape chaining, quantizer coverage) and
//     its values before any executor can run it.
//
// VerifyFrontierProgram checks a pruned schedule against its plan: its row
// lists, gathers, and induced-CSR remaps must stay in bounds of the
// frontiers the executors will actually hold. FrontierProgram::Build runs on
// every pruned request and does not call it; the tests that build programs
// do.
//
// CheckPlan symbolically executes the fp32 step list once, tracking per
// scratch buffer whether it has been written and its column width. The int8
// program is derived from that list (ExecutionPlan::FinalizeDerived), so its
// dataflow, widths, indices and grids are the fp32 program's and are not
// walked again; one certificate pass over it discharges the value
// obligations the walk cannot see. Every int8 producer clamps into its grid,
// so a step's source grid's qmax bounds its codes: from that and the actual
// frozen codes the pass proves no int32 accumulator can overflow (DESIGN.md
// §2's "accumulation is exact") and emits the PlanRangeCertificate
// (engine/plan_analysis.h) that kernel dispatch and graph pairing consume.
// Violations are typed, step-indexed kInvalidArgument; DESIGN.md §6 lists
// every rule.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "engine/plan_analysis.h"

namespace mixq {
namespace engine {

class ExecutionPlan;
class FrontierProgram;

/// The external shape contract a plan is verified against — what the model's
/// metadata (CompiledModelInfo / bundle INFO section) promises callers.
struct PlanShapes {
  int64_t in_features = 0;  ///< feature width Predict inputs must have
  int64_t out_dim = 0;      ///< logit width Predict outputs will have
};

/// CheckPlan's verdict. A structural violation stops the walk; a value
/// violation is recorded (the first one wins) and the walk goes on, so a
/// later structural violation still decides `structure`.
struct PlanCheck {
  /// OK iff the plan cannot drive the executors out of bounds; otherwise
  /// the first violation ("fp32 step 3 (SpMM): ...", "linear 1: ...").
  Status structure;
  /// Meaningful only when `structure` is OK: the first value violation
  /// ("int8 step 1 (GemmRequant): int32 accumulator can overflow: ..."),
  /// or OK when every value obligation holds.
  Status ranges;
  /// The proven bounds; meaningful only when both verdicts are OK.
  PlanRangeCertificate cert;
};

/// Checks `plan` against DESIGN.md §6: the table pass, one walk of the fp32
/// step list, then the certificate pass over the derived int8 program (when
/// there is one).
PlanCheck CheckPlan(const ExecutionPlan& plan, const PlanShapes& shapes);

/// Statically verifies a materialized pruned schedule against the plan it
/// was built from: per-step row lists sorted, unique, and within the graph;
/// frontier consistency (each step's input rows resolvable from its source
/// buffer's frontier — the monotone ⊆ chain the backward pass derives);
/// gather lists in bounds; induced-CSR shapes and column remaps in bounds of
/// the source frontier; every folded step (ExecutionPlan::Step::folds)
/// scheduled over exactly the rows of the step that absorbed it, with no
/// gather; final frontier == targets. kInvalidArgument names the offending
/// step on failure.
Status VerifyFrontierProgram(const ExecutionPlan& plan,
                             const FrontierProgram& program);

}  // namespace engine
}  // namespace mixq
