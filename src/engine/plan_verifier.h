// Copyright 2026 MixQ-GNN Authors
// Static checking of lowered serving programs.
//
// An ExecutionPlan is an IR: a flat step list over shared scratch buffers,
// interpreted by executors that index buffers, weight tables, and quantizer
// tables without per-step bounds checks — the hot path trusts the plan. That
// trust is earned at three boundaries, and CheckPlan is the pass that earns
// it:
//
//   * end of CompileModel's lowering — a machine-checked contract on every
//     lowering (including future backbones);
//   * inside LoadBundle, UNCONDITIONALLY — bundle bytes are attacker-chosen;
//     the codec validates field-local structure, the checker validates the
//     program's global semantics (dataflow, shape chaining, quantizer
//     coverage) and its values before any executor can run it;
//   * FrontierProgram::Build materialization (VerifyFrontierProgram) — the
//     pruned schedule's row lists, gathers, and induced-CSR remaps must stay
//     in bounds of the frontiers the executors will actually hold.
//
// CheckPlan symbolically executes both step lists once. It tracks, per
// scratch buffer, whether it has been written, its column width, and (int8
// list) the quantization grid of the codes it holds. Every int8 producer
// clamps into its grid, so that grid's qmax also bounds the codes' magnitude:
// the same walk discharges the value obligations (no int32 accumulator can
// overflow, DESIGN.md §2's "accumulation is exact") and emits the
// PlanRangeCertificate (engine/plan_analysis.h) that kernel dispatch and
// graph pairing consume. Violations are typed, step-indexed
// kInvalidArgument; DESIGN.md §6 lists every rule.
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

/// Checks `plan` against DESIGN.md §6: the table pass, then one walk of the
/// fp32 step list and, when the int8 lowering is present, one of the
/// integer step list.
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

/// True when optional checks should run or be fatal (a value violation in
/// CompileModel, FrontierProgram::Build's self-check): always in debug
/// builds (!NDEBUG), in release only with MIXQ_VERIFY=1 in the environment.
/// LoadBundle ignores this and checks unconditionally.
bool VerifyPlansEnabled();

}  // namespace engine
}  // namespace mixq
