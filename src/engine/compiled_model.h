// Copyright 2026 MixQ-GNN Authors
// CompiledModel — the deployment artifact of the third API layer
// (SchemeRegistry → Experiment → engine).
//
// CompileModel() takes the ModelArtifact of a finished node-level Experiment
// (trained network + final quantization scheme) and lowers it
// (engine/execution_plan.h) into a flat, autograd-free ExecutionPlan with
// weights quantized once at compile time, plus the selected per-component
// bit assignment as immutable metadata. A scheme the lowering cannot express
// does not compile (kNotImplemented), so every CompiledModel has a plan, and
// a compiled model and a bundle-loaded one are the same object.
//
// Predict() executes that plan **without any lock** — concurrent requests
// scale across cores, each using its own (reusable) scratch — and returns
// logits bitwise identical to the artifact's eval-mode forward (the parity
// oracle ReplayEvalForward, core/experiment.h). PredictQuantized() runs the
// all-integer executor when available.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/experiment.h"
#include "engine/execution_plan.h"
#include "engine/frontier_plan.h"
#include "engine/plan_analysis.h"
#include "sparse/spmm.h"
#include "tensor/tensor.h"

namespace mixq {
namespace engine {

/// Immutable description of a compiled model (reported by the engine's
/// introspection endpoints and result tables).
struct CompiledModelInfo {
  std::string scheme_label;                   ///< e.g. "MixQ(l=0.1)"
  std::map<std::string, int> bit_assignment;  ///< frozen per-component widths
  double avg_bits = 32.0;     ///< ops-weighted average width (32 = FP32)
  int64_t param_count = 0;    ///< learnable scalars frozen into the model
  int64_t in_features = 0;    ///< expected feature dimension of Predict input
  int64_t out_dim = 0;        ///< logit dimension
  bool lowered_int8 = false;  ///< PredictQuantized (all-integer) available
};

/// Reusable per-thread workspace for Predict/PredictQuantized. Passing one
/// across requests avoids re-allocating activation buffers; a
/// default-constructed scratch is always valid.
struct PredictScratch {
  ExecutionPlan::Scratch plan;
};

class CompiledModel;
using CompiledModelPtr = std::shared_ptr<const CompiledModel>;

/// A frozen, serving-ready quantized GNN.
class CompiledModel {
 public:
  /// Runs one eval-mode forward over a graph: `features` is [n, in_features],
  /// `op` the matching normalized sparse operator (GCN-normalized for GCN
  /// backbones, row-normalized for SAGE — as produced by the training
  /// pipeline). Returns [n, out_dim] logits, bitwise identical to
  /// ReplayEvalForward on the compiled artifact. Lock-free and thread-safe.
  Result<Tensor> Predict(const Tensor& features, const SparseOperatorPtr& op) const;
  /// Same, reusing caller-owned scratch buffers across requests. `scratch`
  /// must not be shared between concurrent callers.
  Result<Tensor> Predict(const Tensor& features, const SparseOperatorPtr& op,
                         PredictScratch* scratch) const;

  /// The all-integer executor: int8 activations and weights, int8-blocked
  /// GEMM, Theorem-1 fused SpMM. Logits agree with Predict up to rounding
  /// ties on each requantization (bounded by the component quantization
  /// steps), not bitwise. kNotImplemented when !info().lowered_int8.
  Result<Tensor> PredictQuantized(const Tensor& features,
                                  const SparseOperatorPtr& op) const;
  Result<Tensor> PredictQuantized(const Tensor& features, const SparseOperatorPtr& op,
                                  PredictScratch* scratch) const;

  /// Builds the receptive-field pruning program for serving only `targets`
  /// (sorted unique node ids, all within `op`'s row range) over `op` —
  /// the per-request analysis behind the batcher's pruned routing. Returns
  /// nullptr when `int8` is asked of a model with no int8 plan, or when the
  /// targets' receptive field would cost >= `max_cost_fraction` of the full
  /// forward (serve full-graph instead; that path also feeds the result
  /// cache). `ws` may be null; the engine passes the registered graph's
  /// pinned workspace.
  std::unique_ptr<FrontierProgram> BuildFrontierProgram(
      const SparseOperatorPtr& op, std::vector<int64_t> targets, bool int8,
      FrontierWorkspace* ws, double max_cost_fraction) const;

  /// Executes a program from BuildFrontierProgram over the full feature
  /// matrix: returns [targets.size(), out_dim] logits, row i = node
  /// targets()[i]. Fp32 programs are bitwise identical to the same rows of
  /// Predict; int8 programs to the same rows of PredictQuantized. The
  /// program must have been built by THIS model's BuildFrontierProgram
  /// (kInvalidArgument otherwise) against an operator consistent with
  /// `features` (same graph).
  Result<Tensor> PredictPruned(const Tensor& features,
                               const FrontierProgram& program,
                               PredictScratch* scratch) const;

  const CompiledModelInfo& info() const { return info_; }

  /// The lowered plan, for introspection and independent re-verification
  /// (engine/plan_verifier.h). Never null.
  const ExecutionPlan* plan() const { return plan_.get(); }

  /// The plan checker's certificate for plan() (engine/plan_analysis.h):
  /// per-step accumulator bounds plus the symbolic graph depth budget that
  /// PredictQuantized and the batcher check each operator against. Never
  /// null: CompileModel and LoadBundle both refuse a plan the analysis does
  /// not accept.
  const PlanRangeCertificate* range_certificate() const {
    return range_cert_.get();
  }

 private:
  friend Result<CompiledModelPtr> CompileModel(const ModelArtifact& artifact);
  // Bundle save/load (engine/model_bundle.h) read and rebuild the plan.
  friend Status SaveBundle(const CompiledModel& model, const std::string& path);
  friend Result<CompiledModelPtr> LoadBundle(const std::string& path);

  CompiledModel() = default;

  Status ValidateRequest(const Tensor& features, const SparseOperatorPtr& op) const;

  CompiledModelInfo info_;
  NodeModelKind model_kind_ = NodeModelKind::kGcn;
  /// Lock-free lowered plan; never null.
  std::unique_ptr<const ExecutionPlan> plan_;
  /// Value-range certificate for plan_; never null. See range_certificate().
  std::unique_ptr<const PlanRangeCertificate> range_cert_;
};

/// Lowers a trained node-level artifact (from ExperimentReport::artifact
/// with keep_artifact set) into an immutable CompiledModel. Fails with
/// kInvalidArgument when the artifact is incomplete (no network / no
/// scheme), and with kNotImplemented, naming the scheme, when
/// ExecutionPlan::Lower refuses it. Only reads the artifact: the plan holds
/// copies of everything it serves.
Result<CompiledModelPtr> CompileModel(const ModelArtifact& artifact);

}  // namespace engine
}  // namespace mixq
