// Copyright 2026 MixQ-GNN Authors
#include "engine/compiled_model.h"

#include <cmath>
#include <exception>
#include <utility>

#include "engine/plan_verifier.h"

namespace mixq {
namespace engine {

namespace {

int64_t CountParams(const std::vector<Tensor>& params) {
  int64_t total = 0;
  for (const auto& p : params) total += p.numel();
  return total;
}

// Containment boundary: the executors are where serving runs arbitrary
// compute, so an exception escaping them — a kernel bug, an allocation
// failure growing scratch, an injected fault — must become a typed kInternal
// Status here instead of unwinding into the dispatcher thread and killing
// the process.
template <typename Fn>
Result<Tensor> RunContained(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string(what) + " failed: " + e.what());
  } catch (...) {
    return Status::Internal(std::string(what) +
                            " failed with a non-standard exception");
  }
}

}  // namespace

Result<CompiledModelPtr> CompileModel(const ModelArtifact& artifact) {
  if (artifact.scheme == nullptr) {
    return Status::InvalidArgument("artifact has no quantization scheme");
  }
  const bool is_gcn = artifact.model_kind == NodeModelKind::kGcn;
  if (is_gcn && artifact.gcn == nullptr) {
    return Status::InvalidArgument("artifact declares a GCN but holds no network");
  }
  if (!is_gcn && artifact.sage == nullptr) {
    return Status::InvalidArgument("artifact declares a SAGE but holds no network");
  }

  // Lowering pass: freeze the scheme into a flat, autograd-free plan with
  // compile-time quantized weights. What Lower refuses does not compile.
  std::unique_ptr<ExecutionPlan> plan =
      is_gcn ? ExecutionPlan::Lower(*artifact.gcn, *artifact.scheme)
             : ExecutionPlan::Lower(*artifact.sage, *artifact.scheme);
  if (plan == nullptr) {
    return Status::NotImplemented(
        "scheme '" + artifact.scheme_label +
        "' does not lower: every component needs a frozen per-tensor "
        "quantizer whose codes fit int32 (A2Q's per-node scales and 32-bit "
        "grids have none)");
  }

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->model_kind_ = artifact.model_kind;
  model->info_.scheme_label = artifact.scheme_label;
  model->info_.param_count =
      CountParams(is_gcn ? artifact.gcn->Parameters() : artifact.sage->Parameters());
  model->info_.in_features = is_gcn ? artifact.gcn->config().in_features
                                    : artifact.sage->config().in_features;
  model->info_.out_dim = is_gcn ? artifact.gcn->config().num_classes
                                : artifact.sage->config().num_classes;
  model->info_.lowered_int8 = plan->SupportsInt8();
  model->plan_ = std::move(plan);

  // Machine-checked lowering contract: every plan Lower emits must pass the
  // plan checker. A structural failure is a lowering bug, not a bad model. A
  // value failure is one too — fatal under the verify gate (debug builds,
  // MIXQ_VERIFY=1), otherwise it just disables int8 serving (null
  // certificate) while the bitwise-exact fp32 paths keep working.
  PlanShapes shapes;
  shapes.in_features = model->info_.in_features;
  shapes.out_dim = model->info_.out_dim;
  PlanCheck check = CheckPlan(*model->plan_, shapes);
  if (!check.structure.ok()) {
    return Status::Internal("lowering produced an invalid plan: " +
                            check.structure.message());
  }
  if (check.ranges.ok()) {
    model->range_cert_ =
        std::make_unique<const PlanRangeCertificate>(std::move(check.cert));
  } else if (VerifyPlansEnabled()) {
    return Status::Internal("lowering produced a plan that fails range "
                            "analysis: " + check.ranges.message());
  }

  // Capture the per-component bit assignment as metadata.
  for (const std::string& id : artifact.scheme->ComponentIds()) {
    model->info_.bit_assignment[id] = static_cast<int>(
        std::lround(artifact.scheme->EffectiveBits(id, 32.0)));
  }
  if (artifact.op != nullptr && artifact.features.defined()) {
    BitOpsReport report =
        is_gcn ? artifact.gcn->ComputeBitOps(artifact.features.rows(),
                                             artifact.op->nnz(), *artifact.scheme)
               : artifact.sage->ComputeBitOps(artifact.features.rows(),
                                              artifact.op->nnz(), *artifact.scheme);
    model->info_.avg_bits = report.AverageBits();
  }
  return CompiledModelPtr(model);
}

Status CompiledModel::ValidateRequest(const Tensor& features,
                                      const SparseOperatorPtr& op) const {
  if (!features.defined()) {
    return Status::InvalidArgument("features tensor is undefined");
  }
  if (op == nullptr) return Status::InvalidArgument("sparse operator is null");
  if (features.cols() != info_.in_features) {
    return Status::InvalidArgument(
        "feature dimension mismatch: model expects " +
        std::to_string(info_.in_features) + ", got " +
        std::to_string(features.cols()));
  }
  if (op->matrix().cols() != features.rows()) {
    return Status::InvalidArgument(
        "operator/features mismatch: operator has " +
        std::to_string(op->matrix().cols()) + " columns, features " +
        std::to_string(features.rows()) + " rows");
  }
  return Status::OK();
}

Result<Tensor> CompiledModel::Predict(const Tensor& features,
                                      const SparseOperatorPtr& op) const {
  PredictScratch scratch;
  return Predict(features, op, &scratch);
}

Result<Tensor> CompiledModel::Predict(const Tensor& features,
                                      const SparseOperatorPtr& op,
                                      PredictScratch* scratch) const {
  Status valid = ValidateRequest(features, op);
  if (!valid.ok()) return valid;

  // Lock-free hot path: the plan is immutable, the scratch is caller-owned.
  return RunContained("fp32 forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(Shape(features.rows(), info_.out_dim));
    plan_->Execute(features.data().data(), features.rows(), *op, &scratch->plan,
                   logits.data().data());
    return logits;
  });
}

Result<Tensor> CompiledModel::PredictQuantized(const Tensor& features,
                                               const SparseOperatorPtr& op) const {
  PredictScratch scratch;
  return PredictQuantized(features, op, &scratch);
}

Result<Tensor> CompiledModel::PredictQuantized(const Tensor& features,
                                               const SparseOperatorPtr& op,
                                               PredictScratch* scratch) const {
  Status valid = ValidateRequest(features, op);
  if (!valid.ok()) return valid;
  if (!plan_->SupportsInt8()) {
    return Status::NotImplemented(
        "scheme '" + info_.scheme_label +
        "' has no all-integer lowering (requires symmetric <= 8-bit "
        "quantizers at every component)");
  }
  if (range_cert_ == nullptr) {
    return Status::InvalidArgument(
        "plan has no value-range certificate (range analysis did not "
        "accept it); int8 serving is disabled — use Predict");
  }
  // Proven, per-step graph pairing: the certificate's symbolic SpMM depth
  // budget, refined by this operator's actual value range.
  Status paired =
      CheckGraphAgainstCertificate(*range_cert_, ComputeGraphRangeBounds(*op));
  if (!paired.ok()) return paired;
  return RunContained("int8 forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(Shape(features.rows(), info_.out_dim));
    plan_->ExecuteInt8(features.data().data(), features.rows(), *op,
                       &scratch->plan, logits.data().data());
    return logits;
  });
}

std::unique_ptr<FrontierProgram> CompiledModel::BuildFrontierProgram(
    const SparseOperatorPtr& op, std::vector<int64_t> targets, bool int8,
    FrontierWorkspace* ws, double max_cost_fraction) const {
  if (op == nullptr) return nullptr;
  if (int8 && !plan_->SupportsInt8()) return nullptr;
  return FrontierProgram::Build(*plan_, int8, *op, std::move(targets), ws,
                                max_cost_fraction);
}

Result<Tensor> CompiledModel::PredictPruned(const Tensor& features,
                                            const FrontierProgram& program,
                                            PredictScratch* scratch) const {
  if (!features.defined()) {
    return Status::InvalidArgument("features tensor is undefined");
  }
  if (features.cols() != info_.in_features) {
    return Status::InvalidArgument(
        "feature dimension mismatch: model expects " +
        std::to_string(info_.in_features) + ", got " +
        std::to_string(features.cols()));
  }
  // The program's gathers index features by global node id: a row-count
  // mismatch would read out of bounds, so reject it like every sibling
  // Predict API rejects operator/feature mismatches.
  if (features.rows() != program.graph_nodes()) {
    return Status::InvalidArgument(
        "features/program mismatch: program was built for a graph with " +
        std::to_string(program.graph_nodes()) + " nodes, features have " +
        std::to_string(features.rows()) + " rows");
  }
  // The schedule indexes this plan's step list and buffers: a program built
  // over another plan (another model, or another compile of this one) could
  // name steps, buffers or an int8 lowering this plan does not have.
  if (program.plan() != plan_.get()) {
    return Status::InvalidArgument(
        "program was built over a different model's plan; build it with this "
        "model's BuildFrontierProgram");
  }
  return RunContained("pruned forward", [&]() -> Result<Tensor> {
    Tensor logits = Tensor::Zeros(
        Shape(static_cast<int64_t>(program.targets().size()), info_.out_dim));
    plan_->ExecutePruned(features.data().data(), program, &scratch->plan,
                         logits.data().data());
    return logits;
  });
}

}  // namespace engine
}  // namespace mixq
