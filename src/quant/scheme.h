// Copyright 2026 MixQ-GNN Authors
// Quantization schemes: the strategy object injected into every GNN layer.
//
// A layer never hard-codes how (or whether) its components are quantized; it
// calls scheme->Quantize(component_id, tensor, kind) at each of the paper's
// quantization points (inputs, learnable parameters, message passing
// adjacency, aggregation outputs, function outputs). Concrete schemes:
//
//   * NoQuantScheme        — FP32 baseline (identity).
//   * UniformQatScheme     — classic QAT at one bit-width everywhere;
//                            optional Degree-Quant protective masking [8].
//   * PerComponentScheme   — a fixed bit-width per component: the quantized
//                            architecture instantiated from a MixQ-selected
//                            sequence S, or a random-assignment baseline.
//   * RelaxedMixQScheme    — (src/core/) the paper's contribution: per
//                            component, a softmax(α)-weighted mixture of
//                            candidate bit-widths, Eq. (6).
//   * A2QScheme            — (src/quant/a2q.h) per-node learnable scales and
//                            bit-widths with a memory penalty [16].
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "quant/fake_quant.h"
#include "tensor/tensor.h"

namespace mixq {

/// What role a component plays inside a layer. Observers and masking differ
/// per kind (weights use min-max symmetric; activations use EMA; DQ protects
/// node-feature rows only).
enum class ComponentKind {
  kInput,      ///< node features entering a layer
  kWeight,     ///< learnable parameter matrix Θ
  kLinearOut,  ///< output of a linear transformation XΘ
  kAdjacency,  ///< edge-weight values of Â (rank-1, aligned with CSR nnz)
  kAggregate,  ///< output of message aggregation ÂX
  kOutput,     ///< final prediction tensor
};

/// Returns a short name for logs/tables.
const char* ComponentKindName(ComponentKind kind);

/// What a scheme does to one component in eval mode, frozen for serving.
/// Produced by QuantScheme::TryLowerComponent and consumed by the engine's
/// compile-time lowering pass (src/engine/execution_plan.h).
struct LoweredComponent {
  bool identity = true;  ///< pass-through (FP32 component)
  QuantParams params;    ///< per-tensor affine fake-quantization otherwise
};

/// Strategy interface; see file comment.
class QuantScheme {
 public:
  virtual ~QuantScheme() = default;

  /// Quantizes (or passes through) one component tensor. `id` must be stable
  /// across steps (e.g. "layer0/weight"). Returning the input tensor handle
  /// unchanged signals "identity" so layers can keep fast FP32 paths.
  virtual Tensor Quantize(const std::string& id, const Tensor& x, ComponentKind kind,
                          bool training) = 0;

  /// Learnable tensors introduced by the scheme itself (relaxation α's,
  /// A2Q scale/bit parameters). Default: none.
  virtual std::vector<Tensor> SchemeParameters() { return {}; }

  /// Differentiable penalty added to the task loss (λ·ΣC(T) for MixQ, the
  /// memory penalty for A2Q). Undefined tensor when the scheme has none.
  virtual Tensor PenaltyLoss() { return Tensor(); }

  /// Effective bit-width of a component for BitOPs accounting. Components
  /// never seen return `fallback` (32 = FP32).
  virtual double EffectiveBits(const std::string& id, double fallback = 32.0) const = 0;

  /// Called once per optimization step before the forward pass; Degree-Quant
  /// resamples its Bernoulli protection mask here.
  virtual void BeginStep(bool /*training*/) {}

  /// All component ids seen so far, in first-use order.
  virtual std::vector<std::string> ComponentIds() const = 0;

  /// For schemes that search or randomize the bit assignment: the concrete
  /// per-component widths currently selected (MixQ's argmax-α sequence S, a
  /// random draw, a fixed map). Empty when not applicable. Lets pipelines
  /// report assignments without downcasting to concrete scheme types.
  virtual std::map<std::string, int> SelectedBits() const { return {}; }

  /// Number of learnable quantization scalars the scheme owns (Table 1's
  /// space-overhead accounting: α's for MixQ, 2n per component for A2Q).
  virtual int64_t QuantParameterCount() const { return 0; }

  /// Scheme-reported average bit-width for result tables; negative means
  /// "derive from BitOps accounting". A2Q overrides with its per-node
  /// learned average.
  virtual double ReportedAverageBits() const { return -1.0; }

  /// Serving-lowering contract: returns true iff the scheme's eval-mode
  /// treatment of component `id` is a *fixed* per-tensor transform — identity
  /// or affine fake-quantization with frozen parameters — and fills `out`
  /// with it. Schemes whose eval behaviour is data- or node-dependent (A2Q's
  /// per-node learned scales, the relaxed search mixture) return false, and
  /// engine::CompileModel then refuses the model. The default is
  /// conservative: not lowerable.
  virtual bool TryLowerComponent(const std::string& /*id*/,
                                 LoweredComponent* /*out*/) const {
    return false;
  }
};

using QuantSchemePtr = std::shared_ptr<QuantScheme>;

/// FP32 baseline: every component passes through untouched.
class NoQuantScheme : public QuantScheme {
 public:
  Tensor Quantize(const std::string& id, const Tensor& x, ComponentKind kind,
                  bool training) override;
  double EffectiveBits(const std::string&, double) const override { return 32.0; }
  std::vector<std::string> ComponentIds() const override { return ids_; }
  bool TryLowerComponent(const std::string& id,
                         LoweredComponent* out) const override;

 private:
  std::vector<std::string> ids_;
};

/// Options shared by the fixed-width schemes.
struct QatOptions {
  /// Observer for activations/aggregates; weights always use min-max.
  ObserverKind activation_observer = ObserverKind::kEma;
  float percentile = 99.9f;
  /// Degree-Quant protective masking of node-feature components [8].
  bool degree_protect = false;
  /// Per-node protection probability (size = num_nodes); required when
  /// degree_protect is set. Built by MakeDegreeProtectionProbs().
  std::vector<double> protect_probs;
  uint64_t mask_seed = 7;
};

/// Classic QAT: a single bit-width for every component.
class UniformQatScheme : public QuantScheme {
 public:
  UniformQatScheme(int bits, QatOptions options = {});

  Tensor Quantize(const std::string& id, const Tensor& x, ComponentKind kind,
                  bool training) override;
  double EffectiveBits(const std::string& id, double fallback) const override;
  void BeginStep(bool training) override;
  std::vector<std::string> ComponentIds() const override { return ids_; }
  bool TryLowerComponent(const std::string& id,
                         LoweredComponent* out) const override;

 private:
  friend class PerComponentScheme;
  int bits_;
  QatOptions options_;
  std::map<std::string, std::unique_ptr<FakeQuantizer>> quantizers_;
  std::vector<std::string> ids_;
  std::vector<uint8_t> current_mask_;
  Rng mask_rng_;
  bool mask_valid_ = false;
};

/// Fixed per-component bit-widths (a selected MixQ sequence S, or a random
/// baseline assignment). Components missing from the map use `default_bits`.
class PerComponentScheme : public QuantScheme {
 public:
  PerComponentScheme(std::map<std::string, int> bits_by_component, int default_bits,
                     QatOptions options = {});

  Tensor Quantize(const std::string& id, const Tensor& x, ComponentKind kind,
                  bool training) override;
  double EffectiveBits(const std::string& id, double fallback) const override;
  void BeginStep(bool training) override;
  std::vector<std::string> ComponentIds() const override { return ids_; }
  bool TryLowerComponent(const std::string& id,
                         LoweredComponent* out) const override;
  std::map<std::string, int> SelectedBits() const override {
    return bits_by_component_;
  }

  const std::map<std::string, int>& assignment() const { return bits_by_component_; }

 private:
  int BitsFor(const std::string& id) const;

  std::map<std::string, int> bits_by_component_;
  int default_bits_;
  QatOptions options_;
  std::map<std::string, std::unique_ptr<FakeQuantizer>> quantizers_;
  std::vector<std::string> ids_;
  std::vector<uint8_t> current_mask_;
  Rng mask_rng_;
  bool mask_valid_ = false;
};

/// Degree-Quant protection probabilities: nodes ranked by in-degree receive
/// Bernoulli protection rates interpolated in [p_min, p_max] (highest degree
/// → p_max). Matches DQ's stochastic full-precision masking [8].
std::vector<double> MakeDegreeProtectionProbs(const std::vector<int64_t>& in_degrees,
                                              double p_min = 0.0, double p_max = 0.2);

/// Shared helper: builds the FakeQuantizer configuration appropriate for a
/// component kind at a given width.
FakeQuantizerConfig MakeComponentConfig(ComponentKind kind, int bits,
                                        const QatOptions& options);

/// True if this kind is a per-node feature tensor eligible for DQ masking.
inline bool IsNodeFeatureKind(ComponentKind kind) {
  return kind == ComponentKind::kInput || kind == ComponentKind::kAggregate ||
         kind == ComponentKind::kLinearOut || kind == ComponentKind::kOutput;
}

}  // namespace mixq
