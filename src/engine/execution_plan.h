// Copyright 2026 MixQ-GNN Authors
// Compile-time lowering of a frozen (net, scheme) pair into a flat,
// autograd-free ExecutionPlan — the hot serving path behind
// CompiledModel::Predict.
//
// Lowering walks the network's eval-mode forward once, asking the scheme to
// freeze every quantization point via QuantScheme::TryLowerComponent, and
// emits ONE step list — the fp32 program — over a small set of reusable
// scratch buffers. Weights are quantized once at compile time (integer codes
// + the exactly matching fake-quantized float view); per-request work is
// reduced to the kernels themselves. Execution holds no lock: concurrent
// requests share nothing but the immutable plan.
//
// The int8 program is not lowered, stored or checked beside it: it is the
// integer-only rewrite of the fp32 program's quantize points (Theorem 1;
// Jacob et al., CVPR 2018), which FinalizeDerived derives after lowering
// and after bundle load. The input's kQuantize becomes kQuantizeInput; each
// kMatMul, kSpmm or kAdd plus the in-place kQuantize after it becomes one
// requantizing step onto that quantizer's grid, reading its source on the
// grid last written to it; kRelu stays kRelu. The int8 program exists iff
// every quantize point and adjacency grid is Int8able, every producer is
// followed by its quantize, and every GEMM's linear has codes and passes
// Int8DepthOk.
//
// Two execution modes, each ONE step loop over the plan's step list for that
// precision. A full forward runs every step over all n rows of the request's
// CSR; a pruned forward (engine/frontier_plan.h) runs the same loop over a
// FrontierProgram's per-step rows, gathers and induced CSRs. The step loop
// sizes the scratch and builds the forward's kernel loops (one per step,
// plus its gathers and adjacency quantizations); they then run as one
// ParallelSequence (common/parallel.h), so a forward wakes the pool once.
//   * Execute()     — float kernels over pre-quantized constants. Performs
//     the same per-element arithmetic in the same order as the training
//     pipeline's eval forward, so logits are bitwise identical to
//     ReplayEvalForward (core/experiment.h). This is the default serving
//     mode. The in-place
//     quantize and ReLU steps after each GEMM, SpMM and add run as that
//     kernel's epilogue (Step::folds), not as separate buffer passes.
//   * ExecuteInt8() — the paper's point made real: every activation lives as
//     int8 codes, dense layers run on the int8-blocked GEMM, message passing
//     on the Theorem-1 fused integer SpMM, each requantizing inside its
//     epilogue. Logits agree with the reference up to rounding ties on each
//     requantization (one quantization step), not bitwise — which is why it
//     is a separate opt-in mode (PredictQuantized) rather than the default.
//
// Lower() returns null for a scheme whose eval behaviour is not a fixed
// per-tensor transform (A2Q's per-node learned scales, the relaxed search
// mixture) or that quantizes onto a grid whose codes do not fit int32
// (FitsInt32Codes, quant/requant.h); CompileModel then refuses the model
// with kNotImplemented.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/models.h"
#include "quant/quant_params.h"
#include "quant/requant.h"
#include "quant/scheme.h"
#include "sparse/spmm.h"

namespace mixq {
namespace engine {

class FrontierProgram;

/// One dense linear transformation frozen at compile time.
struct LoweredLinear {
  int64_t in = 0;
  int64_t out = 0;
  /// Columns padded up to the GEMM vector width with zero weights (the
  /// executor compacts rows afterwards); == out when no padding was needed.
  int64_t out_padded = 0;
  /// The int8 codes on weight_params' grid (symmetric, zero point 0), empty
  /// when the weight grid is not Int8able (identity, or wider than 8 bits).
  /// When present they ARE the weight: every other view below is derived
  /// from them. Row-major [in, out_padded], padded columns 0.
  std::vector<int8_t> weight_q8;
  QuantParams weight_params;
  /// The fp32 executor's weights, row-major [in, out_padded]. For a coded
  /// linear, DERIVED: float(q) * scale, bitwise what the reference forward's
  /// fake quantizer makes of the raw weight, and +0.0f in padded columns.
  /// Otherwise the serialized fake-quantized (or, for identity, raw) weights.
  std::vector<float> weight_fq;
  std::vector<float> bias;  ///< empty = no bias
  /// DERIVED from weight_q8 (empty without codes): the pair-interleaved
  /// packing GemmInt8PackedB consumes, and the quad-interleaved packing plus
  /// per-column corrections of the VNNI kernel.
  std::vector<int16_t> weight_packed;
  std::vector<int8_t> weight_quad;
  std::vector<int32_t> weight_corr;
};

class ExecutionPlan {
 public:
  /// Buffer id denoting the caller's feature matrix (read-only).
  static constexpr int kInput = -1;

  enum class Op {
    kQuantize,  ///< dst = FakeQuant(src)
    kMatMul,    ///< dst = src · W (+ bias) via linears[linear]
    kSpmm,      ///< dst = Â · src with adjacency lowered per adj_quants[adj]
    kAdd,       ///< dst = src + src2
    kRelu,      ///< dst = max(src, 0)
  };
  struct Step {
    Op op = Op::kRelu;
    int src = 0, src2 = 0, dst = 0;  ///< scratch buffer ids (or kInput)
    int linear = -1;                 ///< kMatMul
    int adj = -1;                    ///< kSpmm
    LoweredComponent quant;          ///< kQuantize
    int64_t cols = 0;                ///< feature width of dst after the step
    /// DERIVED epilogue fusion, worked out by FinalizeDerived() from the
    /// step list and never serialized. On a kMatMul, kSpmm or kAdd: how many
    /// of the steps directly after it its kernel applies as a per-element
    /// epilogue (FloatEpilogue, quant/requant.h) — first an in-place
    /// kQuantize of its dst at the same cols, then such a kRelu; 0 to 2. Those
    /// steps are marked `folded` and the executor skips them.
    int folds = 0;
    bool folded = false;
  };

  /// One step of the DERIVED int8 program (see the header comment): every
  /// field is worked out by FinalizeDerived() from the fp32 program and its
  /// tables, and none is serialized.
  enum class IntOp {
    kQuantizeInput,  ///< codes(dst) = Quantize(features)
    kGemmRequant,    ///< codes(dst) = Requant(Sx·Sw · (q_src · Wq) + bias)
    kSpmmRequant,    ///< codes(dst) = Requant(Sa·Sx · (Âq · q_src))
    kAddRequant,     ///< codes(dst) = Requant(S1·q_src + S2·q_src2)
    kRelu,           ///< codes(dst) = max(codes(src), 0)  [symmetric]
  };
  struct IntStep {
    IntOp op = IntOp::kRelu;
    int src = 0, src2 = 0, dst = 0;
    int linear = -1;
    int adj = -1;
    QuantParams src_params;   ///< params of src codes
    QuantParams src2_params;  ///< params of src2 codes (kAddRequant)
    QuantParams out_params;   ///< requantization target of dst
    /// bias / out scale (kGemmRequant with bias); keeps the per-forward
    /// requant free of allocations.
    std::vector<double> bias_over;
    int64_t cols = 0;
    /// Requantization constants, frozen by FinalizeDerived() so the hot path
    /// neither recomputes scale ratios nor rebuilds the emitter per call. `total` is the folded scale ratio of
    /// kGemmRequant/kSpmmRequant; `s1`/`s2` are kAddRequant's operand
    /// ratios; `emitter` rounds into out_params' grid.
    double total = 0.0;
    double s1 = 0.0, s2 = 0.0;
    CodeEmitter emitter;
    /// DERIVED per-step VNNI certificate (kGemmRequant only): every
    /// unsigned-shifted partial sum Σ (aᵢ+128)·bᵢ of this step provably fits
    /// int32, computed by FinalizeDerived() from the source grid's qmax and
    /// the linear's ACTUAL frozen weight codes — the same inputs and
    /// arithmetic (VnniAccumulationSafe) as the plan checker's GemmRangeCert
    /// (engine/plan_verifier.h), so the two verdicts are bit-equal. Consumed
    /// by the GemmInt8Requant dispatch in place of the coarse global
    /// Int8VnniDepthOk(k).
    bool vnni_safe = false;
    /// DERIVED epilogue fusion, as Step::folds: 1 when this
    /// kGemmRequant/kSpmmRequant/kAddRequant absorbs the in-place kRelu
    /// directly after it (which is then `folded`). The executor raises the
    /// emitter's low clamp to 0 instead of running the ReLU pass; `emitter`
    /// itself stays CodeEmitter(out_params).
    int folds = 0;
    bool folded = false;
  };

  /// Reusable per-request workspace. Callers (or serving threads) keep one
  /// around to amortize allocations; a default-constructed one works. After
  /// a forward, f/q hold each buffer's last contents and adj_f/adj_q the
  /// adjacency on the grid of the last SpMM step that quantized it.
  struct Scratch {
    std::vector<std::vector<float>> f;   ///< float activation buffers
    std::vector<std::vector<int8_t>> q;  ///< int8 code buffers
    std::vector<float> adj_f;            ///< fake-quantized adjacency values
    std::vector<int8_t> adj_q;           ///< int8 adjacency codes
    std::vector<float> gather_f;         ///< pruned-path row gather staging
    std::vector<int8_t> gather_q;        ///< ... and its int8 counterpart
    std::vector<float> gemm_f;           ///< padded-width GEMM accumulators
  };

  /// Lowers a frozen net + scheme. Returns nullptr when any component is not
  /// expressible as a fixed per-tensor transform, or its grid fails
  /// FitsInt32Codes (CompileModel then refuses the model).
  static std::unique_ptr<ExecutionPlan> Lower(const GcnNet& net,
                                              const QuantScheme& scheme);
  static std::unique_ptr<ExecutionPlan> Lower(const SageNet& net,
                                              const QuantScheme& scheme);

  /// True when the all-integer mode is available (every quantization point is
  /// a symmetric <= 8-bit quantizer).
  bool SupportsInt8() const { return has_int8_; }

  /// Both executors run their quantize points inside the kernel epilogues:
  /// the int8 one requantizes in GemmInt8Requant/SpmmInt8Requant, the fp32
  /// one folds in-place quantize/ReLU steps into GemmNNEpilogue, the
  /// SpmmRaw/SpmmPattern epilogue overloads and its add loop (Step::folds).
  /// Kept so benchmark records can state it.
  static constexpr bool FusedEpilogues() { return true; }

  int64_t in_features() const { return in_features_; }
  int64_t out_dim() const { return out_dim_; }

  // ---- Introspection ---------------------------------------------------------
  // Read-only views of the lowered program, exposed for the static verifier
  // (engine/plan_verifier.h) and tooling. The step lists and tables are
  // immutable once Lower()/LoadBundle return.
  int num_buffers() const { return num_buffers_; }
  const std::vector<Step>& steps() const { return steps_; }
  int final_buffer() const { return final_buffer_; }
  const std::vector<LoweredLinear>& linears() const { return linears_; }
  const std::vector<LoweredComponent>& adj_quants() const { return adj_quants_; }
  const std::vector<IntStep>& int_steps() const { return int_steps_; }
  int int_final_buffer() const { return int_final_buffer_; }
  const QuantParams& int_final_params() const { return int_final_params_; }

  /// Runs the exact float plan over `x` [n, in_features] and the request's
  /// sparse operator, writing logits [n, out_dim] into `out`. Thread-safe
  /// and lock-free; each concurrent caller passes its own scratch.
  void Execute(const float* x, int64_t n, const SparseOperator& op, Scratch* scratch,
               float* out) const;

  /// Runs the integer plan (requires SupportsInt8()).
  void ExecuteInt8(const float* x, int64_t n, const SparseOperator& op,
                   Scratch* scratch, float* out) const;

  /// Receptive-field-pruned forward at the program's precision: computes
  /// only the per-step frontiers of `program` (built over THIS plan against
  /// the request's operator) and writes logits
  /// [program.targets().size(), out_dim] into `out`, row i = node
  /// targets()[i]. Fp32 programs are bitwise identical to the same rows of
  /// Execute(), int8 programs (requires SupportsInt8()) to the same rows of
  /// ExecuteInt8(). `x` is the FULL feature matrix — the program gathers the
  /// rows it needs.
  void ExecutePruned(const float* x, const FrontierProgram& program,
                     Scratch* scratch, float* out) const;

 private:
  ExecutionPlan() = default;

  /// Recomputes every DERIVED field — a coded linear's float view and
  /// packings, the whole int8 program with its requant constants, and both
  /// step lists' epilogue fusion — from the serialized state. Called after
  /// lowering (PlanBuilder::Finish) and after bundle load (before
  /// verification). Defensive: it runs on unverified bundle bytes, so an
  /// out-of-range index derives no int8 program instead of being followed
  /// (the plan verifier then rejects the fp32 program).
  void FinalizeDerived();
  /// FinalizeDerived's first pass: the int8 program by the rule in the
  /// header comment, or none (has_int8_ false, int_steps_ empty).
  void DeriveInt8Program();

  /// The one step loop per precision behind every executor entry point. A
  /// full forward passes the request's CSR `a` over `n` rows and no
  /// program; a pruned forward passes `fp`, whose steps carry their own rows,
  /// gathers and induced CSRs.
  void RunFloat(const float* x, int64_t n, const CsrMatrix* a,
                const FrontierProgram* fp, Scratch* scratch, float* out) const;
  void RunInt8(const float* x, int64_t n, const CsrMatrix* a,
               const FrontierProgram* fp, Scratch* scratch, float* out) const;

  int64_t in_features_ = 0;
  int64_t out_dim_ = 0;
  int num_buffers_ = 0;
  std::vector<Step> steps_;
  std::vector<LoweredLinear> linears_;
  std::vector<LoweredComponent> adj_quants_;
  int final_buffer_ = 0;

  bool has_int8_ = false;
  std::vector<IntStep> int_steps_;
  int int_final_buffer_ = 0;
  QuantParams int_final_params_;

  friend class PlanBuilder;
  /// Bundle (de)serialization — engine/model_bundle.cc.
  friend class ExecutionPlanCodec;
};

}  // namespace engine
}  // namespace mixq
