// Copyright 2026 MixQ-GNN Authors
#include "engine/plan_verifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/execution_plan.h"
#include "engine/frontier_plan.h"
#include "quant/requant.h"
#include "tensor/gemm.h"

namespace mixq {
namespace engine {

namespace {

using Op = ExecutionPlan::Op;
using IntOp = ExecutionPlan::IntOp;
using Step = ExecutionPlan::Step;
using IntStep = ExecutionPlan::IntStep;

/// Structural dimensions past this are corruption, not models (matches the
/// bundle codec's bound) — and keep every size product below overflow.
constexpr int64_t kMaxDim = 1 << 20;

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuantize: return "Quantize";
    case Op::kMatMul: return "MatMul";
    case Op::kSpmm: return "SpMM";
    case Op::kAdd: return "Add";
    case Op::kRelu: return "ReLU";
  }
  return "?";
}

const char* OpName(IntOp op) {
  switch (op) {
    case IntOp::kQuantizeInput: return "QuantizeInput";
    case IntOp::kGemmRequant: return "GemmRequant";
    case IntOp::kSpmmRequant: return "SpmmRequant";
    case IntOp::kAddRequant: return "AddRequant";
    case IntOp::kRelu: return "ReLU";
  }
  return "?";
}

/// "fp32 step 3 (SpMM): " — every rejection is step-indexed so a bad bundle
/// names exactly where its program breaks.
std::string At(const char* list, size_t index, const char* op) {
  return std::string(list) + " step " + std::to_string(index) + " (" + op + "): ";
}

Status Invalid(const std::string& where, const std::string& what) {
  return Status::InvalidArgument(where + what);
}

/// Records a value violation: the first one wins, and the walk goes on so a
/// later structural violation can still decide the verdict.
void NoteValue(PlanCheck* check, Status violation) {
  if (check->ranges.ok()) check->ranges = std::move(violation);
}

/// Empty when `p` is a usable fake-quantization grid; otherwise the reason.
std::string ParamsError(const QuantParams& p) {
  if (p.bits < 1 || p.bits > 32) {
    return "quantizer bits " + std::to_string(p.bits) + " outside [1, 32]";
  }
  if (!std::isfinite(p.scale) || p.scale <= 0.0f) {
    return "quantizer scale must be finite and > 0";
  }
  if (p.symmetric && p.zero_point != 0) {
    return "symmetric quantizer has zero point " + std::to_string(p.zero_point);
  }
  if (!FitsInt32Codes(p)) {
    return "quantizer grid (bits=" + std::to_string(p.bits) +
           ", zp=" + std::to_string(p.zero_point) +
           ") has codes or clamp bounds outside int32";
  }
  return "";
}

/// Empty when `p` can carry int8 codes through the integer executor: the
/// Int8able lowering gate (symmetric, zero point 0, <= 8 bits) re-stated as
/// a load-time contract.
std::string CodeParamsError(const QuantParams& p) {
  std::string err = ParamsError(p);
  if (!err.empty()) return err;
  if (p.bits > 8) {
    return "quantizer bits " + std::to_string(p.bits) +
           " exceed 8 (codes must fit int8)";
  }
  if (!p.symmetric || p.zero_point != 0) {
    return "int8 codes require a symmetric quantizer with zero point 0";
  }
  return "";
}

/// Empty when every frozen fp32 weight and bias of `lin` is finite;
/// otherwise the first entry that is not. A NaN weight would poison every
/// logit downstream.
std::string NonFiniteError(const LoweredLinear& lin) {
  const size_t cols = static_cast<size_t>(lin.out_padded);
  for (size_t k = 0; k < lin.weight_fq.size(); ++k) {
    if (!std::isfinite(lin.weight_fq[k])) {
      return "weight [" + std::to_string(k / cols) + ", " +
             std::to_string(k % cols) + "] is not finite";
    }
  }
  for (size_t j = 0; j < lin.bias.size(); ++j) {
    if (!std::isfinite(lin.bias[j])) {
      return "bias [" + std::to_string(j) + "] is not finite";
    }
  }
  return "";
}

// ---- table checks ----------------------------------------------------------

Status VerifyLinears(const ExecutionPlan& plan, PlanCheck* check) {
  const std::vector<LoweredLinear>& linears = plan.linears();
  for (size_t i = 0; i < linears.size(); ++i) {
    const LoweredLinear& lin = linears[i];
    const std::string where = "linear " + std::to_string(i) + ": ";
    if (lin.in < 1 || lin.in > kMaxDim || lin.out < 1 || lin.out > kMaxDim ||
        lin.out_padded < lin.out || lin.out_padded > kMaxDim) {
      return Invalid(where, "dimensions [in=" + std::to_string(lin.in) +
                                ", out=" + std::to_string(lin.out) +
                                ", out_padded=" + std::to_string(lin.out_padded) +
                                "] are not a valid padded weight shape");
    }
    const size_t expect =
        static_cast<size_t>(lin.in) * static_cast<size_t>(lin.out_padded);
    if (lin.weight_fq.size() != expect) {
      return Invalid(where, "weight buffer holds " +
                                std::to_string(lin.weight_fq.size()) +
                                " floats, shape needs " + std::to_string(expect));
    }
    if (!lin.bias.empty() && lin.bias.size() != static_cast<size_t>(lin.out)) {
      return Invalid(where, "bias holds " + std::to_string(lin.bias.size()) +
                                " floats, output width is " +
                                std::to_string(lin.out));
    }
    const std::string ferr = NonFiniteError(lin);
    if (!ferr.empty()) NoteValue(check, Invalid(where, ferr));
    if (!lin.weight_q8.empty()) {
      if (lin.weight_q8.size() != expect) {
        return Invalid(where, "int8 weight buffer holds " +
                                  std::to_string(lin.weight_q8.size()) +
                                  " codes, shape needs " + std::to_string(expect));
      }
      const std::string perr = CodeParamsError(lin.weight_params);
      if (!perr.empty()) return Invalid(where, "weight " + perr);
      // DERIVED state (FinalizeDerived rebuilds the float view and both
      // packings from the codes before every check, after lowering and after
      // bundle load): the kernels index these by the linear's shape.
      const size_t pair_expect =
          static_cast<size_t>(PackedPairSize(lin.in, lin.out_padded));
      const size_t quad_expect =
          static_cast<size_t>(PackedQuadSize(lin.in, lin.out_padded));
      if (lin.weight_packed.size() != pair_expect ||
          lin.weight_quad.size() != quad_expect ||
          lin.weight_corr.size() != static_cast<size_t>(lin.out_padded)) {
        return Invalid(where, "derived packings hold " +
                                  std::to_string(lin.weight_packed.size()) + "/" +
                                  std::to_string(lin.weight_quad.size()) + "/" +
                                  std::to_string(lin.weight_corr.size()) +
                                  " entries, the shape needs " +
                                  std::to_string(pair_expect) + "/" +
                                  std::to_string(quad_expect) + "/" +
                                  std::to_string(lin.out_padded));
      }
    }
  }
  return Status::OK();
}

Status VerifyAdjQuants(const ExecutionPlan& plan) {
  const std::vector<LoweredComponent>& adjs = plan.adj_quants();
  for (size_t i = 0; i < adjs.size(); ++i) {
    if (adjs[i].identity) continue;
    const std::string perr = ParamsError(adjs[i].params);
    if (!perr.empty()) {
      return Status::InvalidArgument("adjacency quantizer " + std::to_string(i) +
                                     ": " + perr);
    }
  }
  return Status::OK();
}

// ---- fp32 step-list walk ---------------------------------------------------

/// Symbolic buffer state: executors size every buffer to n rows, so only the
/// column width and the written bit travel.
struct BufState {
  bool written = false;
  int64_t cols = 0;
};

Status WalkFloatSteps(const ExecutionPlan& plan, std::vector<bool>* used_linear,
                      std::vector<bool>* used_adj) {
  const int num_buffers = plan.num_buffers();
  std::vector<BufState> buf(static_cast<size_t>(num_buffers));
  const std::vector<Step>& steps = plan.steps();
  if (steps.empty()) {
    return Status::InvalidArgument("fp32 plan has no steps");
  }

  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& st = steps[i];
    const std::string where = At("fp32", i, OpName(st.op));

    if (st.dst < 0 || st.dst >= num_buffers) {
      return Invalid(where, "writes buffer " + std::to_string(st.dst) +
                                ", plan has " + std::to_string(num_buffers));
    }
    if (st.cols < 1 || st.cols > kMaxDim) {
      return Invalid(where, "step width " + std::to_string(st.cols) +
                                " outside [1, " + std::to_string(kMaxDim) + "]");
    }
    // Cross-table references are exact: present iff the op consumes them.
    if (st.op == Op::kMatMul) {
      if (st.linear < 0 ||
          st.linear >= static_cast<int>(plan.linears().size())) {
        return Invalid(where, "references linear " + std::to_string(st.linear) +
                                  ", table has " +
                                  std::to_string(plan.linears().size()));
      }
      (*used_linear)[static_cast<size_t>(st.linear)] = true;
    } else if (st.linear != -1) {
      return Invalid(where, "non-MatMul step carries linear index " +
                                std::to_string(st.linear));
    }
    if (st.op == Op::kSpmm) {
      if (st.adj < 0 || st.adj >= static_cast<int>(plan.adj_quants().size())) {
        return Invalid(where, "references adjacency quantizer " +
                                  std::to_string(st.adj) + ", table has " +
                                  std::to_string(plan.adj_quants().size()));
      }
      (*used_adj)[static_cast<size_t>(st.adj)] = true;
    } else if (st.adj != -1) {
      return Invalid(where, "non-SpMM step carries adjacency index " +
                                std::to_string(st.adj));
    }

    // Resolve the primary source's width; every read must be of the input
    // matrix or of a buffer some earlier step wrote.
    auto source_cols = [&](int src, int64_t* cols) -> Status {
      if (src == ExecutionPlan::kInput) {
        *cols = plan.in_features();
        return Status::OK();
      }
      if (src < 0 || src >= num_buffers) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  ", plan has " + std::to_string(num_buffers));
      }
      if (!buf[static_cast<size_t>(src)].written) {
        return Invalid(where, "reads buffer " + std::to_string(src) +
                                  " before any step writes it");
      }
      *cols = buf[static_cast<size_t>(src)].cols;
      return Status::OK();
    };

    int64_t src_cols = 0;
    MIXQ_RETURN_NOT_OK(source_cols(st.src, &src_cols));

    switch (st.op) {
      case Op::kQuantize: {
        if (st.quant.identity) {
          return Invalid(where, "identity component on a quantize step "
                                "(lowering never emits a no-op quantize)");
        }
        const std::string perr = ParamsError(st.quant.params);
        if (!perr.empty()) return Invalid(where, perr);
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) + " columns");
        }
        break;
      }
      case Op::kMatMul: {
        const LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
        if (src_cols != lin.in) {
          return Invalid(where, "source holds " + std::to_string(src_cols) +
                                    " columns, linear " +
                                    std::to_string(st.linear) + " consumes " +
                                    std::to_string(lin.in));
        }
        if (st.cols != lin.out) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but linear " + std::to_string(st.linear) +
                                    " produces " + std::to_string(lin.out));
        }
        break;
      }
      case Op::kSpmm: {
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) +
                                    " columns (SpMM preserves width)");
        }
        break;
      }
      case Op::kAdd: {
        // The pruned executor reads add operands straight from scratch (no
        // gather), so an input-matrix operand is rejected outright.
        if (st.src == ExecutionPlan::kInput ||
            st.src2 == ExecutionPlan::kInput) {
          return Invalid(where, "add operands must be scratch buffers, not "
                                "the input matrix");
        }
        int64_t src2_cols = 0;
        MIXQ_RETURN_NOT_OK(source_cols(st.src2, &src2_cols));
        if (src_cols != st.cols || src2_cols != st.cols) {
          return Invalid(where, "operand widths " + std::to_string(src_cols) +
                                    " and " + std::to_string(src2_cols) +
                                    " must both equal the declared " +
                                    std::to_string(st.cols));
        }
        break;
      }
      case Op::kRelu: {
        if (st.cols != src_cols) {
          return Invalid(where, "declares width " + std::to_string(st.cols) +
                                    " but source holds " +
                                    std::to_string(src_cols) + " columns");
        }
        break;
      }
    }

    buf[static_cast<size_t>(st.dst)] = {true, st.cols};
  }

  const int fin = plan.final_buffer();
  if (fin < 0 || fin >= num_buffers) {
    return Status::InvalidArgument("fp32 final buffer " + std::to_string(fin) +
                                   " outside the plan's " +
                                   std::to_string(num_buffers) + " buffers");
  }
  if (!buf[static_cast<size_t>(fin)].written) {
    return Status::InvalidArgument("fp32 final buffer " + std::to_string(fin) +
                                   " is never written");
  }
  if (buf[static_cast<size_t>(fin)].cols != plan.out_dim()) {
    return Status::InvalidArgument(
        "fp32 final buffer holds " +
        std::to_string(buf[static_cast<size_t>(fin)].cols) +
        " columns, plan promises " + std::to_string(plan.out_dim()) + " logits");
  }
  return Status::OK();
}

// ---- int8 certificate pass -------------------------------------------------

/// The value obligations of the int8 program. That program is derived from
/// the fp32 one (ExecutionPlan::FinalizeDerived) and not read from the
/// bundle: its dataflow, widths and table indices are the fp32 walk's, its
/// grids the fp32 quantize points' and its requant constants follow from
/// those. What remains to prove is what the walk cannot see — that the
/// actual frozen codes keep every int32 accumulator in range — so this pass
/// runs once the fp32 walk and the table checks have passed. Every int8
/// producer clamps into its grid, so a step's source codes are bounded by
/// its src_params' qmax.
void CertifyIntSteps(const ExecutionPlan& plan, PlanCheck* check) {
  const std::vector<IntStep>& steps = plan.int_steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    const IntStep& st = steps[i];
    const std::string where = At("int8", i, OpName(st.op));
    if (st.op == IntOp::kGemmRequant) {
      const LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
      // (a) int32 accumulator: every signed partial sum of Σᵢ aᵢ·wᵢⱼ is
      // bounded by the source code bound times the worst column's |w|-sum —
      // computed from the ACTUAL frozen codes, so narrow-bit weights buy
      // depth the coarse k·127² cut cannot see.
      GemmRangeCert gc;
      gc.step = i;
      const int64_t amax = st.src_params.qmax();
      const int64_t col_sum =
          MaxColumnAbsSum(lin.weight_q8.data(), lin.in, lin.out_padded);
      gc.acc_peak = amax * col_sum;
      if (gc.acc_peak > static_cast<int64_t>(INT32_MAX)) {
        NoteValue(check,
                  Invalid(where, "int32 accumulator can overflow: |acc| <= " +
                                     std::to_string(amax) +
                                     " (source codes) * " +
                                     std::to_string(col_sum) +
                                     " (max column |w|-sum) = " +
                                     std::to_string(gc.acc_peak) + " > " +
                                     std::to_string(INT32_MAX)));
      }
      // (b) vpmaddwd pairwise intermediate |a₀b₀ + a₁b₁| keeps the
      // int16-headroom margin the kernel contract documents — bounded, like
      // (a), by the codes actually present, not the weight grid's clamp.
      gc.pair_peak = PairIntermediatePeak(
          amax, MaxAbsCode(lin.weight_q8.data(),
                           static_cast<int64_t>(lin.weight_q8.size())));
      if (gc.pair_peak > std::numeric_limits<int16_t>::max()) {
        NoteValue(check, Invalid(where,
                                 "vpmaddwd pairwise intermediate "
                                 "|a0*b0 + a1*b1| <= " +
                                     std::to_string(gc.pair_peak) +
                                     " exceeds the int16 headroom "
                                     "contract (32767)"));
      }
      // (b') VNNI accumulates (aᵢ+128)·bᵢ, a strictly larger magnitude. Not
      // safe => dispatch serves the step with the vpmaddwd/scalar kernels,
      // so this records a verdict rather than rejecting.
      gc.vnni_peak = (amax + 128) * col_sum;
      gc.vnni_safe = VnniAccumulationSafe(amax, col_sum);
      check->cert.gemms.push_back(gc);
    } else if (st.op == IntOp::kSpmmRequant) {
      // (a), symbolically: each row accumulates nnz products of adjacency
      // codes by source codes. The per-row depth is a property of the
      // graph, so the obligation becomes the largest nnz for which the
      // int32 bound holds — checked against every concrete graph at
      // pairing time (CheckGraphAgainstCertificate).
      const LoweredComponent& aq = plan.adj_quants()[static_cast<size_t>(st.adj)];
      SpmmRangeCert sc;
      sc.step = i;
      sc.src_code_max = st.src_params.qmax();
      sc.adj_code_max = aq.params.qmax();
      sc.adj_scale = aq.params.scale;
      const int64_t per_entry = sc.adj_code_max * sc.src_code_max;
      sc.max_nnz = per_entry == 0
                       ? std::numeric_limits<int64_t>::max()
                       : static_cast<int64_t>(INT32_MAX) / per_entry;
      if (sc.max_nnz < 1) {
        NoteValue(check, Invalid(where,
                                 "int32 accumulator overflows on a single "
                                 "stored entry: |adj| * |src| = " +
                                     std::to_string(per_entry)));
      }
      check->cert.spmms.push_back(sc);
      check->cert.max_spmm_nnz = std::min(check->cert.max_spmm_nnz, sc.max_nnz);
    }
  }
}

/// The whole structural walk; value findings accumulate in `check`.
Status WalkPlan(const ExecutionPlan& plan, const PlanShapes& shapes,
                PlanCheck* check) {
  if (plan.in_features() < 1 || plan.in_features() > kMaxDim ||
      plan.out_dim() < 1 || plan.out_dim() > kMaxDim) {
    return Status::InvalidArgument(
        "plan dimensions [in=" + std::to_string(plan.in_features()) + ", out=" +
        std::to_string(plan.out_dim()) + "] are not a valid model shape");
  }
  if (plan.in_features() != shapes.in_features ||
      plan.out_dim() != shapes.out_dim) {
    return Status::InvalidArgument(
        "plan maps " + std::to_string(plan.in_features()) + " -> " +
        std::to_string(plan.out_dim()) + " but the model metadata promises " +
        std::to_string(shapes.in_features) + " -> " +
        std::to_string(shapes.out_dim));
  }
  if (plan.num_buffers() < 1 || plan.num_buffers() > kMaxDim) {
    return Status::InvalidArgument("plan buffer count " +
                                   std::to_string(plan.num_buffers()) +
                                   " is implausible");
  }

  MIXQ_RETURN_NOT_OK(VerifyLinears(plan, check));
  MIXQ_RETURN_NOT_OK(VerifyAdjQuants(plan));

  std::vector<bool> used_linear(plan.linears().size(), false);
  std::vector<bool> used_adj(plan.adj_quants().size(), false);
  MIXQ_RETURN_NOT_OK(WalkFloatSteps(plan, &used_linear, &used_adj));
  CertifyIntSteps(plan, check);

  // Dangling table entries: every lowered weight and adjacency quantizer
  // must be reachable from some step — an orphan means the program and its
  // tables disagree about what model this is.
  for (size_t i = 0; i < used_linear.size(); ++i) {
    if (!used_linear[i]) {
      return Status::InvalidArgument("linear " + std::to_string(i) +
                                     " is referenced by no step (dangling)");
    }
  }
  for (size_t i = 0; i < used_adj.size(); ++i) {
    if (!used_adj[i]) {
      return Status::InvalidArgument("adjacency quantizer " + std::to_string(i) +
                                     " is referenced by no step (dangling)");
    }
  }
  return Status::OK();
}

}  // namespace

PlanCheck CheckPlan(const ExecutionPlan& plan, const PlanShapes& shapes) {
  PlanCheck check;
  check.structure = WalkPlan(plan, shapes, &check);
  return check;
}

// ---- FrontierProgram verification ------------------------------------------

namespace {

/// The verifier's own row-mixing classification — intentionally independent
/// of frontier_plan.cc's so the checker does not inherit a bug from the
/// code it checks.
enum class MixKind { kRowParallel, kSpmm, kAdd };

struct MixView {
  MixKind kind = MixKind::kRowParallel;
  int src = 0, src2 = 0, dst = 0;
  bool reads_input_ok = true;  ///< may the executor gather from the features?
  /// Runs as the epilogue of the step before it (Step::folds), over that
  /// step's rows.
  bool folded = false;
};

MixView ViewOf(const Step& st) {
  MixView v;
  v.src = st.src;
  v.src2 = st.src2;
  v.dst = st.dst;
  v.folded = st.folded;
  switch (st.op) {
    case Op::kSpmm: v.kind = MixKind::kSpmm; break;
    case Op::kAdd: v.kind = MixKind::kAdd; break;
    default: v.kind = MixKind::kRowParallel; break;
  }
  return v;
}

MixView ViewOf(const IntStep& st) {
  MixView v;
  v.src = st.src;
  v.src2 = st.src2;
  v.dst = st.dst;
  v.folded = st.folded;
  switch (st.op) {
    case IntOp::kSpmmRequant: v.kind = MixKind::kSpmm; break;
    case IntOp::kAddRequant: v.kind = MixKind::kAdd; break;
    default: v.kind = MixKind::kRowParallel; break;
  }
  v.reads_input_ok = st.op == IntOp::kQuantizeInput;
  return v;
}

bool SortedUniqueInRange(const std::vector<int64_t>& rows, int64_t bound) {
  int64_t prev = -1;
  for (int64_t r : rows) {
    if (r <= prev || r >= bound) return false;
    prev = r;
  }
  return true;
}

Status VerifyInduced(const std::string& where, const CsrMatrix& induced,
                     size_t expect_rows, int64_t expect_cols) {
  if (induced.rows() != static_cast<int64_t>(expect_rows)) {
    return Invalid(where, "induced slice has " + std::to_string(induced.rows()) +
                              " rows, frontier has " +
                              std::to_string(expect_rows));
  }
  if (induced.cols() != expect_cols) {
    return Invalid(where, "induced slice addresses " +
                              std::to_string(induced.cols()) +
                              " columns, source frontier holds " +
                              std::to_string(expect_cols));
  }
  const std::vector<int64_t>& rp = induced.row_ptr();
  const std::vector<int64_t>& ci = induced.col_idx();
  if (rp.size() != expect_rows + 1 || rp.front() != 0 ||
      rp.back() != static_cast<int64_t>(ci.size()) ||
      ci.size() != induced.values().size()) {
    return Invalid(where, "induced slice CSR arrays are inconsistent");
  }
  for (size_t r = 1; r < rp.size(); ++r) {
    if (rp[r] < rp[r - 1]) {
      return Invalid(where, "induced slice row_ptr is not monotone");
    }
  }
  for (int64_t c : ci) {
    if (c < 0 || c >= expect_cols) {
      return Invalid(where, "induced slice column " + std::to_string(c) +
                                " outside the source frontier [0, " +
                                std::to_string(expect_cols) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyFrontierProgram(const ExecutionPlan& plan,
                             const FrontierProgram& program) {
  if (program.int8() && !plan.SupportsInt8()) {
    return Status::InvalidArgument(
        "program selects the int8 step list but the plan has no int8 lowering");
  }
  std::vector<MixView> views;
  if (program.int8()) {
    views.reserve(plan.int_steps().size());
    for (const IntStep& st : plan.int_steps()) views.push_back(ViewOf(st));
  } else {
    views.reserve(plan.steps().size());
    for (const Step& st : plan.steps()) views.push_back(ViewOf(st));
  }
  const char* list = program.int8() ? "int8" : "fp32";
  const std::vector<FrontierProgram::StepExec>& execs = program.step_execs();
  if (execs.size() != views.size()) {
    return Status::InvalidArgument(
        "program schedules " + std::to_string(execs.size()) + " steps, the " +
        list + " step list has " + std::to_string(views.size()));
  }
  const int64_t n = program.graph_nodes();
  if (n < 1) {
    return Status::InvalidArgument("program graph has no nodes");
  }
  if (program.targets().empty() || !SortedUniqueInRange(program.targets(), n)) {
    return Status::InvalidArgument(
        "program targets must be non-empty, sorted, unique, and within the "
        "graph's " + std::to_string(n) + " nodes");
  }

  std::vector<std::vector<int64_t>> frontier(
      static_cast<size_t>(plan.num_buffers()));
  size_t producer = 0;  ///< the last step that is not folded
  for (size_t i = 0; i < execs.size(); ++i) {
    const MixView& v = views[i];
    const FrontierProgram::StepExec& se = execs[i];
    const std::string where = std::string(list) + " step " + std::to_string(i) +
                              " schedule: ";
    if (!SortedUniqueInRange(se.rows, n)) {
      return Invalid(where, "row list is not sorted/unique within the graph's " +
                                std::to_string(n) + " nodes");
    }
    // A folded step never runs on its own schedule: its epilogue covers
    // exactly the rows of the step that absorbed it, read in place.
    if (!v.folded) {
      producer = i;
    } else if (i == 0 || se.rows != execs[producer].rows) {
      return Invalid(where, "folded into step " + std::to_string(producer) +
                                " but scheduled over different rows");
    } else if (!se.gather.empty() || se.src_is_input) {
      return Invalid(where, "folded into step " + std::to_string(producer) +
                                " but scheduled with a gather");
    }
    if (se.rows.empty()) continue;  // dead step: executors skip, state keeps

    switch (v.kind) {
      case MixKind::kRowParallel: {
        if (se.src_is_input) {
          if (v.src != ExecutionPlan::kInput || !v.reads_input_ok) {
            return Invalid(where, "gathers from the input matrix but the plan "
                                  "step does not read it");
          }
          // Input gathers carry global node ids and must name exactly the
          // rows the step computes.
          if (se.gather != se.rows) {
            return Invalid(where, "input gather list must equal the step's "
                                  "row list");
          }
          break;
        }
        if (v.src == ExecutionPlan::kInput) {
          return Invalid(where, "plan step reads the input matrix but the "
                                "schedule stages it as a scratch buffer");
        }
        const std::vector<int64_t>& src_rows =
            frontier[static_cast<size_t>(v.src)];
        if (se.gather.empty()) {
          if (src_rows != se.rows) {
            return Invalid(where, "no gather, but the source frontier does "
                                  "not equal the step's row list");
          }
          break;
        }
        if (se.gather.size() != se.rows.size()) {
          return Invalid(where, "gather list length " +
                                    std::to_string(se.gather.size()) +
                                    " != row count " +
                                    std::to_string(se.rows.size()));
        }
        for (size_t j = 0; j < se.gather.size(); ++j) {
          const int64_t g = se.gather[j];
          if (g < 0 || g >= static_cast<int64_t>(src_rows.size())) {
            return Invalid(where, "gather position " + std::to_string(g) +
                                      " outside the source frontier of " +
                                      std::to_string(src_rows.size()) + " rows");
          }
          if (src_rows[static_cast<size_t>(g)] != se.rows[j]) {
            return Invalid(where, "gather position " + std::to_string(j) +
                                      " stages node " +
                                      std::to_string(src_rows[static_cast<size_t>(g)]) +
                                      ", row list wants " +
                                      std::to_string(se.rows[j]));
          }
        }
        break;
      }
      case MixKind::kSpmm: {
        const int64_t expect_cols =
            se.src_is_input
                ? n
                : static_cast<int64_t>(
                      frontier[static_cast<size_t>(v.src)].size());
        if (se.src_is_input && v.src != ExecutionPlan::kInput) {
          return Invalid(where, "slice keeps global columns but the plan step "
                                "reads a scratch buffer");
        }
        if (!se.src_is_input && v.src == ExecutionPlan::kInput) {
          return Invalid(where, "plan step reads the input matrix but the "
                                "slice's columns were remapped");
        }
        MIXQ_RETURN_NOT_OK(
            VerifyInduced(where, se.induced, se.rows.size(), expect_cols));
        break;
      }
      case MixKind::kAdd: {
        if (v.src == ExecutionPlan::kInput || v.src2 == ExecutionPlan::kInput) {
          return Invalid(where, "add operands must be scratch buffers");
        }
        if (frontier[static_cast<size_t>(v.src)] != se.rows ||
            frontier[static_cast<size_t>(v.src2)] != se.rows) {
          return Invalid(where, "add operand frontiers are not aligned with "
                                "the step's row list");
        }
        break;
      }
    }
    frontier[static_cast<size_t>(v.dst)] = se.rows;
  }

  const int fin = program.int8() ? plan.int_final_buffer() : plan.final_buffer();
  if (frontier[static_cast<size_t>(fin)] != program.targets()) {
    return Status::InvalidArgument(
        "final buffer's frontier does not equal the program's targets");
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace mixq
