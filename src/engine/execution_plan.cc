// Copyright 2026 MixQ-GNN Authors
#include "engine/execution_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <string>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "engine/frontier_plan.h"
#include "engine/plan_analysis.h"
#include "quant/requant.h"
#include "sparse/csr.h"
#include "tensor/gemm.h"

namespace mixq {
namespace engine {

namespace {

// The round-and-clip code emitter lives in quant/requant.h (shared with the
// fused GEMM/SpMM epilogue kernels); see there for why its rounding stays
// bitwise identical to the reference quantizers' std::lround.

// Code-emitting loops write int32 lanes into a small block buffer and narrow
// to int8 in a second sweep: a direct scalar-narrowing store defeats the
// vectorizer and costs ~8x on these passes.
constexpr int64_t kNarrowBlock = 256;

// Chaos hooks shared by every executor entry point: a slow kernel (exercises
// the batcher watchdog), a throwing kernel (exercises containment), and a
// scratch-growth allocation failure. One relaxed load when injection is off.
void ForwardFaultHooks() {
  if (!fault::FaultInjector::Armed()) return;
  fault::MaybeDelay("plan.forward.delay");
  fault::MaybeThrow("plan.forward.throw");
  if (fault::ShouldFail("plan.alloc")) throw std::bad_alloc();
}

// Buffer-level fake quantization through GridFakeQuant (quant/requant.h),
// which mirrors FakeQuantOp (quant/fake_quant.cc) value for value. Bitwise
// parity of the lowered path hinges on this computing the identical grid
// point. Serves the quantize steps no kernel absorbs (the input's), weights
// at lowering and the per-request adjacency.
void FakeQuantBuffer(const float* x, float* out, int64_t n, const QuantParams& p) {
  const GridFakeQuant fq(p);
  ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        const float* __restrict xp = x;
        float* __restrict op = out;
        const GridFakeQuant f = fq;
        for (int64_t i = i0; i < i1; ++i) op[i] = f(xp[i]);
      },
      /*grain=*/4096);
}

// Integer codes on the same grid as FakeQuantBuffer: dequantizing a code
// ((code - Z) * S) reproduces the fake-quantized float exactly.
void QuantizeCodes8(const float* x, int8_t* out, int64_t n, const QuantParams& p) {
  const double inv_scale = 1.0 / p.scale;
  const CodeEmitter em(p);
  ParallelFor(
      n,
      [=](int64_t i0, int64_t i1) {
        // int8 stores alias everything (signed char); restrict-qualified
        // locals keep the vectorizer from reloading closure state per lane.
        const float* __restrict xp = x;
        int8_t* __restrict op = out;
        const CodeEmitter e = em;
        int32_t tmp[kNarrowBlock];
        for (int64_t b0 = i0; b0 < i1; b0 += kNarrowBlock) {
          const int64_t bn = std::min<int64_t>(kNarrowBlock, i1 - b0);
          for (int64_t j = 0; j < bn; ++j) {
            tmp[j] = e.Code(static_cast<double>(xp[b0 + j]) * inv_scale);
          }
          for (int64_t j = 0; j < bn; ++j) {
            op[b0 + j] = static_cast<int8_t>(tmp[j]);
          }
        }
      },
      /*grain=*/4096);
}

// ---- per-element kernels of the executors ---------------------------------

/// dst = a1 + a2 over `count` elements, with the add step's fused epilogue
/// (never a bias: lowered adds carry none) on each L1-sized block as soon as
/// it is summed.
void AddWithEpilogue(const float* a1, const float* a2, float* dst, int64_t count,
                     const FloatEpilogue& ep) {
  ParallelFor(
      count,
      [=, &ep](int64_t i0, int64_t i1) {
        for (int64_t b0 = i0; b0 < i1; b0 += kRequantBlock) {
          const int64_t bn = std::min<int64_t>(kRequantBlock, i1 - b0);
          for (int64_t j = 0; j < bn; ++j) dst[b0 + j] = a1[b0 + j] + a2[b0 + j];
          ep.ApplyRow(dst + b0, dst + b0, /*col=*/0, bn);
        }
      },
      /*grain=*/4096);
}

/// codes(dst) = Requant(s1·a + s2·c) — the integer residual add.
void AddRequantCodes(const int8_t* a, const int8_t* c, int8_t* dst, int64_t count,
                     double s1, double s2, const CodeEmitter& em) {
  ParallelFor(
      count,
      [=](int64_t i0, int64_t i1) {
        const int8_t* __restrict a1p = a;
        const int8_t* __restrict a2p = c;
        int8_t* __restrict dp = dst;
        const CodeEmitter e = em;
        int32_t tmp[kNarrowBlock];
        for (int64_t b0 = i0; b0 < i1; b0 += kNarrowBlock) {
          const int64_t bn = std::min<int64_t>(kNarrowBlock, i1 - b0);
          for (int64_t j = 0; j < bn; ++j) {
            tmp[j] = e.Code(s1 * static_cast<double>(a1p[b0 + j]) +
                            s2 * static_cast<double>(a2p[b0 + j]));
          }
          for (int64_t j = 0; j < bn; ++j) {
            dp[b0 + j] = static_cast<int8_t>(tmp[j]);
          }
        }
      },
      /*grain=*/4096);
}

/// ReLU directly on symmetric codes.
void ReluCodes(const int8_t* src, int8_t* dst, int64_t count) {
  ParallelFor(
      count,
      [=](int64_t i0, int64_t i1) {
        const int8_t* __restrict sp = src;
        int8_t* __restrict dp = dst;
        for (int64_t i = i0; i < i1; ++i) dp[i] = sp[i] > 0 ? sp[i] : 0;
      },
      /*grain=*/4096);
}

/// Final dequantization of logit codes into float output.
void DequantizeCodes(const int8_t* codes, float* out, int64_t count,
                     const QuantParams& p) {
  const float scale = p.scale;
  const int32_t zp = p.zero_point;
  ParallelFor(
      count,
      [=](int64_t i0, int64_t i1) {
        const int8_t* __restrict cp = codes;
        float* __restrict op = out;
        for (int64_t i = i0; i < i1; ++i) {
          op[i] = static_cast<float>(cp[i] - zp) * scale;
        }
      },
      /*grain=*/4096);
}

/// True when a lowered component fits the all-integer executor: a symmetric
/// quantizer of width <= 8 bits, whose codes fit int8 and whose zero point
/// vanishes (making ReLU exact on codes and the Theorem-1 corrections free).
bool Int8able(const LoweredComponent& lc) {
  return !lc.identity && lc.params.symmetric && lc.params.zero_point == 0 &&
         lc.params.bits >= 1 && lc.params.bits <= 8;
}

/// Same quantization grid: quantizing identical inputs yields identical
/// outputs. Used to reuse per-request adjacency quantizations across layers.
bool SameParams(const QuantParams& a, const QuantParams& b) {
  return a.scale == b.scale && a.zero_point == b.zero_point && a.bits == b.bits &&
         a.symmetric == b.symmetric;
}

// int8 GEMM accumulators stay within int32 as long as k products of two
// 7-bit-magnitude codes fit: k * 127^2 < 2^31.
bool Int8DepthOk(int64_t k) {
  return k < std::numeric_limits<int32_t>::max() / (127 * 127);
}

// Views over frozen derived state for the fused epilogue kernels; pure
// pointer/value plumbing, nothing computed per forward. The step supplies
// its checker-derived VNNI certificate so dispatch never consults the coarse
// global depth predicate.
Int8PackedWeights PackedWeights(const LoweredLinear& lin,
                                const ExecutionPlan::IntStep& st) {
  Int8PackedWeights w;
  w.pair = lin.weight_packed.data();
  if (!lin.weight_quad.empty()) {
    w.quad = lin.weight_quad.data();
    w.corr = lin.weight_corr.data();
    w.vnni_ok = st.vnni_safe;
  }
  return w;
}

/// The step's emitter with its folded ReLU (IntStep::folds) applied: a low
/// clamp raised to 0 emits max(code, 0), exactly what the ReLU pass would
/// have made of the clamped code (lo <= 0 on every symmetric grid; the max
/// keeps any other grid's clamp as it is).
CodeEmitter StepEmitter(const ExecutionPlan::IntStep& st) {
  CodeEmitter em = st.emitter;
  if (st.folds > 0) em.lo = std::max(em.lo, 0);
  return em;
}

RequantEpilogue GemmEpilogue(const ExecutionPlan::IntStep& st) {
  RequantEpilogue ep;
  ep.total = st.total;
  ep.bias = st.bias_over.empty() ? nullptr : st.bias_over.data();
  ep.emitter = StepEmitter(st);
  return ep;
}

RequantEpilogue SpmmEpilogue(const ExecutionPlan::IntStep& st) {
  RequantEpilogue ep;
  ep.total = st.total;
  ep.emitter = StepEmitter(st);
  return ep;
}

/// Marks the epilogue fusion of one step list (Step::folds,
/// IntStep::folds): each producer absorbs the steps directly after it whose
/// ops `absorbable` lists, in that order, each at most once, as long as they
/// work in place on the producer's dst at the same cols. Everything else —
/// a quantize or ReLU that is not in place, or follows something other than
/// a producer — keeps its own pass.
template <typename StepT, typename OpT, size_t kN>
void MarkFolds(std::vector<StepT>* steps, bool (*producer)(OpT),
               const OpT (&absorbable)[kN]) {
  for (StepT& st : *steps) {
    st.folds = 0;
    st.folded = false;
  }
  for (size_t i = 0; i < steps->size(); ++i) {
    StepT& p = (*steps)[i];
    if (!producer(p.op)) continue;
    size_t next = i + 1;
    for (const OpT op : absorbable) {
      if (next == steps->size()) break;
      StepT& s = (*steps)[next];
      if (s.op != op || s.src != p.dst || s.dst != p.dst || s.cols != p.cols) {
        continue;
      }
      s.folded = true;
      ++p.folds;
      ++next;
    }
  }
}

bool FloatProducer(ExecutionPlan::Op op) {
  return op == ExecutionPlan::Op::kMatMul || op == ExecutionPlan::Op::kSpmm ||
         op == ExecutionPlan::Op::kAdd;
}

bool IntProducer(ExecutionPlan::IntOp op) {
  return op == ExecutionPlan::IntOp::kGemmRequant ||
         op == ExecutionPlan::IntOp::kSpmmRequant ||
         op == ExecutionPlan::IntOp::kAddRequant;
}

}  // namespace

void ExecutionPlan::FinalizeDerived() {
  const Op float_folds[] = {Op::kQuantize, Op::kRelu};
  MarkFolds(&steps_, &FloatProducer, float_folds);
  const IntOp int_folds[] = {IntOp::kRelu};
  MarkFolds(&int_steps_, &IntProducer, int_folds);
  for (LoweredLinear& lin : linears_) {
    if (!lin.weight_q8.empty() && lin.weight_quad.empty()) {
      lin.weight_quad.resize(
          static_cast<size_t>(PackedQuadSize(lin.in, lin.out_padded)));
      lin.weight_corr.resize(static_cast<size_t>(lin.out_padded));
      PackInt8QuadB(lin.weight_q8.data(), lin.in, lin.out_padded,
                    lin.weight_quad.data(), lin.weight_corr.data());
    }
  }
  for (IntStep& st : int_steps_) {
    st.emitter = CodeEmitter(st.out_params);
    switch (st.op) {
      case IntOp::kGemmRequant: {
        if (st.linear < 0 ||
            st.linear >= static_cast<int>(linears_.size())) {
          break;  // crafted bundle; the plan verifier rejects it
        }
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        st.total = static_cast<double>(st.src_params.scale) *
                   lin.weight_params.scale / st.out_params.scale;
        // Per-step VNNI overflow certificate from the ACTUAL frozen codes.
        // src_params.qmax() is the plan checker's source-code bound too
        // (every int8 producer clamps into its grid), so dispatch and
        // certificate can never disagree.
        if (lin.weight_q8.size() ==
            static_cast<size_t>(lin.in) * static_cast<size_t>(lin.out_padded)) {
          st.vnni_safe = VnniAccumulationSafe(
              st.src_params.qmax(),
              MaxColumnAbsSum(lin.weight_q8.data(), lin.in, lin.out_padded));
        }
        break;
      }
      case IntOp::kSpmmRequant: {
        if (st.adj < 0 || st.adj >= static_cast<int>(adj_quants_.size())) {
          break;
        }
        const LoweredComponent& aq = adj_quants_[static_cast<size_t>(st.adj)];
        st.total = static_cast<double>(aq.params.scale) * st.src_params.scale /
                   st.out_params.scale;
        break;
      }
      case IntOp::kAddRequant: {
        st.s1 = static_cast<double>(st.src_params.scale) / st.out_params.scale;
        st.s2 = static_cast<double>(st.src2_params.scale) / st.out_params.scale;
        break;
      }
      case IntOp::kQuantizeInput:
      case IntOp::kRelu:
        break;
    }
  }
}

// Collects lowered components and emits plan steps; named (rather than
// file-local) so it can be befriended by ExecutionPlan.
class PlanBuilder {
 public:
  explicit PlanBuilder(const QuantScheme& scheme) : scheme_(scheme) {
    plan_ = std::unique_ptr<ExecutionPlan>(new ExecutionPlan());
  }

  bool ok() const { return ok_; }
  std::unique_ptr<ExecutionPlan> Finish(int cur_buffer, bool int8_ok,
                                        int int_cur_buffer,
                                        const QuantParams& final_params) {
    if (!ok_) return nullptr;
    plan_->final_buffer_ = cur_buffer;
    plan_->has_int8_ = int8_ok && !plan_->int_steps_.empty();
    if (!plan_->has_int8_) {
      plan_->int_steps_.clear();
    } else {
      plan_->int_final_buffer_ = int_cur_buffer;
      plan_->int_final_params_ = final_params;
    }
    plan_->FinalizeDerived();
    return std::move(plan_);
  }

  LoweredComponent Component(const std::string& id) {
    LoweredComponent lc;
    if (!scheme_.TryLowerComponent(id, &lc) ||
        (!lc.identity && !FitsInt32Codes(lc.params))) {
      ok_ = false;
    }
    return lc;
  }

  // Quantizes the weight once: the float view feeds Execute() (bitwise what
  // the reference forward multiplies by), the int8 codes feed ExecuteInt8().
  // Narrow outputs (e.g. the class-count-wide logit layer) are zero-padded to
  // the GEMM vector width so the micro-kernel's full path applies; padded
  // columns are dead weight the executor strips after each product.
  int AddLinear(const Tensor& weight, const Tensor& bias,
                const LoweredComponent& wq) {
    constexpr int64_t kPad = 16;  // gemm.cc micro-kernel column width
    LoweredLinear lin;
    lin.in = weight.rows();
    lin.out = weight.cols();
    lin.out_padded = lin.out % kPad == 0 ? lin.out : (lin.out / kPad + 1) * kPad;
    const std::vector<float>& wd = weight.data();
    // Gather the fake-quantized (or raw) weights row-major at padded width.
    std::vector<float> fq_rows(wd.size());
    if (wq.identity) {
      fq_rows = wd;
    } else {
      lin.weight_params = wq.params;
      FakeQuantBuffer(wd.data(), fq_rows.data(), static_cast<int64_t>(wd.size()),
                      wq.params);
    }
    lin.weight_fq.assign(static_cast<size_t>(lin.in * lin.out_padded), 0.0f);
    for (int64_t r = 0; r < lin.in; ++r) {
      std::memcpy(lin.weight_fq.data() + r * lin.out_padded,
                  fq_rows.data() + r * lin.out,
                  sizeof(float) * static_cast<size_t>(lin.out));
    }
    if (!wq.identity && Int8able(wq)) {
      std::vector<int8_t> codes(wd.size());
      QuantizeCodes8(wd.data(), codes.data(), static_cast<int64_t>(wd.size()),
                     wq.params);
      lin.weight_q8.assign(static_cast<size_t>(lin.in * lin.out_padded), 0);
      for (int64_t r = 0; r < lin.in; ++r) {
        std::memcpy(lin.weight_q8.data() + r * lin.out_padded,
                    codes.data() + r * lin.out,
                    sizeof(int8_t) * static_cast<size_t>(lin.out));
      }
      lin.weight_packed.resize(
          static_cast<size_t>(PackedPairSize(lin.in, lin.out_padded)));
      PackInt8PairB(lin.weight_q8.data(), lin.in, lin.out_padded,
                    lin.weight_packed.data());
    }
    if (bias.defined()) lin.bias = bias.data();
    plan_->linears_.push_back(std::move(lin));
    return static_cast<int>(plan_->linears_.size()) - 1;
  }

  int AddAdj(const LoweredComponent& adjq) {
    plan_->adj_quants_.push_back(adjq);
    return static_cast<int>(plan_->adj_quants_.size()) - 1;
  }

  // ---- float step emission -------------------------------------------------
  void Quantize(int src, int dst, const LoweredComponent& lc, int64_t cols) {
    ExecutionPlan::Step st;
    st.op = ExecutionPlan::Op::kQuantize;
    st.src = src;
    st.dst = dst;
    st.quant = lc;
    st.cols = cols;
    plan_->steps_.push_back(st);
  }
  void MatMul(int src, int dst, int linear, int64_t cols) {
    ExecutionPlan::Step st;
    st.op = ExecutionPlan::Op::kMatMul;
    st.src = src;
    st.dst = dst;
    st.linear = linear;
    st.cols = cols;
    plan_->steps_.push_back(st);
  }
  void Spmm(int src, int dst, int adj, int64_t cols) {
    ExecutionPlan::Step st;
    st.op = ExecutionPlan::Op::kSpmm;
    st.src = src;
    st.dst = dst;
    st.adj = adj;
    st.cols = cols;
    plan_->steps_.push_back(st);
  }
  void Add(int src, int src2, int dst, int64_t cols) {
    ExecutionPlan::Step st;
    st.op = ExecutionPlan::Op::kAdd;
    st.src = src;
    st.src2 = src2;
    st.dst = dst;
    st.cols = cols;
    plan_->steps_.push_back(st);
  }
  void Relu(int buf, int64_t cols) {
    ExecutionPlan::Step st;
    st.op = ExecutionPlan::Op::kRelu;
    st.src = buf;
    st.dst = buf;
    st.cols = cols;
    plan_->steps_.push_back(st);
  }

  // ---- int step emission ---------------------------------------------------
  void IntQuantizeInput(int dst, const QuantParams& p, int64_t cols) {
    ExecutionPlan::IntStep st;
    st.op = ExecutionPlan::IntOp::kQuantizeInput;
    st.src = ExecutionPlan::kInput;
    st.dst = dst;
    st.out_params = p;
    st.cols = cols;
    plan_->int_steps_.push_back(st);
  }
  void IntGemm(int src, int dst, int linear, const QuantParams& src_p,
               const QuantParams& out_p, int64_t cols) {
    ExecutionPlan::IntStep st;
    st.op = ExecutionPlan::IntOp::kGemmRequant;
    st.src = src;
    st.dst = dst;
    st.linear = linear;
    st.src_params = src_p;
    st.out_params = out_p;
    st.cols = cols;
    const LoweredLinear& lin = plan_->linears_[static_cast<size_t>(linear)];
    if (!lin.bias.empty()) {
      st.bias_over.resize(lin.bias.size());
      const double inv_out = 1.0 / out_p.scale;
      for (size_t j = 0; j < lin.bias.size(); ++j) {
        st.bias_over[j] = static_cast<double>(lin.bias[j]) * inv_out;
      }
    }
    plan_->int_steps_.push_back(st);
  }
  void IntSpmm(int src, int dst, int adj, const QuantParams& src_p,
               const QuantParams& out_p, int64_t cols) {
    ExecutionPlan::IntStep st;
    st.op = ExecutionPlan::IntOp::kSpmmRequant;
    st.src = src;
    st.dst = dst;
    st.adj = adj;
    st.src_params = src_p;
    st.out_params = out_p;
    st.cols = cols;
    plan_->int_steps_.push_back(st);
  }
  void IntAdd(int src, int src2, int dst, const QuantParams& p1,
              const QuantParams& p2, const QuantParams& out_p, int64_t cols) {
    ExecutionPlan::IntStep st;
    st.op = ExecutionPlan::IntOp::kAddRequant;
    st.src = src;
    st.src2 = src2;
    st.dst = dst;
    st.src_params = p1;
    st.src2_params = p2;
    st.out_params = out_p;
    st.cols = cols;
    plan_->int_steps_.push_back(st);
  }
  void IntRelu(int buf, int64_t cols) {
    ExecutionPlan::IntStep st;
    st.op = ExecutionPlan::IntOp::kRelu;
    st.src = buf;
    st.dst = buf;
    st.cols = cols;
    plan_->int_steps_.push_back(st);
  }

  ExecutionPlan* plan() { return plan_.get(); }

 private:
  const QuantScheme& scheme_;
  std::unique_ptr<ExecutionPlan> plan_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

std::unique_ptr<ExecutionPlan> ExecutionPlan::Lower(const GcnNet& net,
                                                    const QuantScheme& scheme) {
  PlanBuilder b(scheme);
  ExecutionPlan* plan = b.plan();
  plan->in_features_ = net.config().in_features;
  plan->out_dim_ = net.config().num_classes;
  plan->num_buffers_ = 2;

  const LoweredComponent input_q = b.Component("model/x");
  int cur = kInput;
  if (!input_q.identity) {
    b.Quantize(kInput, 0, input_q, plan->in_features_);
    cur = 0;
  }

  struct Layer {
    LoweredComponent lin_out, adj, agg;
    int widx = -1, aidx = -1;
    int64_t in = 0, out = 0;
    bool int8 = true;
  };
  std::vector<Layer> lowered;
  bool int8_ok = Int8able(input_q);
  const auto& layers = net.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const GcnConv& conv = *layers[l];
    const std::string& id = conv.id();
    Layer lay;
    const LoweredComponent wq = b.Component(id + "/weight");
    lay.lin_out = b.Component(id + "/linear_out");
    lay.adj = b.Component(id + "/adj");
    lay.agg = b.Component(id + "/agg");
    if (!b.ok()) return nullptr;
    lay.in = conv.in_features();
    lay.out = conv.out_features();
    lay.widx = b.AddLinear(conv.weight(), Tensor(), wq);
    lay.aidx = b.AddAdj(lay.adj);
    lay.int8 = Int8able(wq) && Int8able(lay.lin_out) && Int8able(lay.adj) &&
               Int8able(lay.agg) && Int8DepthOk(lay.in);
    int8_ok = int8_ok && lay.int8;

    const bool last = l + 1 == layers.size();
    b.MatMul(cur, 1, lay.widx, lay.out);
    if (!lay.lin_out.identity) b.Quantize(1, 1, lay.lin_out, lay.out);
    b.Spmm(1, 0, lay.aidx, lay.out);
    if (!lay.agg.identity) b.Quantize(0, 0, lay.agg, lay.out);
    if (!last) b.Relu(0, lay.out);
    cur = 0;
    lowered.push_back(lay);
  }

  QuantParams final_params = input_q.params;
  int int_cur = 0;
  if (int8_ok) {
    b.IntQuantizeInput(0, input_q.params, plan->in_features_);
    QuantParams curp = input_q.params;
    for (size_t l = 0; l < lowered.size(); ++l) {
      const Layer& lay = lowered[l];
      b.IntGemm(int_cur, 1, lay.widx, curp, lay.lin_out.params, lay.out);
      b.IntSpmm(1, 0, lay.aidx, lay.lin_out.params, lay.agg.params, lay.out);
      if (l + 1 < lowered.size()) b.IntRelu(0, lay.out);
      int_cur = 0;
      curp = lay.agg.params;
    }
    final_params = curp;
  }
  return b.Finish(cur, int8_ok, int_cur, final_params);
}

std::unique_ptr<ExecutionPlan> ExecutionPlan::Lower(const SageNet& net,
                                                    const QuantScheme& scheme) {
  PlanBuilder b(scheme);
  ExecutionPlan* plan = b.plan();
  plan->in_features_ = net.config().in_features;
  plan->out_dim_ = net.config().num_classes;
  plan->num_buffers_ = 4;

  const LoweredComponent input_q = b.Component("model/x");
  int cur = kInput;
  if (!input_q.identity) {
    b.Quantize(kInput, 0, input_q, plan->in_features_);
    cur = 0;
  }

  struct Layer {
    LoweredComponent adj, agg, root_out, neigh_out, out;
    int root_idx = -1, neigh_idx = -1, aidx = -1;
    int64_t in = 0, width = 0;
    bool int8 = true;
  };
  std::vector<Layer> lowered;
  bool int8_ok = Int8able(input_q);
  const auto& layers = net.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const SageConv& conv = *layers[l];
    const std::string& id = conv.id();
    const Linear& root = conv.root_linear();
    const Linear& neigh = conv.neighbor_linear();
    Layer lay;
    lay.adj = b.Component(id + "/adj");
    lay.agg = b.Component(id + "/agg");
    const LoweredComponent root_w = b.Component(root.weight_component());
    lay.root_out = b.Component(root.out_component());
    const LoweredComponent neigh_w = b.Component(neigh.weight_component());
    lay.neigh_out = b.Component(neigh.out_component());
    lay.out = b.Component(id + "/out");
    if (!b.ok()) return nullptr;
    lay.in = root.in_features();
    lay.width = root.out_features();
    lay.aidx = b.AddAdj(lay.adj);
    lay.root_idx = b.AddLinear(root.weight(), root.bias(), root_w);
    lay.neigh_idx = b.AddLinear(neigh.weight(), neigh.bias(), neigh_w);
    lay.int8 = Int8able(lay.adj) && Int8able(lay.agg) && Int8able(root_w) &&
               Int8able(lay.root_out) && Int8able(neigh_w) &&
               Int8able(lay.neigh_out) && Int8able(lay.out) && Int8DepthOk(lay.in);
    int8_ok = int8_ok && lay.int8;

    const bool last = l + 1 == layers.size();
    b.Spmm(cur, 1, lay.aidx, lay.in);
    if (!lay.agg.identity) b.Quantize(1, 1, lay.agg, lay.in);
    b.MatMul(cur, 2, lay.root_idx, lay.width);
    if (!lay.root_out.identity) b.Quantize(2, 2, lay.root_out, lay.width);
    b.MatMul(1, 3, lay.neigh_idx, lay.width);
    if (!lay.neigh_out.identity) b.Quantize(3, 3, lay.neigh_out, lay.width);
    b.Add(2, 3, 0, lay.width);
    if (!lay.out.identity) b.Quantize(0, 0, lay.out, lay.width);
    if (!last) b.Relu(0, lay.width);
    cur = 0;
    lowered.push_back(lay);
  }

  QuantParams final_params = input_q.params;
  int int_cur = 0;
  if (int8_ok) {
    b.IntQuantizeInput(0, input_q.params, plan->in_features_);
    QuantParams curp = input_q.params;
    for (size_t l = 0; l < lowered.size(); ++l) {
      const Layer& lay = lowered[l];
      b.IntSpmm(int_cur, 1, lay.aidx, curp, lay.agg.params, lay.in);
      b.IntGemm(int_cur, 2, lay.root_idx, curp, lay.root_out.params, lay.width);
      b.IntGemm(1, 3, lay.neigh_idx, lay.agg.params, lay.neigh_out.params,
                lay.width);
      b.IntAdd(2, 3, 0, lay.root_out.params, lay.neigh_out.params, lay.out.params,
               lay.width);
      if (l + 1 < lowered.size()) b.IntRelu(0, lay.width);
      int_cur = 0;
      curp = lay.out.params;
    }
    final_params = curp;
  }
  return b.Finish(cur, int8_ok, int_cur, final_params);
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

// One step loop per precision serves both row universes. A full forward runs
// every step over all n rows, multiplies by the request's CSR and reads each
// source contiguously. A pruned forward runs step i over the program's step-i
// rows, stages its source through the step's gather (positions into the src
// buffer's frontier, or global ids into the feature matrix) and multiplies by
// the step's induced CSR, whose columns are remapped into the src frontier.
// Every kernel computes each output row from its own input row(s) in the same
// accumulation order either way, which is what makes pruned fp32 rows bitwise
// identical to Execute()'s and pruned int8 codes bitwise identical to
// ExecuteInt8()'s.

namespace {

/// The row universe of one step.
struct StepRows {
  int64_t n = 0;                                 ///< rows the step computes
  const CsrMatrix* csr = nullptr;                ///< SpMM operand
  const std::vector<int64_t>* gather = nullptr;  ///< null = contiguous source
};

StepRows RowsOf(size_t step, int64_t n, const CsrMatrix* a,
                const FrontierProgram* fp) {
  if (fp == nullptr) return {n, a, nullptr};
  const FrontierProgram::StepExec& se = fp->step_execs()[step];
  return {static_cast<int64_t>(se.rows.size()), &se.induced,
          se.gather.empty() ? nullptr : &se.gather};
}

/// Returns `base`, or its `gather` rows staged into `staging` (grown as
/// needed).
template <typename T>
const T* ReadRows(const T* base, const std::vector<int64_t>* gather,
                  int64_t width, std::vector<T>* staging) {
  if (gather == nullptr) return base;
  const std::vector<int64_t>& rows = *gather;
  const size_t need = rows.size() * static_cast<size_t>(width);
  if (staging->size() < need) staging->resize(need);
  T* dst = staging->data();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(dst + i * static_cast<size_t>(width),
                base + static_cast<size_t>(rows[i]) * static_cast<size_t>(width),
                sizeof(T) * static_cast<size_t>(width));
  }
  return dst;
}

/// Grows a scratch buffer to rows x cols and returns it. Steps call this for
/// their destination BEFORE reading a source: in-place steps must not hold a
/// pointer a resize could invalidate.
template <typename T>
T* Ensure(std::vector<T>* buf, int64_t rows, int64_t cols) {
  const size_t need = static_cast<size_t>(rows * cols);
  if (buf->size() < need) buf->resize(need);
  return buf->data();
}

/// The fused epilogue of float step `step`: its linear's bias (kMatMul)
/// plus the steps it folds (Step::folds).
FloatEpilogue EpilogueOf(const std::vector<ExecutionPlan::Step>& steps, size_t step,
                         const std::vector<LoweredLinear>& linears) {
  const ExecutionPlan::Step& st = steps[step];
  FloatEpilogue ep;
  if (st.op == ExecutionPlan::Op::kMatMul) {
    const std::vector<float>& bias = linears[static_cast<size_t>(st.linear)].bias;
    if (!bias.empty()) ep.bias = bias.data();
  }
  for (int f = 1; f <= st.folds; ++f) {
    const ExecutionPlan::Step& folded = steps[step + static_cast<size_t>(f)];
    if (folded.op == ExecutionPlan::Op::kQuantize) {
      ep.quantize = true;
      ep.quant = GridFakeQuant(folded.quant.params);
    } else {
      ep.relu = true;
    }
  }
  return ep;
}

/// The CSR and grid a scratch adjacency buffer was last quantized for, so a
/// forward quantizes it only when either changes. A full forward's layers
/// share the request's CSR and usually one grid, so it is quantized once per
/// request; every pruned step carries its own induced CSR.
struct AdjCache {
  const CsrMatrix* csr = nullptr;
  QuantParams params;
};

template <typename T>
const T* QuantizedAdjacency(const CsrMatrix& csr, const QuantParams& p,
                            void (*quantize)(const float*, T*, int64_t,
                                             const QuantParams&),
                            AdjCache* cache, std::vector<T>* buf) {
  if (cache->csr != &csr || !SameParams(cache->params, p)) {
    const std::vector<float>& values = csr.values();
    if (buf->size() < values.size()) buf->resize(values.size());
    quantize(values.data(), buf->data(), static_cast<int64_t>(values.size()), p);
    cache->csr = &csr;
    cache->params = p;
  }
  return buf->data();
}

}  // namespace

void ExecutionPlan::Execute(const float* x, int64_t n, const SparseOperator& op,
                            Scratch* scratch, float* out) const {
  RunFloat(x, n, &op.matrix(), nullptr, scratch, out);
}

void ExecutionPlan::ExecuteInt8(const float* x, int64_t n, const SparseOperator& op,
                                Scratch* scratch, float* out) const {
  RunInt8(x, n, &op.matrix(), nullptr, scratch, out);
}

void ExecutionPlan::ExecutePruned(const float* x, const FrontierProgram& program,
                                  Scratch* scratch, float* out) const {
  MIXQ_CHECK_EQ(static_cast<int64_t>(program.step_execs().size()),
                static_cast<int64_t>(program.int8() ? int_steps_.size()
                                                    : steps_.size()));
  if (program.int8()) {
    RunInt8(x, program.graph_nodes(), nullptr, &program, scratch, out);
  } else {
    RunFloat(x, program.graph_nodes(), nullptr, &program, scratch, out);
  }
}

void ExecutionPlan::RunFloat(const float* x, int64_t n, const CsrMatrix* a,
                             const FrontierProgram* fp, Scratch* scratch,
                             float* out) const {
  ForwardFaultHooks();
  scratch->f.resize(static_cast<size_t>(num_buffers_));
  auto buffer = [&](int id) { return &scratch->f[static_cast<size_t>(id)]; };
  auto read = [&](int id, const std::vector<int64_t>* gather,
                  int64_t width) -> const float* {
    const float* base = id == kInput ? x : buffer(id)->data();
    return ReadRows(base, gather, width, &scratch->gather_f);
  };
  AdjCache adj;

  for (size_t si = 0; si < steps_.size(); ++si) {
    const Step& st = steps_[si];
    if (st.folded) continue;  // ran as the previous kernel's epilogue
    const StepRows r = RowsOf(si, n, a, fp);
    if (r.n == 0) continue;  // dead for these targets
    switch (st.op) {
      case Op::kQuantize: {
        float* dst = Ensure(buffer(st.dst), r.n, st.cols);
        FakeQuantBuffer(read(st.src, r.gather, st.cols), dst, r.n * st.cols,
                        st.quant.params);
        break;
      }
      case Op::kMatMul: {
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        float* dst = Ensure(buffer(st.dst), r.n, lin.out);
        // Padded products accumulate in their own buffer; the epilogue
        // writes the unpadded columns to dst.
        float* work = lin.out_padded == lin.out
                          ? dst
                          : Ensure(&scratch->gemm_f, r.n, lin.out_padded);
        GemmNNEpilogue(read(st.src, r.gather, lin.in), lin.weight_fq.data(), work,
                       r.n, lin.in, lin.out_padded, lin.out,
                       EpilogueOf(steps_, si, linears_), dst);
        break;
      }
      case Op::kSpmm: {
        const LoweredComponent& aq = adj_quants_[static_cast<size_t>(st.adj)];
        float* dst = Ensure(buffer(st.dst), r.n, st.cols);
        // The CSR's columns index the whole source frontier: no gather.
        const float* src = read(st.src, nullptr, st.cols);
        if (aq.identity) {
          SpmmRaw(*r.csr, src, st.cols, dst, EpilogueOf(steps_, si, linears_));
        } else {
          SpmmPattern(*r.csr,
                      QuantizedAdjacency(*r.csr, aq.params, &FakeQuantBuffer, &adj,
                                         &scratch->adj_f),
                      src, st.cols, dst, EpilogueOf(steps_, si, linears_));
        }
        break;
      }
      case Op::kAdd: {
        float* dst = Ensure(buffer(st.dst), r.n, st.cols);
        AddWithEpilogue(read(st.src, r.gather, st.cols),
                        read(st.src2, nullptr, st.cols), dst, r.n * st.cols,
                        EpilogueOf(steps_, si, linears_));
        break;
      }
      case Op::kRelu: {
        float* dst = Ensure(buffer(st.dst), r.n, st.cols);
        const float* src = read(st.src, r.gather, st.cols);
        ParallelFor(
            r.n * st.cols,
            [=](int64_t i0, int64_t i1) {
              for (int64_t i = i0; i < i1; ++i) {
                dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
              }
            },
            /*grain=*/4096);
        break;
      }
    }
  }
  const int64_t rows =
      fp == nullptr ? n : static_cast<int64_t>(fp->targets().size());
  std::memcpy(out, read(final_buffer_, nullptr, out_dim_),
              sizeof(float) * static_cast<size_t>(rows * out_dim_));
}

void ExecutionPlan::RunInt8(const float* x, int64_t n, const CsrMatrix* a,
                            const FrontierProgram* fp, Scratch* scratch,
                            float* out) const {
  MIXQ_CHECK(has_int8_) << "plan has no int8 lowering";
  ForwardFaultHooks();
  scratch->q.resize(static_cast<size_t>(num_buffers_));
  auto buffer = [&](int id) { return &scratch->q[static_cast<size_t>(id)]; };
  auto read = [&](int id, const std::vector<int64_t>* gather,
                  int64_t width) -> const int8_t* {
    return ReadRows<int8_t>(buffer(id)->data(), gather, width, &scratch->gather_q);
  };
  AdjCache adj;

  for (size_t si = 0; si < int_steps_.size(); ++si) {
    const IntStep& st = int_steps_[si];
    if (st.folded) continue;  // ran as the previous kernel's clamp
    const StepRows r = RowsOf(si, n, a, fp);
    if (r.n == 0) continue;  // dead for these targets
    switch (st.op) {
      case IntOp::kQuantizeInput: {
        int8_t* dst = Ensure(buffer(st.dst), r.n, st.cols);
        QuantizeCodes8(ReadRows(x, r.gather, st.cols, &scratch->gather_f), dst,
                       r.n * st.cols, st.out_params);
        break;
      }
      case IntOp::kGemmRequant: {
        // Codes come straight out of the register tiles at the unpadded
        // stride: no int32 scratch round-trip, no padding strip pass.
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        int8_t* dst = Ensure(buffer(st.dst), r.n, lin.out);
        GemmInt8Requant(read(st.src, r.gather, lin.in), PackedWeights(lin, st),
                        r.n, lin.in, lin.out_padded, lin.out, GemmEpilogue(st),
                        dst);
        break;
      }
      case IntOp::kSpmmRequant: {
        const LoweredComponent& aq = adj_quants_[static_cast<size_t>(st.adj)];
        const int8_t* codes = QuantizedAdjacency(*r.csr, aq.params, &QuantizeCodes8,
                                                 &adj, &scratch->adj_q);
        int8_t* dst = Ensure(buffer(st.dst), r.n, st.cols);
        SpmmInt8Requant(*r.csr, codes, read(st.src, nullptr, st.cols),
                        st.cols, SpmmEpilogue(st), dst);
        break;
      }
      case IntOp::kAddRequant: {
        int8_t* dst = Ensure(buffer(st.dst), r.n, st.cols);
        AddRequantCodes(read(st.src, r.gather, st.cols),
                        read(st.src2, nullptr, st.cols), dst, r.n * st.cols, st.s1,
                        st.s2, StepEmitter(st));
        break;
      }
      case IntOp::kRelu: {
        int8_t* dst = Ensure(buffer(st.dst), r.n, st.cols);
        ReluCodes(read(st.src, r.gather, st.cols), dst, r.n * st.cols);
        break;
      }
    }
  }
  const int64_t rows =
      fp == nullptr ? n : static_cast<int64_t>(fp->targets().size());
  DequantizeCodes(buffer(int_final_buffer_)->data(), out, rows * out_dim_,
                  int_final_params_);
}

}  // namespace engine
}  // namespace mixq
