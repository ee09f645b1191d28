// Copyright 2026 MixQ-GNN Authors
#include "engine/execution_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
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

// ---- per-element loop bodies of the executors -----------------------------
// Each returns the body of one elementwise pass, fn(i0, i1) over element
// indices: the executors run it as a loop of their forward's sequence, and
// lowering runs it once over a whole weight matrix.

// Fake quantization through GridFakeQuant (quant/requant.h), which mirrors
// FakeQuantOp (quant/fake_quant.cc) value for value. Bitwise parity of the
// lowered path hinges on this computing the identical grid point. Serves the
// quantize steps no kernel absorbs (the input's), weights at lowering and
// the per-request adjacency.
auto FakeQuantBody(const float* x, float* out, const QuantParams& p) {
  const GridFakeQuant fq(p);
  return [=](int64_t i0, int64_t i1) {
    const float* __restrict xp = x;
    float* __restrict op = out;
    const GridFakeQuant f = fq;
    for (int64_t i = i0; i < i1; ++i) op[i] = f(xp[i]);
  };
}

// Integer codes on the same grid as FakeQuantBody: dequantizing a code
// ((code - Z) * S) reproduces the fake-quantized float exactly.
auto QuantizeCodesBody(const float* x, int8_t* out, const QuantParams& p) {
  const double inv_scale = 1.0 / p.scale;
  const CodeEmitter em(p);
  return [=](int64_t i0, int64_t i1) {
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
  };
}

/// dst = a1 + a2, with the add step's fused epilogue (never a bias: lowered
/// adds carry none) on each L1-sized block as soon as it is summed.
auto AddBody(const float* a1, const float* a2, float* dst, const FloatEpilogue& ep) {
  return [=](int64_t i0, int64_t i1) {
    for (int64_t b0 = i0; b0 < i1; b0 += kRequantBlock) {
      const int64_t bn = std::min<int64_t>(kRequantBlock, i1 - b0);
      for (int64_t j = 0; j < bn; ++j) dst[b0 + j] = a1[b0 + j] + a2[b0 + j];
      ep.ApplyRow(dst + b0, dst + b0, /*col=*/0, bn);
    }
  };
}

/// codes(dst) = Requant(s1·a + s2·c) — the integer residual add.
auto AddRequantBody(const int8_t* a, const int8_t* c, int8_t* dst, double s1,
                    double s2, const CodeEmitter& em) {
  return [=](int64_t i0, int64_t i1) {
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
  };
}

/// ReLU, on floats or directly on symmetric codes. Lowered ReLUs run in
/// place (src == dst), so neither pointer is restrict-qualified; the locals
/// still keep int8 stores from reloading the closure's pointers.
template <typename T>
auto ReluBody(const T* src, T* dst) {
  return [=](int64_t i0, int64_t i1) {
    const T* sp = src;
    T* dp = dst;
    for (int64_t i = i0; i < i1; ++i) dp[i] = sp[i] > T{0} ? sp[i] : T{0};
  };
}

/// Final dequantization of logit codes into float output.
auto DequantizeBody(const int8_t* codes, float* out, const QuantParams& p) {
  const float scale = p.scale;
  const int32_t zp = p.zero_point;
  return [=](int64_t i0, int64_t i1) {
    const int8_t* __restrict cp = codes;
    float* __restrict op = out;
    for (int64_t i = i0; i < i1; ++i) {
      op[i] = static_cast<float>(cp[i] - zp) * scale;
    }
  };
}

/// True when a lowered component fits the all-integer executor: a symmetric
/// quantizer of width <= 8 bits, whose codes fit int8 and whose zero point
/// vanishes (making ReLU exact on codes and the Theorem-1 corrections free).
bool Int8able(const LoweredComponent& lc) {
  return !lc.identity && lc.params.symmetric && lc.params.zero_point == 0 &&
         lc.params.bits >= 1 && lc.params.bits <= 8;
}

/// Row-major [in, out] values laid out at the linear's padded width, padded
/// columns zero.
template <typename T>
std::vector<T> PadColumns(const std::vector<T>& rows, const LoweredLinear& lin) {
  std::vector<T> padded(static_cast<size_t>(lin.in * lin.out_padded), T{0});
  for (int64_t r = 0; r < lin.in; ++r) {
    std::copy_n(rows.data() + r * lin.out, lin.out,
                padded.data() + r * lin.out_padded);
  }
  return padded;
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

void ExecutionPlan::DeriveInt8Program() {
  has_int8_ = false;
  int_steps_.clear();
  int_final_buffer_ = 0;
  int_final_params_ = QuantParams();
  // grid[b]: the grid of the codes buffer b holds; empty before any step
  // writes it (and always for the input matrix, which holds floats).
  std::vector<std::optional<QuantParams>> grid(
      static_cast<size_t>(std::max(num_buffers_, 0)));
  auto grid_of = [&](int b) -> const QuantParams* {
    if (b < 0 || b >= static_cast<int>(grid.size())) return nullptr;
    const std::optional<QuantParams>& g = grid[static_cast<size_t>(b)];
    return g.has_value() ? &*g : nullptr;
  };
  std::vector<IntStep> out;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& st = steps_[i];
    if (st.dst < 0 || st.dst >= static_cast<int>(grid.size())) return;
    IntStep is;
    is.src = st.src;
    is.dst = st.dst;
    is.cols = st.cols;
    QuantParams written;  // the grid of the codes this step leaves in dst
    if (st.op == Op::kQuantize) {
      // Only the input's quantize stands alone; every other one belongs to
      // the producer before it.
      if (st.src != kInput || !Int8able(st.quant)) return;
      is.op = IntOp::kQuantizeInput;
      is.out_params = written = st.quant.params;
    } else if (st.op == Op::kRelu) {
      const QuantParams* src = grid_of(st.src);
      if (src == nullptr) return;
      is.op = IntOp::kRelu;
      written = *src;  // max(code, 0) stays on its source's grid
    } else {
      const QuantParams* src = grid_of(st.src);
      if (src == nullptr || i + 1 == steps_.size()) return;
      const Step& q = steps_[i + 1];
      if (q.op != Op::kQuantize || q.src != st.dst || q.dst != st.dst ||
          q.cols != st.cols || !Int8able(q.quant)) {
        return;
      }
      is.src_params = *src;
      is.out_params = written = q.quant.params;
      if (st.op == Op::kMatMul) {
        if (st.linear < 0 || st.linear >= static_cast<int>(linears_.size())) {
          return;
        }
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        if (lin.weight_q8.empty() || !Int8DepthOk(lin.in)) return;
        is.op = IntOp::kGemmRequant;
        is.linear = st.linear;
        const double inv_out = 1.0 / is.out_params.scale;
        is.bias_over.reserve(lin.bias.size());
        for (float bias : lin.bias) {
          is.bias_over.push_back(static_cast<double>(bias) * inv_out);
        }
      } else if (st.op == Op::kSpmm) {
        if (st.adj < 0 || st.adj >= static_cast<int>(adj_quants_.size()) ||
            !Int8able(adj_quants_[static_cast<size_t>(st.adj)])) {
          return;
        }
        is.op = IntOp::kSpmmRequant;
        is.adj = st.adj;
      } else {
        const QuantParams* src2 = grid_of(st.src2);
        if (src2 == nullptr) return;
        is.op = IntOp::kAddRequant;
        is.src2 = st.src2;
        is.src2_params = *src2;
      }
      ++i;  // the quantize is this step's requantization
    }
    grid[static_cast<size_t>(is.dst)] = written;
    out.push_back(std::move(is));
  }
  const QuantParams* fin = grid_of(final_buffer_);
  if (fin == nullptr) return;
  int_steps_ = std::move(out);
  int_final_buffer_ = final_buffer_;
  int_final_params_ = *fin;
  has_int8_ = true;
}

void ExecutionPlan::FinalizeDerived() {
  DeriveInt8Program();
  const Op float_folds[] = {Op::kQuantize, Op::kRelu};
  MarkFolds(&steps_, &FloatProducer, float_folds);
  const IntOp int_folds[] = {IntOp::kRelu};
  MarkFolds(&int_steps_, &IntProducer, int_folds);
  for (LoweredLinear& lin : linears_) {
    if (lin.weight_q8.empty() || !lin.weight_quad.empty()) continue;
    // The codes are the weight; every other view is rebuilt from them. The
    // float view is exactly what GridFakeQuant made of the raw weight: the
    // same code (Int8able grids have zero point 0) times the same scale.
    const float scale = lin.weight_params.scale;
    lin.weight_fq.assign(lin.weight_q8.size(), 0.0f);
    for (int64_t r = 0; r < lin.in; ++r) {
      const int8_t* q = lin.weight_q8.data() + r * lin.out_padded;
      float* w = lin.weight_fq.data() + r * lin.out_padded;
      for (int64_t c = 0; c < lin.out; ++c) w[c] = static_cast<float>(q[c]) * scale;
    }
    lin.weight_packed.resize(
        static_cast<size_t>(PackedPairSize(lin.in, lin.out_padded)));
    PackInt8PairB(lin.weight_q8.data(), lin.in, lin.out_padded,
                  lin.weight_packed.data());
    lin.weight_quad.resize(
        static_cast<size_t>(PackedQuadSize(lin.in, lin.out_padded)));
    lin.weight_corr.resize(static_cast<size_t>(lin.out_padded));
    PackInt8QuadB(lin.weight_q8.data(), lin.in, lin.out_padded,
                  lin.weight_quad.data(), lin.weight_corr.data());
  }
  for (IntStep& st : int_steps_) {
    st.emitter = CodeEmitter(st.out_params);
    switch (st.op) {
      case IntOp::kGemmRequant: {
        // The derivation only references in-range tables, and the codec
        // sized every code matrix [in, out_padded] before this runs.
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        st.total = static_cast<double>(st.src_params.scale) *
                   lin.weight_params.scale / st.out_params.scale;
        // Per-step VNNI overflow certificate from the ACTUAL frozen codes.
        // src_params.qmax() is the plan checker's source-code bound too
        // (every int8 producer clamps into its grid), so dispatch and
        // certificate can never disagree.
        st.vnni_safe = VnniAccumulationSafe(
            st.src_params.qmax(),
            MaxColumnAbsSum(lin.weight_q8.data(), lin.in, lin.out_padded));
        break;
      }
      case IntOp::kSpmmRequant: {
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
  std::unique_ptr<ExecutionPlan> Finish(int cur_buffer) {
    if (!ok_) return nullptr;
    plan_->final_buffer_ = cur_buffer;
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

  // Quantizes the weight once. An Int8able weight keeps only its int8 codes;
  // FinalizeDerived rebuilds the float view Execute() multiplies by and the
  // packings ExecuteInt8() consumes from them. Any other weight keeps its
  // fake-quantized (or, for identity, raw) floats. Narrow outputs (e.g. the
  // class-count-wide logit layer) are zero-padded to the GEMM vector width
  // so the micro-kernel's full path applies; padded columns are dead weight
  // the executor strips after each product.
  int AddLinear(const Tensor& weight, const Tensor& bias,
                const LoweredComponent& wq) {
    constexpr int64_t kPad = 16;  // gemm.cc micro-kernel column width
    LoweredLinear lin;
    lin.in = weight.rows();
    lin.out = weight.cols();
    lin.out_padded = lin.out % kPad == 0 ? lin.out : (lin.out / kPad + 1) * kPad;
    const std::vector<float>& wd = weight.data();
    const int64_t n = static_cast<int64_t>(wd.size());
    if (!wq.identity) lin.weight_params = wq.params;
    if (Int8able(wq)) {
      std::vector<int8_t> codes(wd.size());
      QuantizeCodesBody(wd.data(), codes.data(), wq.params)(0, n);
      lin.weight_q8 = PadColumns(codes, lin);
    } else if (wq.identity) {
      lin.weight_fq = PadColumns(wd, lin);
    } else {
      std::vector<float> fq(wd.size());
      FakeQuantBody(wd.data(), fq.data(), wq.params)(0, n);
      lin.weight_fq = PadColumns(fq, lin);
    }
    if (bias.defined()) lin.bias = bias.data();
    plan_->linears_.push_back(std::move(lin));
    return static_cast<int>(plan_->linears_.size()) - 1;
  }

  int AddAdj(const LoweredComponent& adjq) {
    plan_->adj_quants_.push_back(adjq);
    return static_cast<int>(plan_->adj_quants_.size()) - 1;
  }

  // ---- step emission --------------------------------------------------------
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

  const auto& layers = net.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const GcnConv& conv = *layers[l];
    const std::string& id = conv.id();
    const LoweredComponent wq = b.Component(id + "/weight");
    const LoweredComponent lin_out = b.Component(id + "/linear_out");
    const LoweredComponent adj = b.Component(id + "/adj");
    const LoweredComponent agg = b.Component(id + "/agg");
    if (!b.ok()) return nullptr;
    const int64_t out = conv.out_features();
    const int widx = b.AddLinear(conv.weight(), Tensor(), wq);
    const int aidx = b.AddAdj(adj);

    b.MatMul(cur, 1, widx, out);
    if (!lin_out.identity) b.Quantize(1, 1, lin_out, out);
    b.Spmm(1, 0, aidx, out);
    if (!agg.identity) b.Quantize(0, 0, agg, out);
    if (l + 1 < layers.size()) b.Relu(0, out);
    cur = 0;
  }
  return b.Finish(cur);
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

  const auto& layers = net.layers();
  for (size_t l = 0; l < layers.size(); ++l) {
    const SageConv& conv = *layers[l];
    const std::string& id = conv.id();
    const Linear& root = conv.root_linear();
    const Linear& neigh = conv.neighbor_linear();
    const LoweredComponent adj = b.Component(id + "/adj");
    const LoweredComponent agg = b.Component(id + "/agg");
    const LoweredComponent root_w = b.Component(root.weight_component());
    const LoweredComponent root_out = b.Component(root.out_component());
    const LoweredComponent neigh_w = b.Component(neigh.weight_component());
    const LoweredComponent neigh_out = b.Component(neigh.out_component());
    const LoweredComponent out = b.Component(id + "/out");
    if (!b.ok()) return nullptr;
    const int64_t in = root.in_features();
    const int64_t width = root.out_features();
    const int aidx = b.AddAdj(adj);
    const int root_idx = b.AddLinear(root.weight(), root.bias(), root_w);
    const int neigh_idx = b.AddLinear(neigh.weight(), neigh.bias(), neigh_w);

    b.Spmm(cur, 1, aidx, in);
    if (!agg.identity) b.Quantize(1, 1, agg, in);
    b.MatMul(cur, 2, root_idx, width);
    if (!root_out.identity) b.Quantize(2, 2, root_out, width);
    b.MatMul(1, 3, neigh_idx, width);
    if (!neigh_out.identity) b.Quantize(3, 3, neigh_out, width);
    b.Add(2, 3, 0, width);
    if (!out.identity) b.Quantize(0, 0, out, width);
    if (l + 1 < layers.size()) b.Relu(0, width);
    cur = 0;
  }
  return b.Finish(cur);
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

/// Grows a scratch buffer to at least `need` elements. A forward sizes every
/// buffer before it builds its first loop: the loops hold raw pointers into
/// them, so none may move once one is taken.
template <typename T>
void Grow(std::vector<T>* buf, int64_t need) {
  if (buf->size() < static_cast<size_t>(need)) buf->resize(static_cast<size_t>(need));
}

// Chunk quanta of a forward's loops: elements for the elementwise passes,
// rows for the gathers and SpMMs, and for the GEMMs a multiple of their
// 4-row micro-tile.
constexpr int64_t kElementGrain = 4096;
constexpr int64_t kRowGrain = 64;
constexpr int64_t kGemmGrain = 16;

/// The loop list of one forward, built in full before any of it runs: one
/// loop per step, plus the row gathers and adjacency quantizations the
/// steps read. Run() executes it as one ParallelSequence, so the pool's
/// workers wake once per forward, and each loop starts only once the one
/// before it has finished — which is also what lets steps share the gather,
/// GEMM and adjacency scratch: a loop that rewrites one starts after every
/// loop that read it.
class ForwardLoops {
 public:
  /// A loop over `n` rows or elements in chunks of whole grains. The
  /// workers are awake for the whole sequence, so even a loop of a few
  /// thousand multiply-adds gains from the split (DESIGN.md §2, "The work
  /// threshold"): no loop here is made one chunk by its work.
  template <typename Body>
  void Add(int64_t n, int64_t grain, Body body) {
    loops_.push_back({n, grain, std::move(body)});
  }

  template <typename Body>
  void Elementwise(int64_t count, Body body) {
    Add(count, kElementGrain, std::move(body));
  }

  /// `base`, or — after a loop that copies its `gather` rows of `width`
  /// elements into `staging` — `staging`.
  template <typename T>
  const T* Gather(const T* base, const std::vector<int64_t>* gather,
                  int64_t width, T* staging) {
    if (gather == nullptr) return base;
    const int64_t* rows = gather->data();
    const int64_t n = static_cast<int64_t>(gather->size());
    const size_t row_bytes = sizeof(T) * static_cast<size_t>(width);
    Add(n, kRowGrain, [=](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        std::memcpy(staging + i * width, base + rows[i] * width, row_bytes);
      }
    });
    return staging;
  }

  void Run() const { ParallelSequence(loops_); }

 private:
  std::vector<ParallelLoop> loops_;
};

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

/// The CSR and grid the scratch adjacency buffer was last quantized for, so
/// a forward quantizes it only when either changes. A full forward's layers
/// share the request's CSR and usually one grid, so it is quantized once per
/// request; every pruned step carries its own induced CSR. A plan may carry
/// a different grid per SpMM step (mixq): the buffer is then requantized in
/// a loop that starts after the SpMM that read the previous grid.
struct AdjCache {
  const CsrMatrix* csr = nullptr;
  QuantParams params;

  /// True — and from now on current — when the buffer does not yet hold
  /// `c`'s values on grid `p`.
  bool Update(const CsrMatrix& c, const QuantParams& p) {
    if (csr == &c && SameParams(params, p)) return false;
    csr = &c;
    params = p;
    return true;
  }
};

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
  for (size_t si = 0; si < steps_.size(); ++si) {
    const Step& st = steps_[si];
    const StepRows r = RowsOf(si, n, a, fp);
    if (st.folded || r.n == 0) continue;
    int64_t in = st.cols;
    if (st.op == Op::kMatMul) {
      const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
      in = lin.in;
      if (lin.out_padded != lin.out) Grow(&scratch->gemm_f, r.n * lin.out_padded);
    }
    Grow(buffer(st.dst), r.n * st.cols);
    if (r.gather != nullptr) Grow(&scratch->gather_f, r.n * in);
    if (st.op == Op::kSpmm && !adj_quants_[static_cast<size_t>(st.adj)].identity) {
      Grow(&scratch->adj_f, r.csr->nnz());
    }
  }

  ForwardLoops loops;
  auto read = [&](int id, const std::vector<int64_t>* gather,
                  int64_t width) -> const float* {
    const float* base = id == kInput ? x : buffer(id)->data();
    return loops.Gather(base, gather, width, scratch->gather_f.data());
  };
  AdjCache adj;
  for (size_t si = 0; si < steps_.size(); ++si) {
    const Step& st = steps_[si];
    const StepRows r = RowsOf(si, n, a, fp);
    // Skipped: steps that run as the previous kernel's epilogue, and steps
    // dead for these targets.
    if (st.folded || r.n == 0) continue;
    float* dst = buffer(st.dst)->data();
    const int64_t count = r.n * st.cols;
    switch (st.op) {
      case Op::kQuantize:
        loops.Elementwise(count, FakeQuantBody(read(st.src, r.gather, st.cols), dst,
                                               st.quant.params));
        break;
      case Op::kMatMul: {
        // Each chunk multiplies its own rows: the GEMM called on a row slice.
        // Padded products accumulate in their own buffer; the epilogue
        // writes the unpadded columns to dst.
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        const float* src = read(st.src, r.gather, lin.in);
        float* work = lin.out_padded == lin.out ? dst : scratch->gemm_f.data();
        loops.Add(r.n, kGemmGrain,
                  [&lin, src, work, dst, ep = EpilogueOf(steps_, si, linears_)](
                      int64_t r0, int64_t r1) {
                    GemmNNEpilogue(src + r0 * lin.in, lin.weight_fq.data(),
                                   work + r0 * lin.out_padded, r1 - r0, lin.in,
                                   lin.out_padded, lin.out, ep, dst + r0 * lin.out);
                  });
        break;
      }
      case Op::kSpmm: {
        const LoweredComponent& aq = adj_quants_[static_cast<size_t>(st.adj)];
        const CsrMatrix* csr = r.csr;
        // The CSR's columns index the whole source frontier: no gather.
        const float* src = read(st.src, nullptr, st.cols);
        const int64_t f = st.cols;
        const FloatEpilogue ep = EpilogueOf(steps_, si, linears_);
        if (aq.identity) {
          loops.Add(r.n, kRowGrain, [=](int64_t r0, int64_t r1) {
            SpmmRawRows(*csr, src, f, dst, ep, r0, r1);
          });
          break;
        }
        float* values = scratch->adj_f.data();
        if (adj.Update(*csr, aq.params)) {
          loops.Elementwise(csr->nnz(),
                            FakeQuantBody(csr->values().data(), values, aq.params));
        }
        loops.Add(r.n, kRowGrain, [=](int64_t r0, int64_t r1) {
          SpmmPatternRows(*csr, values, src, f, dst, ep, r0, r1);
        });
        break;
      }
      case Op::kAdd: {
        const float* src = read(st.src, r.gather, st.cols);
        loops.Elementwise(count, AddBody(src, read(st.src2, nullptr, st.cols), dst,
                                         EpilogueOf(steps_, si, linears_)));
        break;
      }
      case Op::kRelu:
        loops.Elementwise(count, ReluBody(read(st.src, r.gather, st.cols), dst));
        break;
    }
  }
  loops.Run();
  const int64_t rows =
      fp == nullptr ? n : static_cast<int64_t>(fp->targets().size());
  const float* logits = final_buffer_ == kInput ? x : buffer(final_buffer_)->data();
  std::memcpy(out, logits, sizeof(float) * static_cast<size_t>(rows * out_dim_));
}

void ExecutionPlan::RunInt8(const float* x, int64_t n, const CsrMatrix* a,
                            const FrontierProgram* fp, Scratch* scratch,
                            float* out) const {
  MIXQ_CHECK(has_int8_) << "plan has no int8 lowering";
  ForwardFaultHooks();
  scratch->q.resize(static_cast<size_t>(num_buffers_));
  auto buffer = [&](int id) { return &scratch->q[static_cast<size_t>(id)]; };
  for (size_t si = 0; si < int_steps_.size(); ++si) {
    const IntStep& st = int_steps_[si];
    const StepRows r = RowsOf(si, n, a, fp);
    if (st.folded || r.n == 0) continue;
    const int64_t in = st.op == IntOp::kGemmRequant
                           ? linears_[static_cast<size_t>(st.linear)].in
                           : st.cols;
    Grow(buffer(st.dst), r.n * st.cols);
    if (r.gather != nullptr && st.op == IntOp::kQuantizeInput) {
      Grow(&scratch->gather_f, r.n * in);
    } else if (r.gather != nullptr) {
      Grow(&scratch->gather_q, r.n * in);
    }
    if (st.op == IntOp::kSpmmRequant) Grow(&scratch->adj_q, r.csr->nnz());
  }

  ForwardLoops loops;
  auto read = [&](int id, const std::vector<int64_t>* gather,
                  int64_t width) -> const int8_t* {
    return loops.Gather<int8_t>(buffer(id)->data(), gather, width,
                                scratch->gather_q.data());
  };
  AdjCache adj;
  for (size_t si = 0; si < int_steps_.size(); ++si) {
    const IntStep& st = int_steps_[si];
    const StepRows r = RowsOf(si, n, a, fp);
    // Skipped: ReLUs that run as the previous kernel's clamp, and steps dead
    // for these targets.
    if (st.folded || r.n == 0) continue;
    int8_t* dst = buffer(st.dst)->data();
    const int64_t count = r.n * st.cols;
    switch (st.op) {
      case IntOp::kQuantizeInput: {
        const float* src =
            loops.Gather(x, r.gather, st.cols, scratch->gather_f.data());
        loops.Elementwise(count, QuantizeCodesBody(src, dst, st.out_params));
        break;
      }
      case IntOp::kGemmRequant: {
        // Codes come straight out of the register tiles at the unpadded
        // stride: no int32 scratch round-trip, no padding strip pass. Each
        // chunk multiplies its own rows: the GEMM called on a row slice.
        const LoweredLinear& lin = linears_[static_cast<size_t>(st.linear)];
        const int8_t* src = read(st.src, r.gather, lin.in);
        loops.Add(r.n, kGemmGrain,
                  [&lin, src, dst, w = PackedWeights(lin, st),
                   ep = GemmEpilogue(st)](int64_t r0, int64_t r1) {
                    GemmInt8Requant(src + r0 * lin.in, w, r1 - r0, lin.in,
                                    lin.out_padded, lin.out, ep, dst + r0 * lin.out);
                  });
        break;
      }
      case IntOp::kSpmmRequant: {
        const LoweredComponent& aq = adj_quants_[static_cast<size_t>(st.adj)];
        const CsrMatrix* csr = r.csr;
        int8_t* codes = scratch->adj_q.data();
        if (adj.Update(*csr, aq.params)) {
          loops.Elementwise(csr->nnz(),
                            QuantizeCodesBody(csr->values().data(), codes, aq.params));
        }
        const int8_t* src = read(st.src, nullptr, st.cols);
        const int64_t f = st.cols;
        loops.Add(r.n, kRowGrain,
                  [=, ep = SpmmEpilogue(st)](int64_t r0, int64_t r1) {
                    SpmmInt8RequantRows(*csr, codes, src, f, ep, dst, r0, r1);
                  });
        break;
      }
      case IntOp::kAddRequant: {
        const int8_t* src = read(st.src, r.gather, st.cols);
        loops.Elementwise(count, AddRequantBody(src, read(st.src2, nullptr, st.cols),
                                                dst, st.s1, st.s2, StepEmitter(st)));
        break;
      }
      case IntOp::kRelu:
        loops.Elementwise(count, ReluBody(read(st.src, r.gather, st.cols), dst));
        break;
    }
  }
  const int64_t rows =
      fp == nullptr ? n : static_cast<int64_t>(fp->targets().size());
  loops.Elementwise(rows * out_dim_,
                    DequantizeBody(buffer(int_final_buffer_)->data(), out,
                                   int_final_params_));
  loops.Run();
}

}  // namespace engine
}  // namespace mixq
