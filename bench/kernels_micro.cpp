// Copyright 2026 MixQ-GNN Authors
// Google-Benchmark micro suite for the compute kernels underlying every
// experiment: dense GEMM (float and int32), sparse SpMM (float and int),
// fake quantization, the Theorem-1 fused quantized SpMM, the pruned
// serving path's frontier expansion / induced-CSR slicing, and one GCN
// layer's fused serving kernels at a hidden and a class-count width, alone
// and as loops of one pooled sequence.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "quant/fake_quant.h"
#include "quant/fused_mp.h"
#include "quant/requant.h"
#include "sparse/csr.h"
#include "sparse/frontier.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace mixq {
namespace {

CsrMatrix RandomGraph(int64_t n, int64_t avg_degree, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int64_t e = 0; e < n * avg_degree; ++e) {
    entries.push_back({rng.UniformInt(0, n - 1), rng.UniformInt(0, n - 1),
                       rng.Uniform(-1.0f, 1.0f)});
  }
  return CsrMatrix::FromCoo(n, n, entries);
}

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandomUniform(Shape(n, n), &rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform(Shape(n, n), &rng, -1.0f, 1.0f);
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmNN(a.data().data(), b.data().data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmInt32(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<int32_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int32_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int32_t>(rng.UniformInt(-127, 127));
  std::vector<int64_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt32(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmInt8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(11);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int32_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt8(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

// The serving executor's dense kernel: int8 codes against pair-packed
// weights (packed once, as CompileModel does).
void BM_GemmInt8PackedB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(12);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int16_t> packed(static_cast<size_t>(PackedPairSize(n, n)));
  PackInt8PairB(b.data(), n, n, packed.data());
  std::vector<int32_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt8PackedB(a.data(), packed.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8PackedB)->Arg(64)->Arg(128)->Arg(256);

/// A representative serving epilogue: folded scale ratio + an int8 output
/// quantizer (no bias — the bias add is identical in both variants and would
/// only dilute the round-trip difference under test).
RequantEpilogue BenchEpilogue() {
  RequantEpilogue ep;
  ep.total = 0.004321;
  ep.emitter = CodeEmitter(ParamsFromRange(-1.0f, 1.0f, 8, true));
  return ep;
}

/// The pre-fusion executor shape: int8 GEMM into an int32 scratch matrix,
/// then a separate pass requantizing scratch rows to codes. The A/B partner
/// of BM_GemmInt8RequantFused — same inputs, same output codes.
void BM_GemmInt8RequantUnfused(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(16);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int16_t> packed(static_cast<size_t>(PackedPairSize(n, n)));
  PackInt8PairB(b.data(), n, n, packed.data());
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int32_t> acc(static_cast<size_t>(n * n));
  std::vector<int8_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt8PackedB(a.data(), packed.data(), acc.data(), n, n, n);
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t j0 = 0; j0 < n; j0 += kRequantBlock) {
        const int64_t len = std::min(kRequantBlock, n - j0);
        RequantBlock(acc.data() + r * n + j0, len, ep.total, nullptr, ep.emitter,
                     c.data() + r * n + j0);
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8RequantUnfused)->Arg(64)->Arg(128)->Arg(256);

/// The fused epilogue: requantizes register/row-block accumulators straight
/// to int8 codes — no int32 scratch matrix in the loop.
void BM_GemmInt8RequantFused(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(16);  // same seed as the unfused partner: identical inputs
  std::vector<int8_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int16_t> pair(static_cast<size_t>(PackedPairSize(n, n)));
  PackInt8PairB(b.data(), n, n, pair.data());
  std::vector<int8_t> quad(static_cast<size_t>(PackedQuadSize(n, n)));
  std::vector<int32_t> corr(static_cast<size_t>(n));
  PackInt8QuadB(b.data(), n, n, quad.data(), corr.data());
  Int8PackedWeights w;
  w.pair = pair.data();
  if (Int8VnniDepthOk(n)) {
    w.quad = quad.data();
    w.corr = corr.data();
    // Full-scale random codes: the coarse depth predicate IS the proof here.
    w.vnni_ok = true;
  }
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int8_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt8Requant(a.data(), w, n, n, n, n, ep, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmInt8RequantFused)->Arg(64)->Arg(128)->Arg(256);

/// VNNI (vpdpbusd) vs vpmaddwd vs scalar on the same fused int8 GEMM:
/// Arg encodes the KernelIsa tier; unsupported tiers are skipped. Restores
/// the ambient dispatch level afterwards.
void BM_GemmInt8ByIsa(benchmark::State& state) {
  const auto isa = static_cast<KernelIsa>(state.range(0));
  if (isa > BestSupportedIsa()) {
    state.SkipWithError("kernel tier not supported on this machine/build");
    return;
  }
  const KernelIsa ambient = ActiveKernelIsa();
  SetKernelIsa(isa);
  const int64_t n = 256;
  Rng rng(17);
  std::vector<int8_t> a(static_cast<size_t>(n * n)), b(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int16_t> pair(static_cast<size_t>(PackedPairSize(n, n)));
  PackInt8PairB(b.data(), n, n, pair.data());
  std::vector<int8_t> quad(static_cast<size_t>(PackedQuadSize(n, n)));
  std::vector<int32_t> corr(static_cast<size_t>(n));
  PackInt8QuadB(b.data(), n, n, quad.data(), corr.data());
  Int8PackedWeights w;
  w.pair = pair.data();
  w.quad = quad.data();
  w.corr = corr.data();
  w.vnni_ok = Int8VnniDepthOk(n);
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int8_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    GemmInt8Requant(a.data(), w, n, n, n, n, ep, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(KernelIsaName(isa));
  SetKernelIsa(ambient);
}
BENCHMARK(BM_GemmInt8ByIsa)->Arg(0)->Arg(1)->Arg(2);

void BM_SpmmFloat(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 3);
  Rng rng(4);
  Tensor x = Tensor::RandomUniform(Shape(n, 64), &rng, -1.0f, 1.0f);
  std::vector<float> y(static_cast<size_t>(n * 64));
  for (auto _ : state) {
    SpmmRaw(a, x.data().data(), 64, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_SpmmFloat)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SpmmInt(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 5);
  Rng rng(6);
  std::vector<int32_t> aq(static_cast<size_t>(a.nnz()));
  for (auto& v : aq) v = static_cast<int32_t>(rng.UniformInt(-127, 127));
  std::vector<int32_t> x(static_cast<size_t>(n * 64));
  for (auto& v : x) v = static_cast<int32_t>(rng.UniformInt(-127, 127));
  std::vector<int64_t> y(static_cast<size_t>(n * 64));
  for (auto _ : state) {
    SpmmInt(a, aq.data(), x.data(), 64, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_SpmmInt)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_SpmmInt8(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 10);
  Rng rng(13);
  std::vector<int8_t> aq(static_cast<size_t>(a.nnz()));
  for (auto& v : aq) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int8_t> x(static_cast<size_t>(n * 64));
  for (auto& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int32_t> y(static_cast<size_t>(n * 64));
  for (auto _ : state) {
    SpmmInt8(a, aq.data(), x.data(), 64, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_SpmmInt8)->Arg(1000)->Arg(4000)->Arg(16000);

/// Pre-fusion integer aggregation: SpmmInt8 into an int32 scratch matrix,
/// then a separate row-major requant pass — the A/B partner of
/// BM_SpmmInt8RequantFused (same graph, same codes out).
void BM_SpmmInt8RequantUnfused(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 18);
  Rng rng(19);
  std::vector<int8_t> aq(static_cast<size_t>(a.nnz()));
  for (auto& v : aq) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int8_t> x(static_cast<size_t>(n * 64));
  for (auto& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int32_t> acc(static_cast<size_t>(n * 64));
  std::vector<int8_t> y(static_cast<size_t>(n * 64));
  for (auto _ : state) {
    SpmmInt8(a, aq.data(), x.data(), 64, acc.data());
    for (int64_t r = 0; r < n; ++r) {
      RequantBlock(acc.data() + r * 64, 64, ep.total, nullptr, ep.emitter,
                   y.data() + r * 64);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_SpmmInt8RequantUnfused)->Arg(1000)->Arg(4000)->Arg(16000);

/// Fused aggregation epilogue: each row's feature tile accumulates in a
/// stack int32 block and requantizes from there — the scratch matrix (and
/// its second memory sweep) disappears.
void BM_SpmmInt8RequantFused(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 18);  // same seed: identical graph
  Rng rng(19);
  std::vector<int8_t> aq(static_cast<size_t>(a.nnz()));
  for (auto& v : aq) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int8_t> x(static_cast<size_t>(n * 64));
  for (auto& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int8_t> y(static_cast<size_t>(n * 64));
  for (auto _ : state) {
    SpmmInt8Requant(a, aq.data(), x.data(), 64, ep, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_SpmmInt8RequantFused)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_FusedQuantizedSpmm(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 7);
  Rng rng(8);
  Tensor x = Tensor::RandomUniform(Shape(n, 64), &rng, -1.0f, 1.0f);
  QuantParams pa = ParamsFromRange(-1.0f, 1.0f, 8, true);
  QuantParams px = ParamsFromRange(-1.0f, 1.0f, 8, true);
  QuantParams py;
  py.bits = 32;
  QuantizedSparse qa = QuantizeCsr(a, pa);
  QuantizedDense qx = QuantizeDense(x, px);
  for (auto _ : state) {
    auto out = FusedQuantizedSpmm(a, qa, qx, py);
    benchmark::DoNotOptimize(out.q.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 64);
}
BENCHMARK(BM_FusedQuantizedSpmm)->Arg(1000)->Arg(4000)->Arg(16000);

// The pruned serving path's per-request analysis: expand the 2-hop
// receptive field of 64 seed nodes. Items processed = entries traversed.
void BM_ExpandFrontier(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 14);
  std::vector<int64_t> seeds;
  for (int64_t i = 0; i < 64; ++i) seeds.push_back((i * 9973) % n);
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  FrontierWorkspace ws;
  ws.EnsureSize(n);
  // Item count is deterministic: compute it outside the timed loop so the
  // per-item rate reflects only the expansion under test.
  const int64_t traversed =
      RowsNnz(a, seeds) +
      RowsNnz(a, ExpandFrontier(a, seeds, /*include_rows=*/true, &ws));
  for (auto _ : state) {
    std::vector<int64_t> hop1 = ExpandFrontier(a, seeds, /*include_rows=*/true, &ws);
    std::vector<int64_t> hop2 = ExpandFrontier(a, hop1, /*include_rows=*/true, &ws);
    benchmark::DoNotOptimize(hop2.data());
  }
  state.SetItemsProcessed(state.iterations() * traversed);
}
BENCHMARK(BM_ExpandFrontier)->Arg(16000)->Arg(65536);

// Slicing the frontier's rows out of the graph CSR with the old→new column
// remap — the setup cost a pruned forward pays instead of a full SpMM.
void BM_InducedRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  CsrMatrix a = RandomGraph(n, 8, 15);
  std::vector<int64_t> seeds;
  for (int64_t i = 0; i < 64; ++i) seeds.push_back((i * 9973) % n);
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  FrontierWorkspace ws;
  ws.EnsureSize(n);
  std::vector<int64_t> rows = ExpandFrontier(a, seeds, /*include_rows=*/true, &ws);
  std::vector<int64_t> frontier = ExpandFrontier(a, rows, /*include_rows=*/true, &ws);
  for (size_t j = 0; j < frontier.size(); ++j) ws.pos[frontier[j]] = j;
  int64_t sliced_nnz = 0;
  for (auto _ : state) {
    CsrMatrix induced =
        a.InducedRows(rows, ws.pos.data(), static_cast<int64_t>(frontier.size()));
    sliced_nnz = induced.nnz();
    benchmark::DoNotOptimize(induced.values().data());
  }
  state.SetItemsProcessed(state.iterations() * sliced_nnz);
}
BENCHMARK(BM_InducedRows)->Arg(16000)->Arg(65536);

void BM_FakeQuant(benchmark::State& state) {
  const int64_t numel = state.range(0);
  Rng rng(9);
  Tensor x = Tensor::RandomUniform(Shape(numel), &rng, -1.0f, 1.0f);
  QuantParams p = ParamsFromRange(-1.0f, 1.0f, 8, true);
  for (auto _ : state) {
    Tensor y = FakeQuantOp(x, p);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(state.iterations() * numel);
}
BENCHMARK(BM_FakeQuant)->Arg(1 << 14)->Arg(1 << 18);

// ---- One GCN layer's kernels by output width ---------------------------------
// The serving executor's fused steps at the shapes of the small-graph
// forward: 1000 nodes, ~5 stored entries per row. The SpMMs' first arg is
// the feature width; the GEMMs' are the output width and the depth:
// n_out:64/k:96 is the first layer (96 input features, the forward's
// largest step), n_out:64/k:64 a hidden layer, n_out:7/k:64 the class-count
// layer of node classification (padded to 16 weight columns, as lowering
// pads it).
//
// Every layer runs as pooled loops over its rows, each chunk calling the
// kernel's row-range form. seq:0 runs one loop per iteration, one pool wake
// each, as a kernel called alone does; seq:1 runs kSeqLoops copies as the
// loops of one ParallelSequence, as a forward runs its steps: the workers
// are awake already, so a loop pays only the wait at its end. split:0 runs
// each loop as one chunk, the serial cost; split:1 cuts it into chunks of
// the kernel's row quantum. `loop_us` is the time per loop, `work` its
// multiply-adds. DESIGN.md §2 fits kParallelMinWork to these.

constexpr int64_t kLayerNodes = 1000;
constexpr int kSeqLoops = 8;

template <typename Rows>
void RunLayer(benchmark::State& state, bool seq, bool split, int64_t quantum,
              int64_t work, const Rows& rows) {
  const int64_t count = seq ? kSeqLoops : 1;
  const std::vector<ParallelLoop> loops(
      static_cast<size_t>(count),
      ParallelLoop{kLayerNodes, split ? quantum : kLayerNodes, rows});
  for (auto _ : state) ParallelSequence(loops);
  state.SetItemsProcessed(state.iterations() * count * work);
  state.counters["work"] = static_cast<double>(work);
  state.counters["loop_us"] = benchmark::Counter(
      static_cast<double>(count) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void LayerSpmmShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"f", "seq", "split"})->ArgsProduct({{1, 2, 3, 4, 7, 64}, {0, 1}, {0, 1}});
}

void LayerGemmShapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n_out", "k", "seq", "split"});
  for (int64_t seq : {0, 1}) {
    for (int64_t split : {0, 1}) {
      b->Args({7, 64, seq, split})->Args({64, 64, seq, split})->Args({64, 96, seq, split});
    }
  }
}

int64_t PaddedWidth(int64_t n_out) { return (n_out + 15) / 16 * 16; }

FloatEpilogue BenchFloatEpilogue(const float* bias) {
  FloatEpilogue ep;
  ep.bias = bias;
  ep.quantize = true;
  ep.quant = GridFakeQuant(ParamsFromRange(-2.0f, 2.0f, 8, true));
  return ep;
}

void BM_LayerSpmmFloat(benchmark::State& state) {
  const int64_t f = state.range(0);
  CsrMatrix a = RandomGraph(kLayerNodes, 5, 31);
  Rng rng(32);
  Tensor x = Tensor::RandomUniform(Shape(kLayerNodes, f), &rng, -1.0f, 1.0f);
  const FloatEpilogue ep = BenchFloatEpilogue(nullptr);
  std::vector<float> y(static_cast<size_t>(kLayerNodes * f));
  RunLayer(state, state.range(1) != 0, state.range(2) != 0, 64, a.nnz() * f,
           [&](int64_t r0, int64_t r1) {
             SpmmPatternRows(a, a.values().data(), x.data().data(), f, y.data(),
                             ep, r0, r1);
           });
}
BENCHMARK(BM_LayerSpmmFloat)->Apply(LayerSpmmShapes);

void BM_LayerSpmmInt8(benchmark::State& state) {
  const int64_t f = state.range(0);
  CsrMatrix a = RandomGraph(kLayerNodes, 5, 31);
  Rng rng(33);
  std::vector<int8_t> aq(static_cast<size_t>(a.nnz()));
  for (auto& v : aq) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int8_t> x(static_cast<size_t>(kLayerNodes * f));
  for (auto& v : x) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  const RequantEpilogue ep = BenchEpilogue();
  std::vector<int8_t> y(static_cast<size_t>(kLayerNodes * f));
  RunLayer(state, state.range(1) != 0, state.range(2) != 0, 64, a.nnz() * f,
           [&](int64_t r0, int64_t r1) {
             SpmmInt8RequantRows(a, aq.data(), x.data(), f, ep, y.data(), r0, r1);
           });
}
BENCHMARK(BM_LayerSpmmInt8)->Apply(LayerSpmmShapes);

void BM_LayerGemmFloat(benchmark::State& state) {
  const int64_t n_out = state.range(0);
  const int64_t depth = state.range(1);
  const int64_t n = PaddedWidth(n_out);
  Rng rng(34);
  Tensor a = Tensor::RandomUniform(Shape(kLayerNodes, depth), &rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform(Shape(depth, n), &rng, -0.2f, 0.2f);
  std::vector<float> bias(static_cast<size_t>(n_out), 0.01f);
  const FloatEpilogue ep = BenchFloatEpilogue(bias.data());
  std::vector<float> work(static_cast<size_t>(kLayerNodes * n));
  std::vector<float> y(static_cast<size_t>(kLayerNodes * n_out));
  RunLayer(state, state.range(2) != 0, state.range(3) != 0, 16, kLayerNodes * depth * n,
           [&](int64_t r0, int64_t r1) {
             GemmNNEpilogue(a.data().data() + r0 * depth, b.data().data(),
                            work.data() + r0 * n, r1 - r0, depth, n, n_out, ep,
                            y.data() + r0 * n_out);
           });
}
BENCHMARK(BM_LayerGemmFloat)->Apply(LayerGemmShapes);

void BM_LayerGemmInt8(benchmark::State& state) {
  const int64_t n_out = state.range(0);
  const int64_t depth = state.range(1);
  const int64_t n = PaddedWidth(n_out);
  Rng rng(35);
  std::vector<int8_t> a(static_cast<size_t>(kLayerNodes * depth));
  for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(-127, 127));
  std::vector<int8_t> b(static_cast<size_t>(depth * n), 0);
  for (int64_t l = 0; l < depth; ++l) {
    for (int64_t j = 0; j < n_out; ++j) {
      b[static_cast<size_t>(l * n + j)] = static_cast<int8_t>(rng.UniformInt(-127, 127));
    }
  }
  std::vector<int16_t> pair(static_cast<size_t>(PackedPairSize(depth, n)));
  PackInt8PairB(b.data(), depth, n, pair.data());
  std::vector<int8_t> quad(static_cast<size_t>(PackedQuadSize(depth, n)));
  std::vector<int32_t> corr(static_cast<size_t>(n));
  PackInt8QuadB(b.data(), depth, n, quad.data(), corr.data());
  Int8PackedWeights w;
  w.pair = pair.data();
  w.quad = quad.data();
  w.corr = corr.data();
  w.vnni_ok = Int8VnniDepthOk(depth);
  std::vector<double> bias(static_cast<size_t>(n_out), 0.3);
  RequantEpilogue ep = BenchEpilogue();
  ep.bias = bias.data();
  std::vector<int8_t> y(static_cast<size_t>(kLayerNodes * n_out));
  RunLayer(state, state.range(2) != 0, state.range(3) != 0, 16, kLayerNodes * depth * n,
           [&](int64_t r0, int64_t r1) {
             GemmInt8Requant(a.data() + r0 * depth, w, r1 - r0, depth, n, n_out, ep,
                             y.data() + r0 * n_out);
           });
}
BENCHMARK(BM_LayerGemmInt8)->Apply(LayerGemmShapes);

}  // namespace
}  // namespace mixq

// BENCHMARK_MAIN plus the build this run measured: Google Benchmark's own
// context reports only its library's build type, not this one's.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("mixq_build_type", MIXQ_BUILD_TYPE);
  benchmark::AddCustomContext("mixq_threads", std::to_string(mixq::NumThreads()));
  benchmark::AddCustomContext("mixq_kernel_isa",
                              mixq::KernelIsaName(mixq::ActiveKernelIsa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
