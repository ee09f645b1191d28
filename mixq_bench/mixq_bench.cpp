// Copyright 2026 MixQ-GNN Authors
// mixq_bench — one named serving workload against a MixqServer hosted in
// this process on loopback, measured through the wire protocol exactly as a
// remote client sees it.
//
//   mixq_bench --workload <name> --seed <s> [--seconds S] [--trace]
//              --out <result.json>
//
// The graphs and the model are fixed constants; the seed drives only the
// request stream (node ids, Poisson send times, which requests are wide).
// The model is the qat8 GCN of bench/serving_latency.cpp, served the way
// tools/mixq_serve serves it: SaveBundle -> LoadBundle -> RegisterModel, so
// set-up pays the bundle verifier and the range prover. Set-up runs at least
// kSetupMinReps times and then until kSetupMinSeconds or kSetupMaxReps, and
// `setup_s` is the median, so work moved into set-up shows.
//
// Every reply is compared bitwise with in-process reference logits
// (CompiledModel::Predict / PredictQuantized) at the precision it reports,
// and every request sent must end as OK or as a typed failure. A mismatch or
// a lost request writes "correct": false and exits 3.
//
// End-to-end metrics are measured with tracing off. With --trace the run
// also records a span per request (client due/send/receive plus the server's
// server/total/queue/forward split, keyed by connection and request id),
// keeps the spans in memory and writes them next to the result at exit. Its
// own latency is reported as trace.latency_p50_ms, so comparing it with the
// untraced runs of the same workload gives the tracing overhead. A replay
// phase after the load then times direct calls into the public plan, kernel,
// frontier and ParallelFor entry points at the workload's shapes.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "engine/inference_engine.h"
#include "engine/model_bundle.h"
#include "net/client.h"
#include "net/server.h"
#include "sparse/frontier.h"
#include "tensor/gemm.h"

#ifndef __OPTIMIZE__
#error "mixq_bench times code: build it with optimization (RelWithDebInfo or Release)"
#endif

using namespace mixq;

namespace {

using Clock = std::chrono::steady_clock;
using engine::Precision;

const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

int64_t NanosSince(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "mixq_bench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every workload is a closed loop: each connection keeps `window` requests
/// outstanding, and a reply frees a slot. A paced loop (window 1) also waits
/// for each request's due time on a Poisson schedule. An open loop, timed
/// from each due time, read 2-10x slower at p90 whenever the hypervisor took
/// a few percent of CPU time away: every request due during a stall of the
/// generator or the server counted the stall. A paced loop has at most one
/// request per connection in flight through a stall, and reports how far its
/// sends fell behind the schedule (client.gen_late_*).
struct Workload {
  const char* name;
  bool large;             ///< the 100k-node graph instead of the 1000-node one
  bool cache;             ///< BatcherOptions::enable_cache
  int connections;
  int window;             ///< requests outstanding per connection
  double rate_rps;        ///< paced: scheduled rate over all connections; 0: unpaced
  Precision precision;
  /// One request at a random position in every block of `wide_every` asks
  /// for `wide_nodes` nodes (0 = none): a fixed share, so the number of wide
  /// requests in a run does not vary with the seed.
  int wide_every;
  int wide_nodes;
  double limit_ms;        ///< goodput counts OK replies within this latency
};

// Why each exists is recorded in mixq_bench/BENCHMARK.md and BENCHMARK.json.
const Workload kWorkloads[] = {
    {"small_forward_fp32", false, false, 1, 1, 0.0, Precision::kFp32, 0, 1, 5.0},
    {"small_forward_int8", false, false, 1, 1, 0.0, Precision::kInt8, 0, 1, 5.0},
    {"small_hot", false, true, 2, 1, 20000.0, Precision::kAuto, 0, 1, 1.0},
    {"small_saturate", false, false, 2, 64, 0.0, Precision::kAuto, 0, 1, 10.0},
    {"large_point", true, false, 2, 1, 1000.0, Precision::kAuto, 200, 64, 25.0},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Fixtures: the trained model and the two graphs (constants, not seeded)
// ---------------------------------------------------------------------------

struct GraphFixture {
  Tensor features;
  SparseOperatorPtr op;
};

std::shared_ptr<ModelArtifact> TrainModel(const NodeDataset& dataset) {
  NodeExperimentConfig cfg = bench::StandardNodeConfig(
      NodeModelKind::kGcn, /*quick_epochs=*/10, /*full_epochs=*/10);
  cfg.train.epochs = 10;  // independent of MIXQ_EPOCHS / MIXQ_FULL
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(dataset, cfg, SchemeRef::Qat(8));
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  if (!experiment.ok()) Die(experiment.status().ToString());
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  if (!report.ok()) Die(report.status().ToString());
  std::shared_ptr<ModelArtifact> artifact = report.ValueOrDie().artifact;
  if (artifact == nullptr) Die("training kept no artifact");
  return artifact;
}

/// The 1000-node, 96-feature graph of bench/serving_latency.cpp's quick
/// profile, built with explicit sizes so MIXQ_FULL cannot change it.
NodeDataset SmallDataset() {
  CitationConfig c;
  c.name = "cora-like(quick)";
  c.num_nodes = 1000;
  c.avg_degree = 1.95;
  c.num_classes = 7;
  c.feature_dim = 96;
  c.homophily = 0.81;
  c.val_count = 200;
  c.test_count = 400;
  c.seed = 1;
  return GenerateCitation(c);
}

/// 100k-node power-law citation analogue (the pruned-serving regime of
/// bench/serving_latency.cpp), served cross-graph by the same model.
GraphFixture LargeGraph(int64_t feature_dim) {
  CitationConfig c;
  c.name = "large";
  c.num_nodes = 100000;
  c.feature_dim = feature_dim;
  c.num_classes = 7;
  c.avg_degree = 3.0;
  c.power_law_alpha = 2.1;
  c.train_per_class = 1;
  c.val_count = 10;
  c.test_count = 10;
  c.seed = 42;
  NodeDataset ds = GenerateCitation(c);
  GraphFixture g;
  g.features = ds.graph.features;
  g.op = MakeOperator(GcnNormalize(ds.graph.Adjacency()));
  return g;
}

// ---------------------------------------------------------------------------
// Set-up: compile -> bundle -> engine -> graph -> listening server
// ---------------------------------------------------------------------------

constexpr const char* kModelName = "gcn-qat8";
constexpr const char* kGraphName = "graph";
constexpr int kSetupMinReps = 7;
constexpr int kSetupMaxReps = 51;
constexpr double kSetupMinSeconds = 1.0;
constexpr double kWarmupSeconds = 2.0;  ///< load before the measured window

struct ServingStack {
  engine::CompiledModelPtr compiled;  ///< in-process compile (reference side)
  std::unique_ptr<engine::InferenceEngine> engine;
  std::unique_ptr<net::MixqServer> server;
};

struct SetupTimes {
  double compile_ms = 0, save_ms = 0, load_ms = 0, register_model_ms = 0,
         register_graph_ms = 0, start_ms = 0, total_s = 0;
};

ServingStack BuildStack(const ModelArtifact& artifact, const GraphFixture& graph,
                        const engine::BatcherOptions& options,
                        const std::string& bundle_path, SetupTimes* t) {
  ServingStack s;
  const Clock::time_point begin = Clock::now();
  Clock::time_point mark = begin;
  auto lap_ms = [&mark] {
    const double ms = SecondsSince(mark) * 1e3;
    mark = Clock::now();
    return ms;
  };
  Result<engine::CompiledModelPtr> compiled = engine::CompileModel(artifact);
  if (!compiled.ok()) Die(compiled.status().ToString());
  s.compiled = compiled.ValueOrDie();
  if (!s.compiled->info().lowered_int8) Die("qat8 GCN must lower to int8");
  t->compile_ms = lap_ms();

  Status st = engine::SaveBundle(*s.compiled, bundle_path);
  if (!st.ok()) Die(st.ToString());
  t->save_ms = lap_ms();
  Result<engine::CompiledModelPtr> loaded = engine::LoadBundle(bundle_path);
  if (!loaded.ok()) Die(loaded.status().ToString());
  t->load_ms = lap_ms();

  s.engine = std::make_unique<engine::InferenceEngine>(options);
  st = s.engine->RegisterModel(kModelName, loaded.ValueOrDie());
  if (!st.ok()) Die(st.ToString());
  t->register_model_ms = lap_ms();
  st = s.engine->RegisterGraph(kGraphName, graph.features, graph.op);
  if (!st.ok()) Die(st.ToString());
  t->register_graph_ms = lap_ms();

  net::ServerOptions server_options;
  // Only shutdown waits on the acceptor's poll slice; a short one lets the
  // repeated set-ups tear down quickly, so more of them fit in a run.
  server_options.accept_poll = std::chrono::milliseconds(10);
  s.server = std::make_unique<net::MixqServer>(s.engine.get(), server_options);
  st = s.server->Start();
  if (!st.ok()) Die(st.ToString());
  t->start_ms = lap_ms();
  t->total_s = SecondsSince(begin);
  return s;
}

// ---------------------------------------------------------------------------
// Request stream (seeded) and reply verification
// ---------------------------------------------------------------------------

/// Deterministic per-connection request generator. Uses its own mapping from
/// mt19937_64 words so the stream does not depend on the standard library's
/// distribution implementations.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int conn, const Workload& w, int64_t num_nodes)
      : rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(conn) + 1),
        w_(w),
        n_(num_nodes),
        rate_per_conn_(w.rate_rps / w.connections) {}

  double Uniform() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }

  /// Interarrival gap of this connection's Poisson process, in ns.
  int64_t NextGapNs() {
    return static_cast<int64_t>(-std::log1p(-Uniform()) / rate_per_conn_ * 1e9);
  }

  /// Node ids of the next request: one node, or `wide_nodes` distinct ones.
  std::vector<int64_t> NextNodes() {
    bool wide = false;
    if (w_.wide_every > 0) {
      if (position_ % w_.wide_every == 0) {
        wide_at_ = position_ + static_cast<int64_t>(rng_() % w_.wide_every);
      }
      wide = position_++ == wide_at_;
    }
    const int k = wide ? w_.wide_nodes : 1;
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(k));
    while (static_cast<int>(ids.size()) < k) {
      const int64_t id = static_cast<int64_t>(rng_() % static_cast<uint64_t>(n_));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
    return ids;
  }

 private:
  std::mt19937_64 rng_;
  int64_t position_ = 0;  ///< requests drawn so far
  int64_t wide_at_ = -1;  ///< position of the wide request in this block
  const Workload& w_;
  int64_t n_;
  double rate_per_conn_;
};

/// Reference logits at both precisions, in original node order.
struct Reference {
  Tensor fp32;
  Tensor int8;
  int64_t out_dim = 0;
};

/// Checks one OK reply: node ids echoed, precision honoured, every row
/// bitwise equal to the reference row at the reported precision.
bool VerifyReply(const Reference& ref, Precision requested,
                 const std::vector<int64_t>& sent_ids, const net::RemoteResponse& r) {
  const int64_t rows = r.rows.rows(), cols = r.rows.cols();
  const std::vector<float>& data = r.rows.data();
  const Precision got = r.precision;
  if (r.node_ids != sent_ids) return false;
  if (rows != static_cast<int64_t>(sent_ids.size()) || cols != ref.out_dim ||
      data.size() != static_cast<size_t>(rows * cols)) {
    return false;
  }
  if (requested != Precision::kAuto && got != requested) return false;
  if (got != Precision::kFp32 && got != Precision::kInt8) return false;
  const Tensor& t = got == Precision::kFp32 ? ref.fp32 : ref.int8;
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(cols);
  for (int64_t i = 0; i < rows; ++i) {
    const float* want = t.data().data() + sent_ids[static_cast<size_t>(i)] * cols;
    if (std::memcmp(data.data() + i * cols, want, row_bytes) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans: one record per request, keyed by (connection, request id)
// ---------------------------------------------------------------------------

/// Client-side timestamps are ns since the load started. Server-side fields
/// are what the reply frame carries; they are copied only when tracing.
constexpr size_t kMaxSpanRows = 200000;  ///< cap on span rows written per run

struct Span {
  int64_t due_ns = 0;   ///< when a slot freed or, paced, the scheduled time
  int64_t send_ns = 0;  ///< when the frame write began; latency counts from here
  int64_t recv_ns = 0;  ///< when the reply was decoded
  uint64_t request_id = 0;
  int32_t conn = 0;
  int32_t nodes = 0;
  StatusCode code = StatusCode::kOk;
  bool done = false;     ///< an OK reply or a typed failure arrived
  bool correct = true;
  Precision precision = Precision::kFp32;
  bool cache_hit = false;
  bool pruned = false;
  int32_t batch_size = 0;
  int32_t frontier_rows = 0;
  float queue_us = 0, forward_us = 0, total_us = 0, server_us = 0;

  double LatencyUs() const { return static_cast<double>(recv_ns - send_ns) / 1e3; }
};

void RecordReply(Span* s, const net::RemoteResponse& r, bool trace) {
  s->precision = r.precision;
  if (!trace) return;
  s->cache_hit = r.cache_hit;
  s->pruned = r.pruned;
  s->batch_size = static_cast<int32_t>(r.batch_size);
  s->frontier_rows = static_cast<int32_t>(r.frontier_rows);
  s->queue_us = static_cast<float>(r.queue_us);
  s->forward_us = static_cast<float>(r.forward_us);
  s->total_us = static_cast<float>(r.total_us);
  s->server_us = static_cast<float>(r.server_us);
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

struct LoadConfig {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  int port = 0;
  int64_t num_nodes = 0;
  int64_t end_ns = 0;  ///< no request is due at or after this
  bool trace = false;
  const Reference* ref = nullptr;
};

/// One MixqClient with `window` requests outstanding (1 = blocking round
/// trips); the next request goes out the moment a reply frees its slot or,
/// in a paced loop, at its Poisson due time if that is later.
void RunClientLoop(const LoadConfig& cfg, int conn, Clock::time_point t0,
                   std::vector<Span>* spans) {
  const Workload& w = *cfg.w;
  const bool paced = w.rate_rps > 0;
  // While a paced send waits for its due time no reply is read, so a reply
  // landing then would be timed late; with window 1 none can be in flight.
  if (paced && w.window != 1) Die(std::string(w.name) + ": pacing needs window 1");
  // A paced loop sleeps to each due time rather than spin: a spinning client
  // would take a core from the server it is measuring. The default 50 us
  // timer slack would make every wake-up late by about that much.
  if (paced) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  RequestStream stream(cfg.seed, conn, w, cfg.num_nodes);
  Result<net::MixqClient> connected = net::MixqClient::Connect("127.0.0.1", cfg.port);
  if (!connected.ok()) Die("connect: " + connected.status().ToString());
  net::MixqClient client = connected.MoveValueOrDie();

  struct Pending {
    size_t span;
    std::vector<int64_t> ids;
  };
  std::deque<Pending> window;  // FIFO: replies arrive in send order
  auto send = [&](int64_t due_ns) {
    net::RemoteRequest request;
    request.model = kModelName;
    request.graph = kGraphName;
    request.node_ids = stream.NextNodes();
    request.precision = w.precision;
    Span s;
    s.conn = conn;
    s.due_ns = due_ns;
    s.nodes = static_cast<int32_t>(request.node_ids.size());
    s.send_ns = NanosSince(t0);
    Status st = client.Send(request, &s.request_id);
    spans->push_back(s);
    if (!st.ok()) {
      spans->back().done = true;
      spans->back().code = st.code();
      return false;
    }
    window.push_back({spans->size() - 1, std::move(request.node_ids)});
    return true;
  };
  // Sends the next request once a slot is free at `free_ns`; a paced loop
  // first sleeps to the request's due time. False when sending stops: a
  // failed send, or a due time past the load window.
  int64_t due_ns = 0;
  auto next = [&](int64_t free_ns) {
    if (!paced) return send(free_ns);
    due_ns += stream.NextGapNs();
    if (due_ns >= cfg.end_ns) return false;
    std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(due_ns));
    return send(due_ns);
  };

  bool healthy = true;
  for (int i = 0; i < w.window && healthy; ++i) healthy = next(NanosSince(t0));
  while (!window.empty()) {
    Result<net::RemoteReply> got = client.Receive();
    const int64_t recv_ns = NanosSince(t0);
    const Pending p = std::move(window.front());
    window.pop_front();
    Span& s = (*spans)[p.span];
    s.recv_ns = recv_ns;
    s.done = true;
    if (!got.ok()) {
      // Transport failure: this and every outstanding request end typed.
      s.code = got.status().code();
      for (const Pending& rest : window) {
        (*spans)[rest.span].done = true;
        (*spans)[rest.span].code = got.status().code();
      }
      break;
    }
    const net::RemoteReply& reply = got.ValueOrDie();
    if (reply.request_id != s.request_id) s.correct = false;
    s.code = reply.status.code();
    if (reply.status.ok()) {
      const net::RemoteResponse& r = reply.response;
      RecordReply(&s, r, cfg.trace);
      s.correct = s.correct && VerifyReply(*cfg.ref, w.precision, p.ids, r);
    }
    // `s` may dangle once send() grows `spans`; nothing below touches it.
    if (healthy && recv_ns < cfg.end_ns) healthy = next(recv_ns);
  }
}

// ---------------------------------------------------------------------------
// Replay: direct timed calls into the public plan / kernel entry points
// ---------------------------------------------------------------------------

struct Replay {
  double fp32_full_us = 0, int8_full_us = 0;
  double fp32_gemm_us = 0, fp32_spmm_us = 0, int8_gemm_us = 0, int8_spmm_us = 0;
  double gemm_mmac = 0, spmm_mmac = 0, fp32_mbytes = 0, int8_mbytes = 0;
  double for_empty_us = 0;
  double frontier_build_us_p50 = 0, pruned_us_p50 = 0, frontier_rows_p50 = 0;
};

/// Times probes round-robin: every round calls each probe once, so a burst
/// of machine noise lands on all of them alike instead of on one, and the
/// residual (full forward minus its kernels) is not skewed by it.
class RoundRobin {
 public:
  size_t Add(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    us_.emplace_back();
    return fns_.size() - 1;
  }

  void Run(int min_rounds, int max_rounds, double budget_s) {
    for (auto& fn : fns_) fn();  // warm: scratch sized, caches filled
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < min_rounds || (r < max_rounds && SecondsSince(start) < budget_s);
         ++r) {
      for (size_t i = 0; i < fns_.size(); ++i) {
        const Clock::time_point t = Clock::now();
        fns_[i]();
        us_[i].push_back(SecondsSince(t) * 1e6);
      }
    }
  }

  double MedianUs(size_t id) const { return Median(us_[id]); }

 private:
  std::vector<std::function<void()>> fns_;
  std::vector<std::vector<double>> us_;
};

constexpr int kReplayMinRounds = 10;
constexpr int kReplayMaxRounds = 2000;
constexpr double kReplayBudgetS = 2.0;

/// Times each GEMM / SpMM step of both step lists through the same kernel
/// calls the executors make (frozen weights, packing and epilogues), on the
/// registered graph's internal order and the activations a real forward
/// left in scratch. Everything else a forward does is the residual. Bytes
/// are computed from operand sizes (each operand touched once), not measured.
Replay RunReplay(const engine::CompiledModel& model, const engine::GraphContext& g,
                 const Workload& w, uint64_t seed) {
  Replay r;
  const engine::ExecutionPlan& plan = *model.plan();
  const Tensor& x = g.features;
  const SparseOperator& op = *g.op;
  const CsrMatrix& a = op.matrix();
  const int64_t n = x.rows();
  const int64_t nnz = op.nnz();
  const double idx_bytes = 8.0 * static_cast<double>(n + 1 + nnz);  // row_ptr + col_idx
  RoundRobin probes;

  // Full forwards first: their scratch then holds every step's input.
  engine::PredictScratch fs, qs;
  const size_t fp32_full =
      probes.Add([&] { MIXQ_CHECK(model.Predict(x, g.op, &fs).ok()); });
  const size_t int8_full =
      probes.Add([&] { MIXQ_CHECK(model.PredictQuantized(x, g.op, &qs).ok()); });
  MIXQ_CHECK(model.Predict(x, g.op, &fs).ok());
  MIXQ_CHECK(model.PredictQuantized(x, g.op, &qs).ok());

  std::vector<size_t> fp32_gemm, fp32_spmm, int8_gemm, int8_spmm;
  std::vector<std::vector<float>> fdst;
  std::vector<std::vector<int8_t>> qdst;
  fdst.reserve(plan.steps().size());
  qdst.reserve(plan.int_steps().size());
  for (const engine::ExecutionPlan::Step& st : plan.steps()) {
    const float* src = st.src == engine::ExecutionPlan::kInput
                           ? x.data().data()
                           : fs.plan.f[static_cast<size_t>(st.src)].data();
    if (st.op == engine::ExecutionPlan::Op::kMatMul) {
      const engine::LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
      float* dst = fdst.emplace_back(static_cast<size_t>(n * lin.out_padded)).data();
      fp32_gemm.push_back(probes.Add([&lin, src, dst, n] {
        GemmNN(src, lin.weight_fq.data(), dst, n, lin.in, lin.out_padded);
      }));
      r.gemm_mmac += static_cast<double>(n * lin.in * lin.out_padded) / 1e6;
      r.fp32_mbytes +=
          4.0 * static_cast<double>(n * lin.in + lin.in * lin.out_padded +
                                    n * lin.out_padded) / 1e6;
    } else if (st.op == engine::ExecutionPlan::Op::kSpmm) {
      const bool identity = plan.adj_quants()[static_cast<size_t>(st.adj)].identity;
      const float* values = identity ? nullptr : fs.plan.adj_f.data();
      float* dst = fdst.emplace_back(static_cast<size_t>(n * st.cols)).data();
      const int64_t cols = st.cols;
      fp32_spmm.push_back(probes.Add([&a, values, src, dst, cols] {
        if (values == nullptr) {
          SpmmRaw(a, src, cols, dst);
        } else {
          SpmmPattern(a, values, src, cols, dst);
        }
      }));
      r.spmm_mmac += static_cast<double>(nnz * st.cols) / 1e6;
      r.fp32_mbytes += (idx_bytes + 4.0 * static_cast<double>(nnz) +
                        8.0 * static_cast<double>(n * st.cols)) / 1e6;
    }
  }

  for (const engine::ExecutionPlan::IntStep& st : plan.int_steps()) {
    const int8_t* src = qs.plan.q[static_cast<size_t>(st.src)].data();
    if (st.op == engine::ExecutionPlan::IntOp::kGemmRequant) {
      const engine::LoweredLinear& lin = plan.linears()[static_cast<size_t>(st.linear)];
      Int8PackedWeights pw;
      pw.pair = lin.weight_packed.data();
      if (!lin.weight_quad.empty()) {
        pw.quad = lin.weight_quad.data();
        pw.corr = lin.weight_corr.data();
        pw.vnni_ok = st.vnni_safe;
      }
      RequantEpilogue ep;
      ep.total = st.total;
      ep.bias = st.bias_over.empty() ? nullptr : st.bias_over.data();
      ep.emitter = st.emitter;
      int8_t* dst = qdst.emplace_back(static_cast<size_t>(n * lin.out)).data();
      int8_gemm.push_back(probes.Add([&lin, pw, ep, src, dst, n] {
        GemmInt8Requant(src, pw, n, lin.in, lin.out_padded, lin.out, ep, dst);
      }));
      r.int8_mbytes += static_cast<double>(n * lin.in + lin.in * lin.out_padded +
                                           n * lin.out) / 1e6;
    } else if (st.op == engine::ExecutionPlan::IntOp::kSpmmRequant) {
      RequantEpilogue ep;
      ep.total = st.total;
      ep.emitter = st.emitter;
      const int8_t* codes = qs.plan.adj_q.data();
      int8_t* dst = qdst.emplace_back(static_cast<size_t>(n * st.cols)).data();
      const int64_t cols = st.cols;
      int8_spmm.push_back(probes.Add([&a, codes, ep, src, dst, cols] {
        SpmmInt8Requant(a, codes, src, cols, ep, dst);
      }));
      r.int8_mbytes += (idx_bytes + static_cast<double>(nnz) +
                        2.0 * static_cast<double>(n * st.cols)) / 1e6;
    }
  }

  // The elementwise passes of a hidden layer: n x 64 elements at grain 4096.
  const size_t for_empty =
      probes.Add([n] { ParallelFor(n * 64, [](int64_t, int64_t) {}, 4096); });

  // Pruned forwards on target sets drawn like the workload's requests, at
  // the precision the workload resolves to; the cost gate is opened fully
  // so every sample builds a program.
  const bool int8 = w.precision != Precision::kFp32;
  RequestStream stream(seed ^ 0xF00Dull, 0, w, n);
  std::vector<std::vector<int64_t>> samples(64);
  for (std::vector<int64_t>& targets : samples) {
    for (int64_t id : stream.NextNodes()) targets.push_back(g.ToInternal(id));
    std::sort(targets.begin(), targets.end());
  }
  FrontierWorkspace ws;
  ws.EnsureSize(n);
  engine::PredictScratch ps;
  std::unique_ptr<engine::FrontierProgram> program;
  std::vector<double> rows;
  size_t next_sample = 0;
  const size_t build = probes.Add([&] {
    program = model.BuildFrontierProgram(g.op, samples[next_sample++ % samples.size()],
                                         int8, &ws, 1.0);
    MIXQ_CHECK(program != nullptr);
    rows.push_back(static_cast<double>(program->frontier_rows()));
  });
  const size_t pruned =
      probes.Add([&] { MIXQ_CHECK(model.PredictPruned(x, *program, &ps).ok()); });

  probes.Run(kReplayMinRounds, kReplayMaxRounds, kReplayBudgetS);

  auto sum = [&probes](const std::vector<size_t>& ids) {
    double us = 0;
    for (size_t id : ids) us += probes.MedianUs(id);
    return us;
  };
  r.fp32_full_us = probes.MedianUs(fp32_full);
  r.int8_full_us = probes.MedianUs(int8_full);
  r.fp32_gemm_us = sum(fp32_gemm);
  r.fp32_spmm_us = sum(fp32_spmm);
  r.int8_gemm_us = sum(int8_gemm);
  r.int8_spmm_us = sum(int8_spmm);
  r.for_empty_us = probes.MedianUs(for_empty);
  r.frontier_build_us_p50 = probes.MedianUs(build);
  r.pruned_us_p50 = probes.MedianUs(pruned);
  r.frontier_rows_p50 = Median(rows);
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Share of all CPU time the hypervisor gave to other guests ("steal" in
/// /proc/stat) between two readings. On a shared host, runs taken while it
/// is high read slow on every workload at once; NaN where unavailable.
struct CpuTimes {
  double total = 0, steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  double v = 0;
  // user nice system idle iowait irq softirq steal: the eighth field is steal.
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : std::nan("");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--out") {
      a.out = value();
    } else {
      Die("unknown flag " + arg +
          "\nusage: mixq_bench --workload <name> --seed <s> [--seconds S] "
          "[--trace] --out <file.json>");
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    std::string names;
    for (const Workload& w : kWorkloads) names += std::string(" ") + w.name;
    Die("--workload must be one of:" + names);
  }
  if (!have_seed || a.out.empty()) Die("--seed and --out are required");
  if (!(a.seconds > 0)) Die("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(args.workload);
  const std::string bundle_path = args.out + ".model.mqb";

  // ---- fixtures ------------------------------------------------------------
  Clock::time_point t = Clock::now();
  NodeDataset small = SmallDataset();
  double graph_gen_s = SecondsSince(t);
  t = Clock::now();
  std::shared_ptr<ModelArtifact> artifact = TrainModel(small);
  const double train_s = SecondsSince(t);
  GraphFixture graph{artifact->features, artifact->op};
  if (w.large) {
    t = Clock::now();
    graph = LargeGraph(artifact->features.cols());
    graph_gen_s += SecondsSince(t);
  }

  // ---- set-up, repeated; the last stack serves -----------------------------
  engine::BatcherOptions options;
  options.enable_cache = w.cache;
  std::vector<SetupTimes> setups;
  ServingStack stack;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setups.size()) < kSetupMinReps ||
         (static_cast<int>(setups.size()) < kSetupMaxReps &&
          SecondsSince(setup_start) < kSetupMinSeconds)) {
    stack = ServingStack();  // tears the previous stack down before timing the next
    SetupTimes st;
    stack = BuildStack(*artifact, graph, options, bundle_path, &st);
    setups.push_back(st);
  }
  std::remove(bundle_path.c_str());
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const double setup_s = setup_median(&SetupTimes::total_s);

  // ---- reference logits (after set-up is stamped) ---------------------------
  Reference ref;
  {
    Result<Tensor> f = stack.compiled->Predict(graph.features, graph.op);
    Result<Tensor> q = stack.compiled->PredictQuantized(graph.features, graph.op);
    if (!f.ok() || !q.ok()) Die("reference forward failed");
    ref.fp32 = f.MoveValueOrDie();
    ref.int8 = q.MoveValueOrDie();
    ref.out_dim = ref.fp32.cols();
  }

  // ---- load ----------------------------------------------------------------
  const int64_t warm_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t meas_ns = static_cast<int64_t>(args.seconds * 1e9);
  LoadConfig cfg;
  cfg.w = &w;
  cfg.seed = args.seed;
  cfg.port = stack.server->port();
  cfg.num_nodes = graph.features.rows();
  cfg.end_ns = warm_ns + meas_ns;
  cfg.trace = args.trace;
  cfg.ref = &ref;

  std::vector<std::vector<Span>> spans(static_cast<size_t>(w.connections));
  engine::InferenceEngine::Stats before, after;
  CpuTimes cpu_before, cpu_after;
  {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> generators;
    for (int c = 0; c < w.connections; ++c) {
      generators.emplace_back(
          [&, c] { RunClientLoop(cfg, c, t0, &spans[static_cast<size_t>(c)]); });
    }
    std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(warm_ns));
    before = stack.engine->GetStats();
    cpu_before = ReadCpuTimes();
    std::this_thread::sleep_until(t0 + std::chrono::nanoseconds(warm_ns + meas_ns));
    after = stack.engine->GetStats();
    cpu_after = ReadCpuTimes();
    for (std::thread& g : generators) g.join();
  }
  const net::MixqServer::Stats server_stats = stack.server->GetStats();
  stack.server->Shutdown();

  // ---- aggregate -------------------------------------------------------------
  int64_t attempted = 0, failed = 0, ok = 0, lost = 0, mismatched = 0;
  std::vector<double> lat_us, late_us;
  int64_t good = 0;
  std::vector<const Span*> measured;
  std::vector<double> forward_us;  // every reply that ran a forward, warm-up too
  for (const std::vector<Span>& list : spans) {
    for (const Span& s : list) {
      if (!s.done) ++lost;
      if (!s.correct) ++mismatched;
      if (s.code == StatusCode::kOk && s.forward_us > 0) {
        forward_us.push_back(s.forward_us);
      }
      if (s.due_ns < warm_ns || s.due_ns >= warm_ns + meas_ns) continue;
      ++attempted;
      late_us.push_back(static_cast<double>(s.send_ns - s.due_ns) / 1e3);
      if (s.code != StatusCode::kOk || !s.done) {
        ++failed;
        continue;
      }
      ++ok;
      const double l = s.LatencyUs();
      lat_us.push_back(l);
      if (l <= w.limit_ms * 1e3) ++good;
      measured.push_back(&s);
    }
  }
  const bool correct = lost == 0 && mismatched == 0 && attempted > 0;

  std::vector<Metric> e2e = {
      {"latency_p50_ms", Percentile(lat_us, 0.50) / 1e3, "ms"},
      {"latency_p90_ms", Percentile(lat_us, 0.90) / 1e3, "ms"},
      {"goodput_rps", static_cast<double>(good) / args.seconds, "1/s"},
      {"setup_s", setup_s, "s"},
  };

  std::vector<Metric> layers;
  if (args.trace) {
    std::vector<double> wire, overhead, queue, dispatch, batch;
    int64_t hits = 0, pruned = 0;
    for (const Span* s : measured) {
      wire.push_back(static_cast<double>(s->recv_ns - s->send_ns) / 1e3 - s->server_us);
      overhead.push_back(s->server_us - s->total_us);
      queue.push_back(s->queue_us);
      dispatch.push_back(s->total_us - s->queue_us - s->forward_us);
      if (s->forward_us > 0) batch.push_back(static_cast<double>(s->batch_size));
      hits += s->cache_hit ? 1 : 0;
      pruned += s->pruned ? 1 : 0;
    }
    const double n_ok = std::max<double>(1.0, static_cast<double>(measured.size()));
    const Replay rp = RunReplay(*stack.compiled,
                                *stack.engine->GetGraph(kGraphName).ValueOrDie(), w,
                                args.seed);
    layers = {
        {"client.samples", static_cast<double>(lat_us.size()), "count"},
        {"client.latency_p99_ms", Percentile(lat_us, 0.99) / 1e3, "ms"},
        {"client.latency_p999_ms", Percentile(lat_us, 0.999) / 1e3, "ms"},
        {"client.gen_late_p50_us", Percentile(late_us, 0.50), "us"},
        {"client.gen_late_p99_us", Percentile(late_us, 0.99), "us"},
        {"trace.latency_p50_ms", Percentile(lat_us, 0.50) / 1e3, "ms"},
        {"net.wire_us_p50", Median(wire), "us"},
        {"net.server_overhead_us_p50", Median(overhead), "us"},
        {"net.protocol_errors", static_cast<double>(server_stats.protocol_errors),
         "count"},
        {"batcher.queue_us_p50", Median(queue), "us"},
        {"batcher.dispatch_us_p50", Median(dispatch), "us"},
        {"batcher.avg_batch", Mean(batch), "count"},
        {"batcher.cache_hit_ratio", static_cast<double>(hits) / n_ok, "ratio"},
        {"batcher.pruned_ratio", static_cast<double>(pruned) / n_ok, "ratio"},
        {"batcher.rejected",
         static_cast<double>(after.batcher.rejected - before.batcher.rejected), "count"},
        {"batcher.expired",
         static_cast<double>(after.batcher.expired - before.batcher.expired), "count"},
        {"batcher.shed", static_cast<double>(after.batcher.shed - before.batcher.shed),
         "count"},
        {"plan.forward_us_p50", Median(forward_us), "us"},
        {"plan.fp32_full_us", rp.fp32_full_us, "us"},
        {"plan.int8_full_us", rp.int8_full_us, "us"},
        {"plan.fp32_residual_us", rp.fp32_full_us - rp.fp32_gemm_us - rp.fp32_spmm_us,
         "us"},
        {"plan.int8_residual_us", rp.int8_full_us - rp.int8_gemm_us - rp.int8_spmm_us,
         "us"},
        {"kernels.fp32.gemm_us", rp.fp32_gemm_us, "us"},
        {"kernels.fp32.spmm_us", rp.fp32_spmm_us, "us"},
        {"kernels.int8.gemm_us", rp.int8_gemm_us, "us"},
        {"kernels.int8.spmm_us", rp.int8_spmm_us, "us"},
        {"kernels.gemm_mmac", rp.gemm_mmac, "Mmac"},
        {"kernels.spmm_mmac", rp.spmm_mmac, "Mmac"},
        {"kernels.fp32.mbytes", rp.fp32_mbytes, "MB"},
        {"kernels.int8.mbytes", rp.int8_mbytes, "MB"},
        {"parallel.for_empty_us", rp.for_empty_us, "us"},
        {"frontier.build_us_p50", rp.frontier_build_us_p50, "us"},
        {"frontier.rows_p50", rp.frontier_rows_p50, "count"},
        {"plan.pruned_us_p50", rp.pruned_us_p50, "us"},
        {"setup.train_s", train_s, "s"},
        {"setup.graph_gen_s", graph_gen_s, "s"},
        {"setup.compile_ms", setup_median(&SetupTimes::compile_ms), "ms"},
        {"setup.bundle_save_ms", setup_median(&SetupTimes::save_ms), "ms"},
        {"setup.bundle_load_ms", setup_median(&SetupTimes::load_ms), "ms"},
        {"setup.register_model_ms", setup_median(&SetupTimes::register_model_ms), "ms"},
        {"setup.register_graph_ms", setup_median(&SetupTimes::register_graph_ms), "ms"},
        {"setup.server_start_ms", setup_median(&SetupTimes::start_ms), "ms"},
    };

    // Spans, keyed by (connection, request id), written once at exit; a
    // systematic sample of every `stride`-th span keeps the file bounded.
    size_t total_spans = 0;
    for (const std::vector<Span>& list : spans) total_spans += list.size();
    const size_t stride = total_spans / kMaxSpanRows + 1;
    std::ofstream csv(args.out + ".spans.csv");
    csv << "conn,request_id,due_us,send_us,recv_us,status,nodes,precision,"
           "cache_hit,pruned,batch_size,frontier_rows,server_us,total_us,"
           "queue_us,forward_us\n";
    for (const std::vector<Span>& list : spans) {
      for (size_t i = 0; i < list.size(); i += stride) {
        const Span& s = list[i];
        csv << s.conn << ',' << s.request_id << ',' << s.due_ns / 1000 << ','
            << s.send_ns / 1000 << ',' << s.recv_ns / 1000 << ','
            << StatusCodeName(s.code) << ',' << s.nodes << ','
            << engine::PrecisionName(s.precision) << ',' << s.cache_hit << ','
            << s.pruned << ',' << s.batch_size << ',' << s.frontier_rows << ','
            << s.server_us << ',' << s.total_us << ',' << s.queue_us << ','
            << s.forward_us << '\n';
      }
    }
  }

  // ---- report ----------------------------------------------------------------
  const char* mixq_threads = std::getenv("MIXQ_THREADS");
  const char* revision = std::getenv("MIXQ_BENCH_REVISION");  // set by run_all.py
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream context;
  context << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
          << ", \"num_threads\": " << NumThreads() << ", \"mixq_threads\": \""
          << (mixq_threads != nullptr ? JsonEscape(mixq_threads) : "unset")
          << "\", \"kernel_isa\": \"" << KernelIsaName(ActiveKernelIsa())
          << "\", \"fused_epilogues\": "
          << (engine::ExecutionPlan::FusedEpilogues() ? "true" : "false")
          << ", \"cpu\": \"" << JsonEscape(CpuModel()) << "\", \"compiler\": \""
          << JsonEscape(__VERSION__) << "\", \"ndebug\": " << (ndebug ? "true" : "false")
          << ", \"revision\": \""
          << JsonEscape(revision != nullptr ? revision : "unknown")
          << "\", \"workload\": \"" << w.name << "\", \"seed\": " << args.seed
          << ", \"traced\": " << (args.trace ? "true" : "false")
          << ", \"warmup_s\": " << Num(kWarmupSeconds)
          << ", \"measured_s\": " << Num(args.seconds)
          << ", \"steal_share\": " << Num(StealShare(cpu_before, cpu_after))
          << ", \"setups\": " << setups.size()
          << ", \"graph_nodes\": " << graph.features.rows()
          << ", \"graph_nnz\": " << graph.op->nnz()
          << ", \"wall_s\": " << Num(SecondsSince(g_process_start)) << "}";

  std::ofstream out(args.out);
  out << "{\"bench\": \"mixq_bench\", \"context\": " << context.str()
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"ok\": " << ok << ", \"lost\": " << lost
      << ", \"mismatched\": " << mismatched
      << ", \"end_to_end\": " << MetricsJson(e2e)
      << ", \"per_layer\": " << MetricsJson(layers) << "}\n";
  out.close();

  std::printf("%s seed %llu%s: %lld attempted, %lld ok, %lld failed, %lld lost, "
              "%lld mismatched, %.1f%% of CPU time stolen\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.trace ? " (traced)" : "", static_cast<long long>(attempted),
              static_cast<long long>(ok), static_cast<long long>(failed),
              static_cast<long long>(lost), static_cast<long long>(mismatched),
              100.0 * StealShare(cpu_before, cpu_after));
  for (const std::vector<Metric>* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!correct) {
    std::fprintf(stderr, "mixq_bench: outputs are not correct\n");
    return 3;
  }
  return 0;
}
