// Copyright 2026 MixQ-GNN Authors
// Serving-path benchmark: single-request latency and multi-threaded QPS of
// the lowered executor (exact float and all-integer modes), plus the
// request/response API's dynamic
// micro-batching — K concurrent single-node clients through Submit vs. the
// unbatched loop (each client paying a full forward per query) — on the
// Table-3-sized citation graph. Emits BENCH_serving.json (override the path
// with MIXQ_BENCH_JSON) for the perf trajectory, alongside the usual table.
//
// A final section measures receptive-field-pruned serving on a large
// power-law graph: single-node and 64-node clients against a pruning
// engine vs. the full-forward engine (cache disabled on both), recorded in
// the JSON's "pruned" section. Pruned rows are spot-checked bitwise against
// the full forward before timing.
//
// An "overload" section floods an fp32-only model with kAuto requests at a
// rate the drains cannot serve and records the degradation ladder's typed
// outcome mix (served / shed / rejected / expired) plus the served tail —
// the JSON's "overload" section.
//
// A "network" section puts the same paths behind the TCP front door
// (net/server.h) on loopback: blocking round-trips for the wire's latency
// tax, a pipelined load proving remote clients coalesce into shared forwards
// (cache off, avg batch must exceed 1), and the overload flood replayed
// through the wire with every outcome arriving as a typed kError frame. The
// stats snapshot embedded there is the exact JSON the remote metrics
// endpoint serves (engine/stats_json.h).
//
// The JSON opens with a "context" block (cores, kernel tier, ParallelFor
// width, build type, `git describe`) so every record states the machine it
// ran on; every section driven by MIXQ_SERVE_THREADS names its client-thread
// and core counts. Single-request latencies (one request at a time, each
// forward on the whole ParallelFor pool) are per-call distributions
// (median, p99, min over up to 1000 timed calls, so the p99 has ten calls
// above it), not means. Run it from the
// checkout so the context block can name the revision.
//
//   MIXQ_SERVE_THREADS  client threads for the QPS sections (default 8)
//   MIXQ_FULL=1         full-size graph (2708 nodes) instead of quick (1000)
//   MIXQ_PRUNED_NODES   node count of the pruned-serving scenario graph
//                       (default 100000; CI smoke uses a tiny value)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "common/parallel.h"
#include "engine/inference_engine.h"
#include "engine/model_bundle.h"
#include "engine/stats_json.h"
#include "net/client.h"
#include "net/server.h"

using namespace mixq;
using namespace mixq::bench;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile `p` in [0, 1] of `v` (sorted in place); 0 when
/// empty.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<size_t>(p * static_cast<double>(v->size() - 1))];
}

/// Per-call latency distribution of one single-request path.
struct LatencyStats {
  double median_us = 0.0, p99_us = 0.0, min_us = 0.0;
  int64_t trials = 0;
};

/// Times `fn` call by call: 3 warm-up calls, then 1000 timed calls (fewer if
/// they take longer than 3 s in total).
LatencyStats MeasureLatency(const std::function<void()>& fn) {
  for (int i = 0; i < 3; ++i) fn();
  constexpr size_t trials = 1000;
  std::vector<double> us;
  us.reserve(trials);
  const Clock::time_point start = Clock::now();
  while (us.size() < trials && (us.empty() || SecondsSince(start) < 3.0)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(SecondsSince(t0) * 1e6);
  }
  LatencyStats s;
  s.trials = static_cast<int64_t>(us.size());
  s.median_us = Percentile(&us, 0.50);
  s.p99_us = Percentile(&us, 0.99);
  s.min_us = us.front();
  return s;
}

std::string LatencyJson(const LatencyStats& s) {
  return "{\"median\": " + std::to_string(s.median_us) +
         ", \"p99\": " + std::to_string(s.p99_us) +
         ", \"min\": " + std::to_string(s.min_us) +
         ", \"trials\": " + std::to_string(s.trials) + "}";
}

/// The revision the numbers belong to: `git describe` of the working
/// directory, or "unknown" outside a checkout.
std::string Revision() {
  std::string out;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Aggregate requests/second from `threads` clients hammering fn for ~0.5 s.
double MeasureQps(int threads, const std::function<void()>& fn) {
  std::vector<int64_t> counts(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const Clock::time_point start = Clock::now();
      while (SecondsSince(start) < 0.5) {
        fn();
        ++counts[static_cast<size_t>(t)];
      }
    });
  }
  for (auto& w : workers) w.join();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return static_cast<double>(total) / 0.5;
}

}  // namespace

int main() {
  PrintHeader("Serving latency — lowered executor");

  NodeDataset dataset = QuickCitation("cora", /*seed=*/1);
  NodeExperimentConfig cfg = StandardNodeConfig(NodeModelKind::kGcn,
                                                /*quick_epochs=*/10,
                                                /*full_epochs=*/30);
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(dataset, cfg, SchemeRef::Qat(8));
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  MIXQ_CHECK(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  MIXQ_CHECK(report.ok()) << report.status().ToString();
  std::shared_ptr<ModelArtifact> artifact = report.ValueOrDie().artifact;
  MIXQ_CHECK(artifact != nullptr);

  Result<engine::CompiledModelPtr> compiled = engine::CompileModel(*artifact);
  MIXQ_CHECK(compiled.ok()) << compiled.status().ToString();
  engine::CompiledModelPtr model = compiled.ValueOrDie();
  MIXQ_CHECK(model->info().lowered_int8) << "qat8 must lower to int8";

  const Tensor& x = artifact->features;
  const SparseOperatorPtr& op = artifact->op;
  const int64_t n = x.rows();
  const int64_t nnz = op->nnz();

  // ---- bundle cold start ---------------------------------------------------
  // Offline-deployment readiness: what a fresh serving process pays between
  // "bundle on disk" and "first logits out" (engine/model_bundle.h). Parity
  // is asserted bitwise before any number is recorded.
  const char* bundle_path = "serving_latency_model.mqb";
  Clock::time_point bundle_t0 = Clock::now();
  MIXQ_CHECK(engine::SaveBundle(*model, bundle_path).ok());
  const double bundle_save_ms = SecondsSince(bundle_t0) * 1e3;
  bundle_t0 = Clock::now();
  Result<engine::CompiledModelPtr> bundled = engine::LoadBundle(bundle_path);
  MIXQ_CHECK(bundled.ok()) << bundled.status().ToString();
  const double bundle_load_ms = SecondsSince(bundle_t0) * 1e3;
  bundle_t0 = Clock::now();
  Result<Tensor> bundle_first = bundled.ValueOrDie()->Predict(x, op);
  MIXQ_CHECK(bundle_first.ok()) << bundle_first.status().ToString();
  const double bundle_first_predict_ms = SecondsSince(bundle_t0) * 1e3;
  MIXQ_CHECK(bundle_first.ValueOrDie().data() ==
             model->Predict(x, op).ValueOrDie().data())
      << "bundle round-trip parity violated";
  const int64_t bundle_bytes = static_cast<int64_t>(
      engine::InspectBundle(bundle_path).ValueOrDie().file_bytes);
  std::remove(bundle_path);

  // ---- single-request latency ---------------------------------------------
  engine::PredictScratch scratch;
  const LatencyStats lowered_lat =
      MeasureLatency([&] { MIXQ_CHECK(model->Predict(x, op, &scratch).ok()); });
  const LatencyStats int8_lat = MeasureLatency(
      [&] { MIXQ_CHECK(model->PredictQuantized(x, op, &scratch).ok()); });
  const double lowered_us = lowered_lat.median_us;
  const double int8_us = int8_lat.median_us;

  // ---- multi-threaded QPS --------------------------------------------------
  // Client threads share the machine's cores with the engine's ParallelFor
  // pool; every section below records both counts.
  const int threads = EnvInt("MIXQ_SERVE_THREADS", 8);
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string clients_on_cores = "\"client_threads\": " +
                                       std::to_string(threads) + ", \"cores\": " +
                                       std::to_string(cores);
  engine::BatcherOptions cached;
  cached.enable_pruning = false;  // measure cache + coalescing in isolation
  engine::InferenceEngine serving(cached);
  MIXQ_CHECK(serving.RegisterModel("tab3-qat8", model).ok());
  MIXQ_CHECK(serving.RegisterGraph("tab3", x, op).ok());
  const double lowered_qps =
      MeasureQps(threads, [&] { MIXQ_CHECK(serving.Predict("tab3-qat8", x, op).ok()); });

  // ---- batched vs unbatched: K concurrent single-node clients --------------
  // Unbatched loop = what single-node queries cost before the request API:
  // every client pays a full forward per query (lowered_qps above). Batched
  // = Submit(model, graph, one node) futures; the dispatcher coalesces
  // whatever queues up into one forward and serves repeats on this static
  // graph from the result cache. The no-cache engine isolates pure
  // coalescing (every batch still pays its forward).
  std::atomic<int64_t> next_node{0};
  auto batched_client = [&](engine::InferenceEngine& api) {
    engine::PredictRequest request;
    request.model = "tab3-qat8";
    request.graph = "tab3";
    request.node_ids = {next_node.fetch_add(1, std::memory_order_relaxed) % n};
    request.precision = engine::Precision::kFp32;
    Result<engine::PredictResponse> response = api.Submit(std::move(request)).get();
    MIXQ_CHECK(response.ok()) << response.status().ToString();
  };
  const double batched_qps = MeasureQps(threads, [&] { batched_client(serving); });

  engine::BatcherOptions nocache;
  nocache.enable_cache = false;
  nocache.enable_pruning = false;  // this section isolates pure coalescing
  engine::InferenceEngine serving_nocache(nocache);
  MIXQ_CHECK(serving_nocache.RegisterModel("tab3-qat8", model).ok());
  MIXQ_CHECK(serving_nocache.RegisterGraph("tab3", x, op).ok());
  const double batched_nocache_qps =
      MeasureQps(threads, [&] { batched_client(serving_nocache); });

  const double batched_ratio = batched_qps / lowered_qps;
  const double batched_nocache_ratio = batched_nocache_qps / lowered_qps;
  const engine::InferenceEngine::Stats nocache_stats = serving_nocache.GetStats();
  const double avg_batch =
      nocache_stats.batcher.forwards > 0
          ? static_cast<double>(nocache_stats.per_model.at("tab3-qat8").successes) /
                static_cast<double>(nocache_stats.batcher.forwards)
          : 0.0;

  // ---- receptive-field-pruned serving on a large power-law graph ----------
  // Point queries on a big graph are the pruning regime: the model is the
  // same trained qat8 GCN (cross-graph serving), the graph a ~100k-node
  // power-law citation analogue. Cache disabled on BOTH engines so the
  // comparison is pruned forward vs. full forward, not vs. a row gather.
  const int64_t pruned_nodes = EnvInt("MIXQ_PRUNED_NODES", 100000);
  CitationConfig big_cfg;
  big_cfg.name = "pruned-bench";
  big_cfg.num_nodes = pruned_nodes;
  big_cfg.feature_dim = x.cols();  // must match the compiled model
  big_cfg.num_classes = 7;
  big_cfg.avg_degree = 3.0;
  big_cfg.power_law_alpha = 2.1;  // heavy tail: hub frontiers stay honest
  big_cfg.train_per_class = 1;
  big_cfg.val_count = 10;
  big_cfg.test_count = 10;
  big_cfg.seed = 42;
  NodeDataset big_ds = GenerateCitation(big_cfg);
  const Tensor& big_x = big_ds.graph.features;
  SparseOperatorPtr big_op = MakeOperator(GcnNormalize(big_ds.graph.Adjacency()));
  const int64_t big_n = big_x.rows();
  const int64_t big_nnz = big_op->nnz();

  engine::BatcherOptions pruned_opts;
  pruned_opts.enable_cache = false;
  // The scenario exists to exercise the pruned path at ANY size the env
  // var asks for (CI smoke uses tiny graphs), so drop the small-graph
  // guard; the cost gate still routes wide unions full.
  pruned_opts.pruned_min_graph_nodes = 0;
  engine::InferenceEngine pruned_serving(pruned_opts);
  MIXQ_CHECK(pruned_serving.RegisterModel("tab3-qat8", model).ok());
  MIXQ_CHECK(pruned_serving.RegisterGraph("big", big_x, big_op).ok());
  engine::BatcherOptions fullfwd_opts;
  fullfwd_opts.enable_cache = false;
  fullfwd_opts.enable_pruning = false;
  engine::InferenceEngine full_serving(fullfwd_opts);
  MIXQ_CHECK(full_serving.RegisterModel("tab3-qat8", model).ok());
  MIXQ_CHECK(full_serving.RegisterGraph("big", big_x, big_op).ok());

  // Parity spot-check: pruned rows must be bitwise identical to the full
  // forward's before any timing is believed.
  engine::PredictScratch big_scratch;
  Tensor big_full = model->Predict(big_x, big_op, &big_scratch).ValueOrDie();
  int64_t frontier_rows_sample = 0;
  for (int64_t id : {int64_t{0}, big_n / 2, big_n - 1}) {
    engine::PredictRequest probe;
    probe.model = "tab3-qat8";
    probe.graph = "big";
    probe.node_ids = {id};
    probe.precision = engine::Precision::kFp32;
    Result<engine::PredictResponse> got =
        pruned_serving.Submit(std::move(probe)).get();
    MIXQ_CHECK(got.ok()) << got.status().ToString();
    MIXQ_CHECK(got.ValueOrDie().pruned) << "expected pruned routing for node " << id;
    frontier_rows_sample = got.ValueOrDie().frontier_rows;
    for (int64_t c = 0; c < big_full.cols(); ++c) {
      MIXQ_CHECK(got.ValueOrDie().rows.at(0, c) == big_full.at(id, c))
          << "pruned row mismatch at node " << id << " col " << c;
    }
  }

  std::atomic<int64_t> next_big{0};
  auto point_client = [&](engine::InferenceEngine& api) {
    engine::PredictRequest request;
    request.model = "tab3-qat8";
    request.graph = "big";
    request.node_ids = {(next_big.fetch_add(1, std::memory_order_relaxed) *
                         9973) % big_n};
    request.precision = engine::Precision::kFp32;
    Result<engine::PredictResponse> response = api.Submit(std::move(request)).get();
    MIXQ_CHECK(response.ok()) << response.status().ToString();
  };
  auto batch64_client = [&](engine::InferenceEngine& api) {
    engine::PredictRequest request;
    request.model = "tab3-qat8";
    request.graph = "big";
    request.node_ids.reserve(64);
    const int64_t base = next_big.fetch_add(64, std::memory_order_relaxed);
    for (int64_t j = 0; j < 64; ++j) {
      request.node_ids.push_back(((base + j) * 2654435761LL) % big_n);
    }
    request.precision = engine::Precision::kFp32;
    Result<engine::PredictResponse> response = api.Submit(std::move(request)).get();
    MIXQ_CHECK(response.ok()) << response.status().ToString();
  };
  const double pruned_point_qps =
      MeasureQps(threads, [&] { point_client(pruned_serving); });
  const double full_point_qps =
      MeasureQps(threads, [&] { point_client(full_serving); });
  const double pruned_b64_qps =
      MeasureQps(threads, [&] { batch64_client(pruned_serving); });
  const double full_b64_qps =
      MeasureQps(threads, [&] { batch64_client(full_serving); });
  const double pruned_point_ratio = pruned_point_qps / full_point_qps;
  const double pruned_b64_ratio = pruned_b64_qps / full_b64_qps;
  const engine::InferenceEngine::Stats pruned_stats = pruned_serving.GetStats();

  // ---- overload: the degradation ladder under sustained pressure ----------
  // An fp32-only model (kAuto has no int8 rung to degrade to, so past the
  // shed threshold a drained kAuto batch fails fast with kUnavailable)
  // behind a small admission queue, flooded faster than drains can serve
  // for ~1 s with ~250 ms deadlines. Every outcome is typed — served, shed
  // (kUnavailable), rejected at admission (kResourceExhausted), expired
  // (kDeadlineExceeded) — and served requests keep a bounded tail, which is
  // the point of shedding: fail the unpayable work fast instead of letting
  // it rot everyone's latency.
  ExperimentSpec overload_spec =
      ExperimentSpec::NodeClassification(dataset, cfg, SchemeRef::Fp32());
  overload_spec.keep_artifact = true;
  Result<Experiment> overload_exp = Experiment::Create(std::move(overload_spec));
  MIXQ_CHECK(overload_exp.ok()) << overload_exp.status().ToString();
  Result<ExperimentReport> overload_report = overload_exp.ValueOrDie().Run();
  MIXQ_CHECK(overload_report.ok()) << overload_report.status().ToString();
  std::shared_ptr<ModelArtifact> fp_artifact = overload_report.ValueOrDie().artifact;
  Result<engine::CompiledModelPtr> fp_compiled = engine::CompileModel(*fp_artifact);
  MIXQ_CHECK(fp_compiled.ok()) << fp_compiled.status().ToString();
  engine::CompiledModelPtr fp_model = fp_compiled.ValueOrDie();
  MIXQ_CHECK(!fp_model->info().lowered_int8) << "overload model must be fp32-only";

  engine::BatcherOptions overload_opts;
  overload_opts.queue_capacity = 128;
  overload_opts.enable_cache = false;   // every served request pays real work
  overload_opts.enable_pruning = false; // so kAuto's only rung left is shed
  overload_opts.degrade_batch_threshold = 16;
  overload_opts.shed_batch_threshold = 32;
  engine::InferenceEngine overload_engine(overload_opts);
  MIXQ_CHECK(overload_engine.RegisterModel("fp32", fp_model).ok());
  MIXQ_CHECK(
      overload_engine.RegisterGraph("quick", fp_artifact->features, fp_artifact->op)
          .ok());
  const int64_t fp_n = fp_artifact->features.rows();

  struct OverloadTally {
    int64_t submitted = 0;
    int64_t served = 0;
    int64_t shed = 0;
    int64_t rejected = 0;
    int64_t expired = 0;
    int64_t other = 0;
    std::vector<double> served_us;
  };
  const double overload_secs = 1.0;
  std::atomic<int64_t> overload_next{0};
  std::vector<OverloadTally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> producers;
  const Clock::time_point overload_t0 = Clock::now();
  for (int t = 0; t < threads; ++t) {
    producers.emplace_back([&, t] {
      OverloadTally& tally = tallies[static_cast<size_t>(t)];
      std::vector<std::future<Result<engine::PredictResponse>>> futures;
      const Clock::time_point start = Clock::now();
      while (SecondsSince(start) < overload_secs) {
        engine::PredictRequest request;
        request.model = "fp32";
        request.graph = "quick";
        request.node_ids = {
            overload_next.fetch_add(1, std::memory_order_relaxed) % fp_n};
        request.precision = engine::Precision::kAuto;
        request.deadline =
            engine::ServingClock::now() + std::chrono::milliseconds(250);
        futures.push_back(overload_engine.Submit(std::move(request)));
        ++tally.submitted;
        // Paced, not an unthrottled spin: ~20k submits/s per producer still
        // far outruns full-forward drains, so the queue stays saturated.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      for (auto& future : futures) {
        Result<engine::PredictResponse> response = future.get();
        if (response.ok()) {
          ++tally.served;
          tally.served_us.push_back(response.ValueOrDie().total_us);
          continue;
        }
        switch (response.status().code()) {
          case StatusCode::kUnavailable: ++tally.shed; break;
          case StatusCode::kResourceExhausted: ++tally.rejected; break;
          case StatusCode::kDeadlineExceeded: ++tally.expired; break;
          default: ++tally.other; break;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  const double overload_elapsed = SecondsSince(overload_t0);

  OverloadTally overload;
  for (const OverloadTally& tally : tallies) {
    overload.submitted += tally.submitted;
    overload.served += tally.served;
    overload.shed += tally.shed;
    overload.rejected += tally.rejected;
    overload.expired += tally.expired;
    overload.other += tally.other;
    overload.served_us.insert(overload.served_us.end(), tally.served_us.begin(),
                              tally.served_us.end());
  }
  MIXQ_CHECK(overload.served + overload.shed + overload.rejected +
                 overload.expired + overload.other ==
             overload.submitted)
      << "overload futures lost";  // the every-future-resolves invariant
  const double overload_p50_us = Percentile(&overload.served_us, 0.50);
  const double overload_p99_us = Percentile(&overload.served_us, 0.99);
  const double overload_served_qps =
      static_cast<double>(overload.served) / overload_elapsed;
  const engine::InferenceEngine::Stats overload_stats = overload_engine.GetStats();

  // ---- network: the same serving paths behind the TCP front door -----------
  // The qat8 model behind MixqServer on loopback, one connection per client
  // thread. Cache and pruning off so the pipelined phase measures pure
  // remote coalescing — the server submits each decoded frame immediately,
  // so frames in flight from every connection share the admission queue and
  // the dispatcher batches them like in-process Submit calls.
  engine::BatcherOptions net_opts;
  net_opts.enable_cache = false;
  net_opts.enable_pruning = false;
  engine::InferenceEngine net_engine(net_opts);
  MIXQ_CHECK(net_engine.RegisterModel("tab3-qat8", model).ok());
  MIXQ_CHECK(net_engine.RegisterGraph("tab3", x, op).ok());
  net::ServerOptions net_server_opts;
  net_server_opts.max_connections = 2 * threads + 4;
  net::MixqServer net_server(&net_engine, net_server_opts);
  MIXQ_CHECK(net_server.Start().ok());
  const int net_port = net_server.port();

  auto connect_client = [&](int port) {
    Result<net::MixqClient> connected = net::MixqClient::Connect("127.0.0.1", port);
    MIXQ_CHECK(connected.ok()) << connected.status().ToString();
    return connected.MoveValueOrDie();
  };
  auto net_request = [&](int64_t node) {
    net::RemoteRequest request;
    request.model = "tab3-qat8";
    request.graph = "tab3";
    request.node_ids = {node};
    request.precision = engine::Precision::kFp32;
    return request;
  };

  // Blocking round trips: the per-request price of the wire.
  std::atomic<int64_t> net_next{0};
  std::vector<std::vector<double>> rtt_lists(static_cast<size_t>(threads));
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        net::MixqClient client = connect_client(net_port);
        std::vector<double>& rtts = rtt_lists[static_cast<size_t>(t)];
        const Clock::time_point start = Clock::now();
        while (SecondsSince(start) < 0.5) {
          const Clock::time_point t0 = Clock::now();
          Result<net::RemoteResponse> response = client.Predict(
              net_request(net_next.fetch_add(1, std::memory_order_relaxed) % n));
          MIXQ_CHECK(response.ok()) << response.status().ToString();
          rtts.push_back(SecondsSince(t0) * 1e6);
        }
        client.Close();
      });
    }
    for (auto& w : workers) w.join();
  }
  std::vector<double> net_rtts;
  for (const auto& list : rtt_lists) {
    net_rtts.insert(net_rtts.end(), list.begin(), list.end());
  }
  const double net_blocking_qps = static_cast<double>(net_rtts.size()) / 0.5;
  const double net_rtt_p50_us = Percentile(&net_rtts, 0.50);
  const double net_rtt_p99_us = Percentile(&net_rtts, 0.99);

  // Pipelined load: every window sits in the admission queue together, so
  // the reported batch sizes show remote micro-batching directly.
  constexpr int kNetWindow = 32;
  struct NetTally {
    int64_t served = 0;
    int64_t coalesced = 0;
    double batch_total = 0.0;
  };
  std::vector<NetTally> net_tallies(static_cast<size_t>(threads));
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        net::MixqClient client = connect_client(net_port);
        NetTally& tally = net_tallies[static_cast<size_t>(t)];
        const Clock::time_point start = Clock::now();
        while (SecondsSince(start) < 0.5) {
          for (int i = 0; i < kNetWindow; ++i) {
            uint64_t id = 0;
            Status sent = client.Send(
                net_request(net_next.fetch_add(1, std::memory_order_relaxed) % n),
                &id);
            MIXQ_CHECK(sent.ok()) << sent.ToString();
          }
          for (int i = 0; i < kNetWindow; ++i) {
            Result<net::RemoteReply> received = client.Receive();
            MIXQ_CHECK(received.ok()) << received.status().ToString();
            net::RemoteReply reply = received.MoveValueOrDie();
            MIXQ_CHECK(reply.status.ok()) << reply.status.ToString();
            ++tally.served;
            tally.batch_total += static_cast<double>(reply.response.batch_size);
            if (reply.response.batch_size > 1) ++tally.coalesced;
          }
        }
        client.Close();
      });
    }
    for (auto& w : workers) w.join();
  }
  int64_t net_served = 0, net_coalesced = 0;
  double net_batch_total = 0.0;
  for (const NetTally& tally : net_tallies) {
    net_served += tally.served;
    net_coalesced += tally.coalesced;
    net_batch_total += tally.batch_total;
  }
  const double net_pipelined_qps = static_cast<double>(net_served) / 0.5;
  const double net_avg_batch =
      net_served > 0 ? net_batch_total / static_cast<double>(net_served) : 0.0;
  MIXQ_CHECK(net_avg_batch > 1.0)
      << "pipelined remote requests were never coalesced";
  // The exact payload a remote kStatsRequest gets — engine stats in the
  // shared grammar plus transport counters — captured before shutdown.
  const std::string net_stats_json = net_server.StatsEndpointJson();
  net_server.Shutdown();

  // The overload flood, through the wire: same fp32-only engine recipe, a
  // fresh server, and pipelined clients holding ~64 requests in flight each
  // against a 128-slot queue with 250 ms deadlines. Every outcome is a
  // typed frame on a connection that stays up.
  engine::InferenceEngine net_overload_engine(overload_opts);
  MIXQ_CHECK(net_overload_engine.RegisterModel("fp32", fp_model).ok());
  MIXQ_CHECK(net_overload_engine
                 .RegisterGraph("quick", fp_artifact->features, fp_artifact->op)
                 .ok());
  net::MixqServer net_overload_server(&net_overload_engine, net::ServerOptions());
  MIXQ_CHECK(net_overload_server.Start().ok());
  std::vector<OverloadTally> net_ov_tallies(static_cast<size_t>(threads));
  const Clock::time_point net_ov_t0 = Clock::now();
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < threads; ++t) {
      producers.emplace_back([&, t] {
        net::MixqClient client = connect_client(net_overload_server.port());
        OverloadTally& tally = net_ov_tallies[static_cast<size_t>(t)];
        constexpr int kOvWindow = 64;
        const Clock::time_point start = Clock::now();
        while (SecondsSince(start) < overload_secs) {
          for (int i = 0; i < kOvWindow; ++i) {
            net::RemoteRequest request;
            request.model = "fp32";
            request.graph = "quick";
            request.node_ids = {
                overload_next.fetch_add(1, std::memory_order_relaxed) % fp_n};
            request.precision = engine::Precision::kAuto;
            request.deadline_us = 250000;
            uint64_t id = 0;
            Status sent = client.Send(request, &id);
            MIXQ_CHECK(sent.ok()) << sent.ToString();
            ++tally.submitted;
          }
          for (int i = 0; i < kOvWindow; ++i) {
            Result<net::RemoteReply> received = client.Receive();
            MIXQ_CHECK(received.ok()) << received.status().ToString();
            net::RemoteReply reply = received.MoveValueOrDie();
            if (reply.status.ok()) {
              ++tally.served;
              tally.served_us.push_back(reply.response.server_us);
              continue;
            }
            switch (reply.status.code()) {
              case StatusCode::kUnavailable: ++tally.shed; break;
              case StatusCode::kResourceExhausted: ++tally.rejected; break;
              case StatusCode::kDeadlineExceeded: ++tally.expired; break;
              default: ++tally.other; break;
            }
          }
        }
        client.Close();
      });
    }
    for (auto& p : producers) p.join();
  }
  const double net_ov_elapsed = SecondsSince(net_ov_t0);
  OverloadTally net_overload;
  for (const OverloadTally& tally : net_ov_tallies) {
    net_overload.submitted += tally.submitted;
    net_overload.served += tally.served;
    net_overload.shed += tally.shed;
    net_overload.rejected += tally.rejected;
    net_overload.expired += tally.expired;
    net_overload.other += tally.other;
    net_overload.served_us.insert(net_overload.served_us.end(),
                                  tally.served_us.begin(),
                                  tally.served_us.end());
  }
  MIXQ_CHECK(net_overload.served + net_overload.shed + net_overload.rejected +
                 net_overload.expired + net_overload.other ==
             net_overload.submitted)
      << "wire overload replies lost";  // every frame sent got a typed reply
  const double net_ov_p50_us = Percentile(&net_overload.served_us, 0.50);
  const double net_ov_p99_us = Percentile(&net_overload.served_us, 0.99);
  const double net_ov_served_qps =
      static_cast<double>(net_overload.served) / net_ov_elapsed;
  // The shared Stats -> JSON serializer, applied directly (what the metrics
  // endpoint wraps); embedded raw in the bench JSON below.
  const std::string net_ov_engine_json =
      engine::FormatStatsJson(net_overload_engine.GetStats());
  net_overload_server.Shutdown();

  const std::string qps_label = "QPS " + std::to_string(threads) + " clients/" +
                                std::to_string(cores) + " cores";
  TablePrinter table({"Path", "p50 (us)", "p99 (us)", "min (us)", qps_label});
  table.AddRow({"lowered (exact float)", FormatFloat(lowered_us, 1),
                FormatFloat(lowered_lat.p99_us, 1), FormatFloat(lowered_lat.min_us, 1),
                FormatFloat(lowered_qps, 0)});
  table.AddRow({"lowered (int8)", FormatFloat(int8_us, 1),
                FormatFloat(int8_lat.p99_us, 1), FormatFloat(int8_lat.min_us, 1),
                "-"});
  table.AddRow({"Submit batched, no cache", "-", "-", "-",
                FormatFloat(batched_nocache_qps, 0)});
  table.AddRow({"Submit batched + cache", "-", "-", "-",
                FormatFloat(batched_qps, 0)});
  std::printf("graph: %lld nodes, %lld nnz, %lld features, hidden %lld\n",
              static_cast<long long>(n), static_cast<long long>(nnz),
              static_cast<long long>(x.cols()), static_cast<long long>(cfg.hidden));
  std::printf("machine: %ld cores, kernel tier %s, ParallelFor width %d\n", cores,
              KernelIsaName(ActiveKernelIsa()), NumThreads());
  table.Print();
  std::printf("\nbatched/unbatched QPS ratio (%d single-node clients on %ld "
              "cores): %.2fx cached, %.2fx coalescing only (avg batch %.1f)\n",
              threads, cores, batched_ratio, batched_nocache_ratio, avg_batch);

  std::printf("\nbundle cold start: %lld bytes on disk, save %.2f ms, "
              "load %.2f ms, first predict %.2f ms (bitwise == in-process)\n",
              static_cast<long long>(bundle_bytes), bundle_save_ms,
              bundle_load_ms, bundle_first_predict_ms);

  std::printf("\npruned serving on %lld-node power-law graph (%lld nnz, "
              "cache disabled):\n",
              static_cast<long long>(big_n), static_cast<long long>(big_nnz));
  std::printf("  single-node x%d clients : pruned %.0f qps vs full %.0f qps (%.1fx), "
              "sample frontier %lld rows\n",
              threads, pruned_point_qps, full_point_qps, pruned_point_ratio,
              static_cast<long long>(frontier_rows_sample));
  std::printf("  64-node    x%d clients : pruned %.0f qps vs full %.0f qps (%.1fx)\n",
              threads, pruned_b64_qps, full_b64_qps, pruned_b64_ratio);
  std::printf("  routing: %lld pruned forwards, %lld full forwards\n",
              static_cast<long long>(pruned_stats.batcher.pruned_forwards),
              static_cast<long long>(pruned_stats.batcher.full_forwards));

  std::printf("\noverload (fp32-only kAuto flood, queue %lld, %.1f s, "
              "250 ms deadlines):\n",
              static_cast<long long>(overload_opts.queue_capacity),
              overload_elapsed);
  std::printf("  submitted %lld: served %lld (%.0f qps), shed %lld, "
              "rejected %lld, expired %lld, other %lld\n",
              static_cast<long long>(overload.submitted),
              static_cast<long long>(overload.served), overload_served_qps,
              static_cast<long long>(overload.shed),
              static_cast<long long>(overload.rejected),
              static_cast<long long>(overload.expired),
              static_cast<long long>(overload.other));
  std::printf("  served latency p50 %.0f us, p99 %.0f us; %lld forwards, "
              "engine shed counter %lld\n",
              overload_p50_us, overload_p99_us,
              static_cast<long long>(overload_stats.batcher.forwards),
              static_cast<long long>(overload_stats.batcher.shed));

  std::printf("\nnetwork front door on loopback (x%d connections on %ld cores, "
              "cache off):\n",
              threads, cores);
  std::printf("  blocking  : %.0f qps, rtt p50 %.0f us, p99 %.0f us "
              "(in-process lowered %.1f us)\n",
              net_blocking_qps, net_rtt_p50_us, net_rtt_p99_us, lowered_us);
  std::printf("  pipelined : %.0f qps at window %d, avg batch %.2f "
              "(%lld of %lld coalesced)\n",
              net_pipelined_qps, kNetWindow, net_avg_batch,
              static_cast<long long>(net_coalesced),
              static_cast<long long>(net_served));
  std::printf("  overload  : %lld frames -> served %lld (%.0f qps, server p50 "
              "%.0f us, p99 %.0f us), shed %lld, rejected %lld, expired %lld, "
              "other %lld — all typed, no connection dropped\n",
              static_cast<long long>(net_overload.submitted),
              static_cast<long long>(net_overload.served), net_ov_served_qps,
              net_ov_p50_us, net_ov_p99_us,
              static_cast<long long>(net_overload.shed),
              static_cast<long long>(net_overload.rejected),
              static_cast<long long>(net_overload.expired),
              static_cast<long long>(net_overload.other));

  // ---- JSON for the perf trajectory ---------------------------------------
  const char* json_path = std::getenv("MIXQ_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_serving.json");
  const char* mixq_threads = std::getenv("MIXQ_THREADS");
#ifdef MIXQ_BUILD_TYPE
  const char* build_type = MIXQ_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef NDEBUG
  const char* ndebug = "true";
#else
  const char* ndebug = "false";
#endif
  json << "{\n"
       << "  \"bench\": \"serving_latency\",\n"
       << "  \"context\": {\"nproc\": " << cores
       << ", \"kernel_isa\": \"" << KernelIsaName(ActiveKernelIsa())
       << "\", \"num_threads\": " << NumThreads() << ", \"mixq_threads\": \""
       << (mixq_threads != nullptr ? mixq_threads : "unset")
       << "\", \"build_type\": \"" << build_type << "\", \"ndebug\": " << ndebug
       << ", \"git_describe\": \"" << Revision() << "\"},\n"
       << "  \"graph\": {\"nodes\": " << n << ", \"nnz\": " << nnz
       << ", \"features\": " << x.cols() << ", \"hidden\": " << cfg.hidden
       << "},\n"
       << "  \"scheme\": \"qat8\",\n"
       << "  \"single_request\": {\n"
       << "    \"lowered_us\": " << LatencyJson(lowered_lat) << ",\n"
       << "    \"lowered_int8_us\": " << LatencyJson(int8_lat) << "\n"
       << "  },\n"
       << "  \"concurrent\": {\n"
       << "    " << clients_on_cores << ",\n"
       << "    \"lowered_qps\": " << lowered_qps << "\n"
       << "  },\n"
       << "  \"batched\": {\n"
       << "    " << clients_on_cores << ",\n"
       << "    \"unbatched_qps\": " << lowered_qps << ",\n"
       << "    \"batched_qps\": " << batched_qps << ",\n"
       << "    \"batched_nocache_qps\": " << batched_nocache_qps << ",\n"
       << "    \"qps_ratio\": " << batched_ratio << ",\n"
       << "    \"qps_ratio_nocache\": " << batched_nocache_ratio << ",\n"
       << "    \"avg_batch_size\": " << avg_batch << "\n"
       << "  },\n"
       << "  \"bundle\": {\n"
       << "    \"file_bytes\": " << bundle_bytes << ",\n"
       << "    \"save_ms\": " << bundle_save_ms << ",\n"
       << "    \"load_ms\": " << bundle_load_ms << ",\n"
       << "    \"first_predict_ms\": " << bundle_first_predict_ms << "\n"
       << "  },\n"
       << "  \"pruned\": {\n"
       << "    \"nodes\": " << big_n << ",\n"
       << "    \"nnz\": " << big_nnz << ",\n"
       << "    " << clients_on_cores << ",\n"
       << "    \"single_node\": {\n"
       << "      \"pruned_qps\": " << pruned_point_qps << ",\n"
       << "      \"full_qps\": " << full_point_qps << ",\n"
       << "      \"qps_ratio\": " << pruned_point_ratio << "\n"
       << "    },\n"
       << "    \"batch64\": {\n"
       << "      \"pruned_qps\": " << pruned_b64_qps << ",\n"
       << "      \"full_qps\": " << full_b64_qps << ",\n"
       << "      \"qps_ratio\": " << pruned_b64_ratio << "\n"
       << "    },\n"
       << "    \"sample_frontier_rows\": " << frontier_rows_sample << ",\n"
       << "    \"pruned_forwards\": " << pruned_stats.batcher.pruned_forwards
       << ",\n"
       << "    \"full_forwards\": " << pruned_stats.batcher.full_forwards << "\n"
       << "  },\n"
       << "  \"overload\": {\n"
       << "    " << clients_on_cores << ",\n"
       << "    \"duration_s\": " << overload_elapsed << ",\n"
       << "    \"queue_capacity\": " << overload_opts.queue_capacity << ",\n"
       << "    \"degrade_batch_threshold\": "
       << overload_opts.degrade_batch_threshold << ",\n"
       << "    \"shed_batch_threshold\": " << overload_opts.shed_batch_threshold
       << ",\n"
       << "    \"submitted\": " << overload.submitted << ",\n"
       << "    \"served\": " << overload.served << ",\n"
       << "    \"shed\": " << overload.shed << ",\n"
       << "    \"rejected\": " << overload.rejected << ",\n"
       << "    \"expired\": " << overload.expired << ",\n"
       << "    \"served_qps\": " << overload_served_qps << ",\n"
       << "    \"served_p50_us\": " << overload_p50_us << ",\n"
       << "    \"served_p99_us\": " << overload_p99_us << ",\n"
       << "    \"forwards\": " << overload_stats.batcher.forwards << ",\n"
       << "    \"engine_shed\": " << overload_stats.batcher.shed << "\n"
       << "  },\n"
       << "  \"network\": {\n"
       << "    " << clients_on_cores << ",\n"
       << "    \"blocking\": {\n"
       << "      \"qps\": " << net_blocking_qps << ",\n"
       << "      \"rtt_p50_us\": " << net_rtt_p50_us << ",\n"
       << "      \"rtt_p99_us\": " << net_rtt_p99_us << "\n"
       << "    },\n"
       << "    \"pipelined\": {\n"
       << "      \"window\": " << kNetWindow << ",\n"
       << "      \"qps\": " << net_pipelined_qps << ",\n"
       << "      \"served\": " << net_served << ",\n"
       << "      \"coalesced\": " << net_coalesced << ",\n"
       << "      \"avg_batch_size\": " << net_avg_batch << "\n"
       << "    },\n"
       << "    \"overload\": {\n"
       << "      \"duration_s\": " << net_ov_elapsed << ",\n"
       << "      \"submitted\": " << net_overload.submitted << ",\n"
       << "      \"served\": " << net_overload.served << ",\n"
       << "      \"shed\": " << net_overload.shed << ",\n"
       << "      \"rejected\": " << net_overload.rejected << ",\n"
       << "      \"expired\": " << net_overload.expired << ",\n"
       << "      \"other\": " << net_overload.other << ",\n"
       << "      \"served_qps\": " << net_ov_served_qps << ",\n"
       << "      \"server_p50_us\": " << net_ov_p50_us << ",\n"
       << "      \"server_p99_us\": " << net_ov_p99_us << ",\n"
       << "      \"engine_stats\": " << net_ov_engine_json << "\n"
       << "    },\n"
       << "    \"stats_endpoint\": " << net_stats_json << "\n"
       << "  }\n"
       << "}\n";
  std::printf("\nwrote %s\n", json_path != nullptr ? json_path : "BENCH_serving.json");
  return 0;
}
