// Copyright 2026 MixQ-GNN Authors
// Serving a quantized GNN: the full three-layer API in one walkthrough.
//
//   1. SchemeRegistry — pick a quantization family by name ("mixq").
//   2. Experiment     — validated spec, bit-width search + quantized
//                       training, artifact kept for deployment.
//   3. engine         — CompileModel freezes weights + selected widths;
//                       InferenceEngine pins named models AND named graphs,
//                       and serves Submit(PredictRequest) futures: requests
//                       carry only (model, graph, node_ids), concurrent
//                       single-node queries coalesce into one forward, and
//                       repeat queries on the static graph are cache hits.
//
//   ./examples/serving
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "engine/inference_engine.h"
#include "engine/stats_json.h"

using namespace mixq;

int main() {
  // ---- 1+2. Train a MixQ-quantized GCN through the facade -----------------
  CitationConfig config;
  config.name = "serving-citation";
  config.num_nodes = 600;
  config.num_classes = 4;
  config.feature_dim = 48;
  config.avg_degree = 3.0;
  config.homophily = 0.82;
  config.val_count = 120;
  config.test_count = 240;
  config.seed = 21;
  NodeDataset dataset = GenerateCitation(config);

  NodeExperimentConfig train_cfg;
  train_cfg.model = NodeModelKind::kGcn;
  train_cfg.hidden = 32;
  train_cfg.num_layers = 2;
  train_cfg.train.epochs = 60;
  train_cfg.train.lr = 0.02f;

  SchemeRef mixq = SchemeRef::MixQ(/*lambda=*/0.05, {2, 4, 8});
  mixq.params.SetInt("search_epochs", 40);

  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(dataset, train_cfg, mixq);
  spec.keep_artifact = true;  // hand the trained net to the engine below

  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  MIXQ_CHECK(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  MIXQ_CHECK(report.ok()) << report.status().ToString();
  const ExperimentReport& r = report.ValueOrDie();
  std::printf("experiment [%s]: test accuracy %.1f%%, %.2f avg bits, %.3f GBitOPs\n",
              r.scheme_label.c_str(), r.node.test_metric * 100.0, r.node.avg_bits,
              r.node.gbitops);

  // ---- 3a. Compile: freeze weights + bit assignment ------------------------
  Result<engine::CompiledModelPtr> compiled = engine::CompileModel(*r.artifact);
  MIXQ_CHECK(compiled.ok()) << compiled.status().ToString();
  engine::CompiledModelPtr model = compiled.ValueOrDie();
  const engine::CompiledModelInfo& info = model->info();
  std::printf("\ncompiled model: %s — %lld params frozen, %.2f avg bits, "
              "%zu quantized components\n",
              info.scheme_label.c_str(), static_cast<long long>(info.param_count),
              info.avg_bits, info.bit_assignment.size());

  // ---- 3b. Pin the model and the graph under names -------------------------
  engine::InferenceEngine serving;
  MIXQ_CHECK(serving.RegisterModel("citation-mixq", model).ok());
  MIXQ_CHECK(
      serving.RegisterGraph("citation", r.artifact->features, r.artifact->op).ok());

  // What an operator dashboard would poll: every pinned model and graph,
  // with the registry versions the result cache is keyed by.
  for (const auto& [name, m] : serving.ListModels()) {
    std::printf("registry: model '%s' v%llu — %s, %lld -> %lld, int8=%s\n",
                name.c_str(), static_cast<unsigned long long>(m.version),
                m.info.scheme_label.c_str(),
                static_cast<long long>(m.info.in_features),
                static_cast<long long>(m.info.out_dim),
                m.info.lowered_int8 ? "yes" : "no");
  }
  for (const auto& [name, g] : serving.ListGraphs()) {
    std::printf("registry: graph '%s' v%llu — %lld nodes, %lld nnz, "
                "row order %s\n",
                name.c_str(), static_cast<unsigned long long>(g.version),
                static_cast<long long>(g.nodes), static_cast<long long>(g.nnz),
                g.reordered ? "locality-reordered" : "as registered");
  }

  // Parity check #1: the legacy synchronous Predict still returns logits
  // bitwise-identical to the eval-mode forward the experiment measured.
  Result<Tensor> served =
      serving.Predict("citation-mixq", r.artifact->features, r.artifact->op);
  MIXQ_CHECK(served.ok()) << served.status().ToString();
  Result<Tensor> replayed =
      ReplayEvalForward(*r.artifact, r.artifact->features, r.artifact->op);
  MIXQ_CHECK(replayed.ok()) << replayed.status().ToString();
  const Tensor& reference = replayed.ValueOrDie();
  MIXQ_CHECK(served.ValueOrDie().data() == reference.data())
      << "serving/experiment parity violated";
  std::printf("parity: engine Predict == eval-mode pipeline forward (bitwise)\n");

  // ---- 3c. Asynchronous traffic: Submit futures, no tensors per call -------
  // Concurrent clients each ask for ONE node's prediction. The micro-batcher
  // coalesces whatever queues up into a single forward and repeat queries on
  // the static graph are row gathers from the result cache.
  constexpr int kClients = 4, kRequestsPerClient = 8;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int64_t node = (t * 151 + i * 7) % r.artifact->features.rows();
        engine::PredictRequest request;
        request.model = "citation-mixq";
        request.graph = "citation";
        request.node_ids = {node};
        request.precision = engine::Precision::kFp32;
        Result<engine::PredictResponse> response =
            serving.Submit(std::move(request)).get();
        MIXQ_CHECK(response.ok()) << response.status().ToString();
        // Parity check #2: the gathered row equals the full forward's row.
        const engine::PredictResponse& resp = response.ValueOrDie();
        for (int64_t c = 0; c < reference.cols(); ++c) {
          if (resp.rows.at(0, c) != reference.at(node, c)) ++mismatches[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) {
    MIXQ_CHECK(mismatches[t] == 0) << "client " << t << " saw diverging rows";
  }
  std::printf("parity: every Submit row == full-forward row (bitwise)\n");

  // The same JSON the network stats endpoint serves (engine/stats_json.h):
  // engine-wide counters, batcher/breaker activity, and per-model latency
  // percentiles with forward time split by resolved precision — one grammar
  // for dashboards whether they scrape a process or a socket.
  std::printf("\nstats: %s\n",
              engine::FormatStatsJson(serving.GetStats()).c_str());
  return 0;
}
