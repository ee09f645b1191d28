// Copyright 2026 MixQ-GNN Authors
// Experiment facade implementation: the end-to-end pipelines (dataset →
// optional relaxed bit-width search → quantized training → metric + BitOPs)
// previously hard-wired to the SchemeSpec::Kind enum, now driven entirely
// through SchemeRegistry families.
#include "core/experiment.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "tensor/ops.h"
#include "train/metrics.h"
#include "train/optimizer.h"

namespace mixq {

namespace {

int64_t CountParams(std::vector<Tensor> params) {
  int64_t total = 0;
  for (auto& p : params) total += p.numel();
  return total;
}

struct NodeSetup {
  Graph graph;  // possibly neighbour-sampled
  SparseOperatorPtr op;
  std::vector<int64_t> degrees;
};

NodeSetup PrepareNode(const NodeDataset& dataset, const NodeExperimentConfig& config) {
  NodeSetup s;
  s.graph = dataset.graph;
  if (config.sample_max_degree > 0) {
    s.graph = SampleNeighbors(s.graph, config.sample_max_degree,
                              config.train.seed * 31 + 5);
  }
  s.degrees = s.graph.InDegrees();
  const CsrMatrix adj = s.graph.Adjacency();
  s.op = MakeOperator(config.model == NodeModelKind::kGcn ? GcnNormalize(adj)
                                                          : RowNormalize(adj));
  return s;
}

// Runs one training with the given scheme over a prepared node task; returns
// the test metric at best validation.
template <typename Net>
TrainResult TrainNode(Net* net, const NodeSetup& setup, const NodeDataset& dataset,
                      const NodeExperimentConfig& config, QuantScheme* scheme) {
  const Graph& g = setup.graph;
  Tensor x = g.features;
  const bool multilabel = dataset.metric == "rocauc";
  auto forward = [&](Rng* rng) { return net->Forward(x, setup.op, scheme, rng); };
  auto loss_fn = [&](const Tensor& logits) {
    if (multilabel) return BceWithLogitsMasked(logits, g.label_matrix, g.train_mask);
    return CrossEntropyMasked(logits, g.labels, g.train_mask);
  };
  auto metric_fn = [&](const Tensor& logits, bool is_test) {
    const auto& mask = is_test ? g.test_mask : g.val_mask;
    if (multilabel) return RocAucMultiLabel(logits, g.label_matrix, mask);
    return Accuracy(logits, g.labels, mask);
  };
  return RunTrainingLoop(config.train, net, scheme, forward, loss_fn, metric_fn);
}

std::vector<std::string> NodeComponentIds(const NodeExperimentConfig& config,
                                          int64_t feature_dim, int64_t out_dim) {
  Rng rng(1);
  if (config.model == NodeModelKind::kGcn) {
    GcnNet net({feature_dim, config.hidden, out_dim, config.num_layers,
                config.dropout},
               &rng);
    return net.ComponentIds();
  }
  SageNet net({feature_dim, config.hidden, out_dim, config.num_layers,
               config.dropout},
              &rng);
  return net.ComponentIds();
}

// ---------------------------------------------------------------------------
// Node-level pipeline
// ---------------------------------------------------------------------------

Result<ExperimentReport> RunNodeTask(const ExperimentSpec& spec,
                                     const SchemeFamily& family) {
  const NodeDataset& dataset = spec.node_dataset;
  const NodeExperimentConfig& config = spec.node;
  NodeSetup setup = PrepareNode(dataset, config);
  const Graph& g = setup.graph;
  const int64_t out_dim = dataset.metric == "rocauc" ? g.label_matrix.cols()
                                                     : g.num_classes;

  ExperimentReport report;
  report.task = TaskKind::kNodeClassification;
  report.scheme_label = family.Label(spec.scheme.params);
  ExperimentResult& result = report.node;

  SchemeBuildContext ctx;
  ctx.component_ids = NodeComponentIds(config, g.feature_dim(), out_dim);
  ctx.in_degrees = setup.degrees;
  ctx.num_nodes = g.num_nodes;
  ctx.seed = spec.seed;

  // Trains one network from scratch under `scheme`; fills the BitOps columns
  // and (optionally) keeps the trained net for the artifact.
  std::shared_ptr<GcnNet> kept_gcn;
  std::shared_ptr<SageNet> kept_sage;
  auto run_with = [&](const QuantSchemePtr& scheme, uint64_t model_seed,
                      bool keep) -> double {
    Rng rng(model_seed);
    if (config.model == NodeModelKind::kGcn) {
      GcnNet::Config mc{g.feature_dim(), config.hidden, out_dim, config.num_layers,
                        config.dropout};
      auto net = std::make_shared<GcnNet>(mc, &rng);
      TrainResult tr = TrainNode(net.get(), setup, dataset, config, scheme.get());
      result.model_param_count = CountParams(net->Parameters());
      BitOpsReport bos = net->ComputeBitOps(g.num_nodes, setup.op->nnz(), *scheme);
      result.avg_bits = bos.AverageBits();
      result.gbitops = bos.GigaBitOps();
      if (keep) kept_gcn = std::move(net);
      return tr.test_at_best_val;
    }
    SageNet::Config mc{g.feature_dim(), config.hidden, out_dim, config.num_layers,
                       config.dropout};
    auto net = std::make_shared<SageNet>(mc, &rng);
    TrainResult tr = TrainNode(net.get(), setup, dataset, config, scheme.get());
    result.model_param_count = CountParams(net->Parameters());
    BitOpsReport bos = net->ComputeBitOps(g.num_nodes, setup.op->nnz(), *scheme);
    result.avg_bits = bos.AverageBits();
    result.gbitops = bos.GigaBitOps();
    if (keep) kept_sage = std::move(net);
    return tr.test_at_best_val;
  };

  uint64_t final_seed = spec.seed;
  if (family.RequiresSearch()) {
    // ---- Phase 1: relaxed bit-width search (Algorithm 1) -------------------
    Result<QuantSchemePtr> search = family.BuildSearch(spec.scheme.params, ctx);
    if (!search.ok()) return search.status();
    QuantSchemePtr relaxed = search.MoveValueOrDie();
    NodeExperimentConfig search_cfg = config;
    search_cfg.train.epochs = static_cast<int>(
        spec.scheme.params.GetIntOr("search_epochs", 50));
    {
      Rng rng(spec.seed);
      if (config.model == NodeModelKind::kGcn) {
        GcnNet net({g.feature_dim(), config.hidden, out_dim, config.num_layers,
                    config.dropout},
                   &rng);
        TrainNode(&net, setup, dataset, search_cfg, relaxed.get());
      } else {
        SageNet net({g.feature_dim(), config.hidden, out_dim, config.num_layers,
                     config.dropout},
                    &rng);
        TrainNode(&net, setup, dataset, search_cfg, relaxed.get());
      }
    }
    ctx.selected_bits = relaxed->SelectedBits();
    result.quant_param_count = relaxed->QuantParameterCount();
    final_seed = spec.seed + 1;
  }

  // ---- Final (or only) phase: train the concrete quantized architecture ----
  Result<QuantSchemePtr> built = family.Build(spec.scheme.params, ctx);
  if (!built.ok()) return built.status();
  QuantSchemePtr scheme = built.MoveValueOrDie();

  result.test_metric = run_with(scheme, final_seed, spec.keep_artifact);
  result.selected_bits = scheme->SelectedBits();
  if (family.RequiresSearch()) result.selected_bits = ctx.selected_bits;
  if (!family.RequiresSearch()) {
    result.quant_param_count = scheme->QuantParameterCount();
  }
  const double reported_bits = scheme->ReportedAverageBits();
  if (reported_bits >= 0.0) result.avg_bits = reported_bits;

  if (spec.keep_artifact) {
    auto artifact = std::make_shared<ModelArtifact>();
    artifact->model_kind = config.model;
    artifact->gcn = std::move(kept_gcn);
    artifact->sage = std::move(kept_sage);
    artifact->scheme = scheme;
    artifact->op = setup.op;
    artifact->features = g.features;
    artifact->selected_bits = result.selected_bits;
    artifact->scheme_label = report.scheme_label;
    report.artifact = std::move(artifact);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Graph-level pipeline
// ---------------------------------------------------------------------------

struct BatchSetup {
  GraphBatch batch;
  SparseOperatorPtr op;
  std::vector<uint8_t> all_mask;
  std::vector<int64_t> degrees;
};

BatchSetup PrepareBatch(const GraphDataset& ds, const std::vector<int64_t>& indices,
                        bool gcn_backbone) {
  BatchSetup s;
  s.batch = MakeBatch(ds, indices);
  const CsrMatrix adj = s.batch.merged.Adjacency();
  s.op = MakeOperator(gcn_backbone ? GcnNormalize(adj) : adj);
  s.all_mask.assign(s.batch.graph_labels.size(), 1);
  s.degrees = s.batch.merged.InDegrees();
  return s;
}

// One training run on a fold with a concrete scheme; returns best test acc.
double TrainGraphFold(const GraphDataset& ds, const GraphExperimentConfig& config,
                      QuantScheme* scheme, const BatchSetup& train_b,
                      const BatchSetup& test_b, uint64_t model_seed, int epochs,
                      double* out_gbitops, double* out_bits) {
  Rng rng(model_seed);
  std::unique_ptr<GinGraphNet> gin;
  std::unique_ptr<GcnGraphNet> gcn;
  std::vector<Tensor> params;
  if (config.gcn_backbone) {
    gcn = std::make_unique<GcnGraphNet>(
        GcnGraphNet::Config{ds.feature_dim, config.hidden, ds.num_classes,
                            config.gcn_layers},
        &rng);
    params = gcn->Parameters();
  } else {
    gin = std::make_unique<GinGraphNet>(
        GinGraphNet::Config{ds.feature_dim, config.hidden, ds.num_classes,
                            config.num_layers, config.batch_norm},
        &rng);
    params = gin->Parameters();
  }
  auto forward = [&](const BatchSetup& b) {
    if (config.gcn_backbone) {
      return gcn->Forward(b.batch.merged.features, b.op, b.batch.batch,
                          b.batch.num_graphs, scheme);
    }
    return gin->Forward(b.batch.merged.features, b.op, b.batch.batch,
                        b.batch.num_graphs, scheme);
  };
  auto set_training = [&](bool t) {
    if (config.gcn_backbone) {
      gcn->SetTraining(t);
    } else {
      gin->SetTraining(t);
    }
  };

  // Warm-up forward so lazily-created scheme parameters (α's, A2Q vectors)
  // exist before the optimizer snapshots its parameter list.
  set_training(true);
  scheme->BeginStep(true);
  (void)forward(train_b);
  AppendParameters(&params, scheme->SchemeParameters());
  for (auto& p : params) p.SetRequiresGrad(true);
  Adam optimizer(params, config.train.lr, 0.9f, 0.999f, 1e-8f,
                 config.train.weight_decay);

  double best_test = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    set_training(true);
    scheme->BeginStep(true);
    optimizer.ZeroGrad();
    Tensor logits = forward(train_b);
    Tensor loss = CrossEntropyMasked(logits, train_b.batch.graph_labels,
                                     train_b.all_mask);
    Tensor penalty = scheme->PenaltyLoss();
    if (penalty.defined()) loss = Add(loss, penalty);
    loss.Backward();
    optimizer.Step();

    set_training(false);
    scheme->BeginStep(false);
    Tensor test_logits = forward(test_b);
    best_test = std::max(
        best_test,
        Accuracy(test_logits, test_b.batch.graph_labels, test_b.all_mask));
  }
  if (out_gbitops != nullptr || out_bits != nullptr) {
    BitOpsReport report =
        config.gcn_backbone
            ? gcn->ComputeBitOps(test_b.batch.merged.num_nodes, test_b.op->nnz(),
                                 test_b.batch.num_graphs, *scheme)
            : gin->ComputeBitOps(test_b.batch.merged.num_nodes, test_b.op->nnz(),
                                 test_b.batch.num_graphs, *scheme);
    if (out_gbitops != nullptr) *out_gbitops = report.GigaBitOps();
    if (out_bits != nullptr) *out_bits = report.AverageBits();
  }
  return best_test;
}

std::vector<std::string> GraphComponentIds(const GraphDataset& ds,
                                           const GraphExperimentConfig& config) {
  Rng rng(1);
  if (config.gcn_backbone) {
    GcnGraphNet net(GcnGraphNet::Config{ds.feature_dim, config.hidden, ds.num_classes,
                                        config.gcn_layers},
                    &rng);
    return net.ComponentIds();
  }
  GinGraphNet net(GinGraphNet::Config{ds.feature_dim, config.hidden, ds.num_classes,
                                      config.num_layers, config.batch_norm},
                  &rng);
  return net.ComponentIds();
}

Result<ExperimentReport> RunGraphTask(const ExperimentSpec& spec,
                                      const SchemeFamily& family) {
  const GraphDataset& dataset = spec.graph_dataset;
  const GraphExperimentConfig& config = spec.graph;

  ExperimentReport report;
  report.task = TaskKind::kGraphClassification;
  report.scheme_label = family.Label(spec.scheme.params);
  GraphExperimentResult& result = report.graph;

  const auto folds = KFoldSplits(static_cast<int64_t>(dataset.graphs.size()),
                                 config.folds, config.fold_seed);
  const auto ids = GraphComponentIds(dataset, config);
  const int search_epochs = static_cast<int>(
      spec.scheme.params.GetIntOr("search_epochs", 50));

  for (size_t f = 0; f < folds.size(); ++f) {
    BatchSetup train_b = PrepareBatch(dataset, folds[f].train, config.gcn_backbone);
    BatchSetup test_b = PrepareBatch(dataset, folds[f].test, config.gcn_backbone);
    const uint64_t seed = spec.seed + f * 101;

    SchemeBuildContext ctx;
    ctx.component_ids = ids;
    ctx.in_degrees = train_b.degrees;
    ctx.num_nodes = train_b.batch.merged.num_nodes;
    ctx.seed = spec.seed;

    if (family.RequiresSearch()) {
      // Phase 1: relaxed search on this fold's training batch.
      Result<QuantSchemePtr> search = family.BuildSearch(spec.scheme.params, ctx);
      if (!search.ok()) return search.status();
      QuantSchemePtr relaxed = search.MoveValueOrDie();
      TrainGraphFold(dataset, config, relaxed.get(), train_b, train_b, seed,
                     search_epochs, nullptr, nullptr);
      ctx.selected_bits = relaxed->SelectedBits();
    }
    Result<QuantSchemePtr> built = family.Build(spec.scheme.params, ctx);
    if (!built.ok()) return built.status();
    QuantSchemePtr scheme = built.MoveValueOrDie();

    double gbitops = 0.0, bits = 32.0;
    const double acc =
        TrainGraphFold(dataset, config, scheme.get(), train_b, test_b, seed + 1,
                       config.train.epochs, &gbitops, &bits);
    result.fold_accuracies.push_back(acc);
    if (f == 0) {
      result.gbitops = gbitops;
      result.avg_bits = bits;
      const double reported_bits = scheme->ReportedAverageBits();
      if (reported_bits >= 0.0) result.avg_bits = reported_bits;
    }
  }

  result.mean = Mean(result.fold_accuracies);
  result.stddev = StdDev(result.fold_accuracies);
  result.min = *std::min_element(result.fold_accuracies.begin(),
                                 result.fold_accuracies.end());
  result.max = *std::max_element(result.fold_accuracies.begin(),
                                 result.fold_accuracies.end());
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec factories + validation
// ---------------------------------------------------------------------------

ExperimentSpec ExperimentSpec::NodeClassification(NodeDataset dataset,
                                                  NodeExperimentConfig config,
                                                  SchemeRef scheme) {
  ExperimentSpec spec;
  spec.task = TaskKind::kNodeClassification;
  spec.node_dataset = std::move(dataset);
  spec.node = std::move(config);
  spec.scheme = std::move(scheme);
  return spec;
}

ExperimentSpec ExperimentSpec::GraphClassification(GraphDataset dataset,
                                                   GraphExperimentConfig config,
                                                   SchemeRef scheme) {
  ExperimentSpec spec;
  spec.task = TaskKind::kGraphClassification;
  spec.graph_dataset = std::move(dataset);
  spec.graph = std::move(config);
  spec.scheme = std::move(scheme);
  return spec;
}

Status ExperimentSpec::Validate() const {
  Result<SchemeFamilyPtr> family = SchemeRegistry::Global().Find(scheme.name);
  if (!family.ok()) return family.status();
  MIXQ_RETURN_NOT_OK(family.ValueOrDie()->ValidateParams(scheme.params));

  if (task == TaskKind::kNodeClassification) {
    const Graph& g = node_dataset.graph;
    if (g.num_nodes <= 0) {
      return Status::InvalidArgument("node dataset '" + node_dataset.name +
                                     "' has no nodes");
    }
    if (g.feature_dim() <= 0) {
      return Status::InvalidArgument("node dataset '" + node_dataset.name +
                                     "' has no features");
    }
    if (node_dataset.metric == "rocauc") {
      if (g.label_matrix.cols() <= 0) {
        return Status::InvalidArgument(
            "multi-label dataset requires a non-empty label_matrix");
      }
    } else if (node_dataset.metric == "accuracy") {
      if (g.num_classes <= 0) {
        return Status::InvalidArgument("node dataset '" + node_dataset.name +
                                       "' has no classes");
      }
    } else {
      return Status::InvalidArgument("unknown metric '" + node_dataset.metric +
                                     "' (expected accuracy or rocauc)");
    }
    if (node.hidden <= 0) return Status::InvalidArgument("hidden must be > 0");
    if (node.num_layers < 1) {
      return Status::InvalidArgument("num_layers must be >= 1");
    }
    if (node.train.epochs < 1) {
      return Status::InvalidArgument("train.epochs must be >= 1");
    }
    if (node.dropout < 0.0f || node.dropout >= 1.0f) {
      return Status::InvalidArgument("dropout must lie in [0, 1)");
    }
    return Status::OK();
  }

  // Graph classification.
  if (graph_dataset.graphs.empty()) {
    return Status::InvalidArgument("graph dataset '" + graph_dataset.name +
                                   "' has no graphs");
  }
  if (graph_dataset.num_classes <= 0) {
    return Status::InvalidArgument("graph dataset '" + graph_dataset.name +
                                   "' has no classes");
  }
  if (graph.folds < 2) return Status::InvalidArgument("folds must be >= 2");
  if (static_cast<size_t>(graph.folds) > graph_dataset.graphs.size()) {
    return Status::InvalidArgument("folds exceed the number of graphs");
  }
  if (graph.hidden <= 0) return Status::InvalidArgument("hidden must be > 0");
  if (graph.train.epochs < 1) {
    return Status::InvalidArgument("train.epochs must be >= 1");
  }
  if ((graph.gcn_backbone ? graph.gcn_layers : graph.num_layers) < 1) {
    return Status::InvalidArgument("layer count must be >= 1");
  }
  if (keep_artifact) {
    return Status::NotImplemented(
        "keep_artifact is only supported for node-level tasks (graph runs are "
        "k-fold cross-validated; there is no single served model)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Experiment
// ---------------------------------------------------------------------------

Result<Experiment> Experiment::Create(ExperimentSpec spec) {
  MIXQ_RETURN_NOT_OK(spec.Validate());
  return Experiment(std::move(spec));
}

Result<ExperimentReport> Experiment::Run() const {
  MIXQ_RETURN_NOT_OK(spec_.Validate());
  Result<SchemeFamilyPtr> family = SchemeRegistry::Global().Find(spec_.scheme.name);
  if (!family.ok()) return family.status();
  if (spec_.task == TaskKind::kNodeClassification) {
    return RunNodeTask(spec_, *family.ValueOrDie());
  }
  return RunGraphTask(spec_, *family.ValueOrDie());
}

Result<Tensor> ReplayEvalForward(const ModelArtifact& artifact,
                                 const Tensor& features,
                                 const SparseOperatorPtr& op) {
  const bool is_gcn = artifact.model_kind == NodeModelKind::kGcn;
  if (artifact.scheme == nullptr || artifact.forward_mu == nullptr ||
      (is_gcn ? artifact.gcn == nullptr : artifact.sage == nullptr)) {
    return Status::InvalidArgument(
        "artifact lacks its network, scheme or forward lock");
  }
  const int64_t in_features = is_gcn ? artifact.gcn->config().in_features
                                     : artifact.sage->config().in_features;
  if (!features.defined() || op == nullptr || features.cols() != in_features ||
      op->matrix().cols() != features.rows()) {
    return Status::InvalidArgument(
        "features/operator do not match the artifact's network (expects " +
        std::to_string(in_features) + " feature columns, one row per "
        "operator column)");
  }
  std::lock_guard<std::mutex> lock(*artifact.forward_mu);
  artifact.scheme->BeginStep(false);
  if (is_gcn) {
    artifact.gcn->SetTraining(false);
    return artifact.gcn->Forward(features, op, artifact.scheme.get(), nullptr);
  }
  artifact.sage->SetTraining(false);
  return artifact.sage->Forward(features, op, artifact.scheme.get(), nullptr);
}

Result<RepeatedResult> RepeatExperiment(
    const std::function<NodeDataset(uint64_t)>& make_dataset,
    NodeExperimentConfig config, SchemeRef scheme, int repeats, uint64_t seed0) {
  if (repeats < 1) return Status::InvalidArgument("repeats must be >= 1");
  RepeatedResult agg;
  std::vector<double> metrics, bits, gops;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t seed = seed0 + static_cast<uint64_t>(r);
    config.train.seed = seed;
    ExperimentSpec spec =
        ExperimentSpec::NodeClassification(make_dataset(seed), config, scheme);
    spec.seed = seed;
    Result<Experiment> experiment = Experiment::Create(std::move(spec));
    if (!experiment.ok()) return experiment.status();
    Result<ExperimentReport> report = experiment.ValueOrDie().Run();
    if (!report.ok()) return report.status();
    ExperimentResult res = std::move(report.ValueOrDie().node);
    metrics.push_back(res.test_metric);
    bits.push_back(res.avg_bits);
    gops.push_back(res.gbitops);
    agg.runs.push_back(std::move(res));
  }
  agg.mean_metric = Mean(metrics);
  agg.std_metric = StdDev(metrics);
  agg.mean_bits = Mean(bits);
  agg.mean_gbitops = Mean(gops);
  return agg;
}

std::string SchemeLabel(const SchemeRef& ref) {
  return SchemeRegistry::Global().Label(ref);
}

}  // namespace mixq
