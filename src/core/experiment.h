// Copyright 2026 MixQ-GNN Authors
// Unified Experiment facade — the second layer of the public API
// (SchemeRegistry → Experiment → engine).
//
// One ExperimentSpec describes a complete run: the task kind (node- or
// graph-level), its dataset, the model/training configuration, and a
// SchemeRef naming a registered quantization family. The spec is validated
// up front (Experiment::Create returns a Status instead of CHECK-crashing
// mid-training), and Run() executes the full pipeline — optional MixQ
// relaxed search (Algorithm 1), quantized training, metric + BitOPs
// accounting — returning Result<ExperimentReport>.
//
// With keep_artifact set, a node-level run also hands back the trained
// network plus its frozen scheme as a ModelArtifact, the input to
// engine::CompileModel() for serving.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "nn/models.h"
#include "quant/scheme_registry.h"
#include "train/trainer.h"

namespace mixq {

/// Which backbone a node-level experiment uses.
enum class NodeModelKind { kGcn, kSage };

struct NodeExperimentConfig {
  NodeModelKind model = NodeModelKind::kGcn;
  int64_t hidden = 64;
  int num_layers = 2;
  float dropout = 0.5f;
  TrainLoopConfig train;
  /// >0: GraphSAGE-style static neighbour sampling cap (paper §5.3.2).
  int64_t sample_max_degree = 0;
};

struct ExperimentResult {
  double test_metric = 0.0;     ///< accuracy or ROC-AUC (dataset.metric)
  double avg_bits = 32.0;       ///< ops-weighted average bit-width
  double gbitops = 0.0;         ///< Giga BitOPs of one full forward
  std::map<std::string, int> selected_bits;  ///< MixQ/fixed/random assignment
  int64_t model_param_count = 0;
  int64_t quant_param_count = 0;  ///< scheme-owned learnable scalars
};

struct GraphExperimentConfig {
  int64_t hidden = 64;
  int num_layers = 5;        ///< GIN layers (paper Table 8)
  bool batch_norm = true;
  TrainLoopConfig train;
  int folds = 10;
  uint64_t fold_seed = 1;
  /// CSL protocol (Table 9): 4-layer GCN backbone instead of GIN.
  bool gcn_backbone = false;
  int gcn_layers = 4;
};

struct GraphExperimentResult {
  std::vector<double> fold_accuracies;
  double mean = 0.0, stddev = 0.0, min = 0.0, max = 0.0;
  double avg_bits = 32.0;
  double gbitops = 0.0;  ///< one inference pass over a test fold
};

/// The trained outcome of a node-level run, kept alive for deployment:
/// exactly one of `gcn`/`sage` is set; `scheme` is the final training/eval
/// scheme with its quantizer ranges frozen by training. The training-graph
/// operator and features are retained so callers can replay the eval-mode
/// forward (ReplayEvalForward below) or lower it (engine::CompileModel).
///
/// This struct holds LIVE objects and never leaves the training process.
/// For the train-once/serve-anywhere split, freeze it first:
/// engine::CompileModel() -> engine::SaveBundle() writes a portable model
/// bundle any serving process can load without linking training code
/// (engine/model_bundle.h; engine::SaveGraph does the same for `op` +
/// `features`).
struct ModelArtifact {
  NodeModelKind model_kind = NodeModelKind::kGcn;
  std::shared_ptr<GcnNet> gcn;
  std::shared_ptr<SageNet> sage;
  QuantSchemePtr scheme;
  SparseOperatorPtr op;      ///< normalized operator of the training graph
  Tensor features;           ///< training-graph node features
  std::map<std::string, int> selected_bits;
  std::string scheme_label;

  /// Serializes forward passes over the (mutable) net + scheme pair:
  /// ReplayEvalForward holds it, and so should anyone else running the live
  /// forward.
  std::shared_ptr<std::mutex> forward_mu = std::make_shared<std::mutex>();
};

/// The parity oracle of every serving route: replays the training pipeline's
/// eval-mode forward of `artifact` over (`features`, `op`) — under
/// `forward_mu`, BeginStep(false), then a training=false forward. A lowered
/// plan (engine::CompileModel) reproduces these logits bitwise.
/// kInvalidArgument on an incomplete artifact or inputs that do not match it.
Result<Tensor> ReplayEvalForward(const ModelArtifact& artifact,
                                 const Tensor& features,
                                 const SparseOperatorPtr& op);

/// The task a spec describes.
enum class TaskKind { kNodeClassification, kGraphClassification };

/// Everything needed to run one experiment. Build with the static factories
/// (or fill fields directly), then Experiment::Create() validates it.
struct ExperimentSpec {
  TaskKind task = TaskKind::kNodeClassification;

  /// Dataset for the matching task kind (the other one stays empty).
  NodeDataset node_dataset;
  GraphDataset graph_dataset;

  NodeExperimentConfig node;
  GraphExperimentConfig graph;

  /// Named quantization family + parameters; resolved against
  /// SchemeRegistry::Global(). Search families ("mixq", "mixq_dq") honour a
  /// "search_epochs" parameter (default 50) for the phase-1 budget.
  SchemeRef scheme;

  /// Base seed: model init and scheme construction (DQ masks, random
  /// assignment) derive from it.
  uint64_t seed = 1;

  /// Node tasks only: retain the trained network + frozen scheme in
  /// ExperimentReport::artifact for engine::CompileModel().
  bool keep_artifact = false;

  static ExperimentSpec NodeClassification(NodeDataset dataset,
                                           NodeExperimentConfig config,
                                           SchemeRef scheme);
  static ExperimentSpec GraphClassification(GraphDataset dataset,
                                            GraphExperimentConfig config,
                                            SchemeRef scheme);

  /// Cheap structural validation: dataset shape, config sanity, scheme
  /// registered and its parameters well-formed. Run() also calls this.
  Status Validate() const;
};

/// What an experiment produced. `task` selects which of node/graph is
/// meaningful; `artifact` is set only for node runs with keep_artifact.
struct ExperimentReport {
  TaskKind task = TaskKind::kNodeClassification;
  std::string scheme_label;
  ExperimentResult node;
  GraphExperimentResult graph;
  std::shared_ptr<ModelArtifact> artifact;
};

/// Validated, runnable experiment. Immutable once created.
class Experiment {
 public:
  /// Validates `spec`; returns its error Status on misconfiguration.
  static Result<Experiment> Create(ExperimentSpec spec);

  /// Executes the pipeline. Errors (unknown scheme, factory failures)
  /// surface as Status — training itself is deterministic given the spec.
  Result<ExperimentReport> Run() const;

  const ExperimentSpec& spec() const { return spec_; }

 private:
  explicit Experiment(ExperimentSpec spec) : spec_(std::move(spec)) {}
  ExperimentSpec spec_;
};

/// Aggregates repeated node-level runs with varied seeds (paper protocol:
/// mean ± std over 10 runs).
struct RepeatedResult {
  double mean_metric = 0.0, std_metric = 0.0;
  double mean_bits = 32.0, mean_gbitops = 0.0;
  std::vector<ExperimentResult> runs;
};

/// Runs `repeats` node experiments with seeds seed0, seed0+1, …; the dataset
/// is regenerated per seed. Fails fast on the first invalid spec.
Result<RepeatedResult> RepeatExperiment(
    const std::function<NodeDataset(uint64_t)>& make_dataset,
    NodeExperimentConfig config, SchemeRef scheme, int repeats,
    uint64_t seed0 = 1);

/// Human-readable scheme label via the registry ("MixQ(l=0.1)", "DQ-INT4").
std::string SchemeLabel(const SchemeRef& ref);

}  // namespace mixq
