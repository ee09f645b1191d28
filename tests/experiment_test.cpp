// Copyright 2026 MixQ-GNN Authors
// Tests for the Experiment facade: up-front spec validation (Status instead
// of CHECK-crashes) and end-to-end node/graph runs through the registry.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace mixq {
namespace {

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "tiny-citation";
  c.num_nodes = 200;
  c.num_classes = 3;
  c.feature_dim = 24;
  c.avg_degree = 3.0;
  c.homophily = 0.85;
  c.train_per_class = 10;
  c.val_count = 40;
  c.test_count = 80;
  c.seed = seed;
  return GenerateCitation(c);
}

NodeExperimentConfig TinyConfig() {
  NodeExperimentConfig cfg;
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.dropout = 0.3f;
  cfg.train.epochs = 25;
  cfg.train.lr = 0.05f;
  return cfg;
}

TEST(ExperimentSpecTest, UnknownSchemeFailsWithNotFound) {
  ExperimentSpec spec = ExperimentSpec::NodeClassification(
      TinyCitation(), TinyConfig(), SchemeRef("does-not-exist"));
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_FALSE(experiment.ok());
  EXPECT_EQ(experiment.status().code(), StatusCode::kNotFound);
}

TEST(ExperimentSpecTest, ValidationErrors) {
  // Empty dataset.
  {
    ExperimentSpec spec = ExperimentSpec::NodeClassification(
        NodeDataset{}, TinyConfig(), SchemeRef::Fp32());
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Zero epochs.
  {
    NodeExperimentConfig cfg = TinyConfig();
    cfg.train.epochs = 0;
    ExperimentSpec spec = ExperimentSpec::NodeClassification(
        TinyCitation(), cfg, SchemeRef::Fp32());
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Bad hidden width.
  {
    NodeExperimentConfig cfg = TinyConfig();
    cfg.hidden = 0;
    ExperimentSpec spec = ExperimentSpec::NodeClassification(
        TinyCitation(), cfg, SchemeRef::Fp32());
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Unknown metric string.
  {
    NodeDataset ds = TinyCitation();
    ds.metric = "f1";
    ExperimentSpec spec =
        ExperimentSpec::NodeClassification(ds, TinyConfig(), SchemeRef::Fp32());
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Malformed scheme parameters are caught before any training.
  {
    SchemeRef ref("qat");
    ref.params.Set("bits", "wide");
    ExperimentSpec spec =
        ExperimentSpec::NodeClassification(TinyCitation(), TinyConfig(), ref);
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  }
  // Graph task: too few folds, artifact unsupported.
  {
    GraphDataset ds = GenerateTu([] {
      TuConfig c;
      c.num_graphs = 20;
      c.avg_nodes = 12.0;
      return c;
    }());
    GraphExperimentConfig cfg;
    cfg.folds = 1;
    ExperimentSpec spec =
        ExperimentSpec::GraphClassification(ds, cfg, SchemeRef::Fp32());
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

    cfg.folds = 3;
    ExperimentSpec spec2 =
        ExperimentSpec::GraphClassification(ds, cfg, SchemeRef::Fp32());
    spec2.keep_artifact = true;
    EXPECT_EQ(spec2.Validate().code(), StatusCode::kNotImplemented);
  }
}

TEST(ExperimentTest, Fp32NodeRunProducesReport) {
  ExperimentSpec spec = ExperimentSpec::NodeClassification(
      TinyCitation(1), TinyConfig(), SchemeRef::Fp32());
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const ExperimentReport& r = report.ValueOrDie();
  EXPECT_EQ(r.task, TaskKind::kNodeClassification);
  EXPECT_EQ(r.scheme_label, "FP32");
  EXPECT_GT(r.node.test_metric, 0.4);
  EXPECT_DOUBLE_EQ(r.node.avg_bits, 32.0);
  EXPECT_GT(r.node.model_param_count, 0);
  EXPECT_EQ(r.artifact, nullptr);  // keep_artifact not requested
}

TEST(ExperimentTest, MixQSearchSelectsBitsAndKeepsArtifact) {
  SchemeRef mixq = SchemeRef::MixQ(0.05, {2, 4, 8});
  mixq.params.SetInt("search_epochs", 10);
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(TinyCitation(2), TinyConfig(), mixq);
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const ExperimentReport& r = report.ValueOrDie();
  EXPECT_FALSE(r.node.selected_bits.empty());
  for (const auto& [id, bits] : r.node.selected_bits) {
    EXPECT_TRUE(bits == 2 || bits == 4 || bits == 8) << id << "=" << bits;
  }
  EXPECT_GT(r.node.quant_param_count, 0);
  ASSERT_NE(r.artifact, nullptr);
  EXPECT_NE(r.artifact->gcn, nullptr);
  EXPECT_NE(r.artifact->scheme, nullptr);
  EXPECT_NE(r.artifact->op, nullptr);
  EXPECT_EQ(r.artifact->selected_bits, r.node.selected_bits);
}

TEST(ExperimentTest, RepeatExperimentAggregates) {
  auto make = [](uint64_t seed) { return TinyCitation(seed); };
  Result<RepeatedResult> agg =
      RepeatExperiment(make, TinyConfig(), SchemeRef::Fp32(), 2);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg.ValueOrDie().runs.size(), 2u);
  EXPECT_GT(agg.ValueOrDie().mean_metric, 0.3);

  EXPECT_EQ(RepeatExperiment(make, TinyConfig(), SchemeRef::Fp32(), 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, GraphTaskRunsThroughFacade) {
  TuConfig c;
  c.num_graphs = 24;
  c.avg_nodes = 12.0;
  GraphDataset ds = GenerateTu(c);

  GraphExperimentConfig cfg;
  cfg.hidden = 8;
  cfg.num_layers = 2;
  cfg.folds = 3;
  cfg.train.epochs = 5;
  ExperimentSpec spec =
      ExperimentSpec::GraphClassification(ds, cfg, SchemeRef::Qat(8));
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  ASSERT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.ValueOrDie().graph.fold_accuracies.size(), 3u);
  EXPECT_GT(report.ValueOrDie().graph.mean, 0.0);
}

}  // namespace
}  // namespace mixq
