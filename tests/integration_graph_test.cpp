// Copyright 2026 MixQ-GNN Authors
// End-to-end graph-classification integration tests (Tables 8-9 pipelines)
// on reduced datasets.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "graph/csl.h"

namespace mixq {
namespace {

GraphDataset SmallTu(uint64_t seed) {
  TuConfig c;
  c.name = "small-tu";
  c.num_graphs = 60;
  c.avg_nodes = 15.0;
  c.num_classes = 2;
  c.base_degree = 2.0;
  c.degree_step = 1.0;
  c.seed = seed;
  return GenerateTu(c);
}

GraphExperimentResult RunGraph(GraphDataset dataset,
                               const GraphExperimentConfig& config,
                               SchemeRef scheme) {
  Result<Experiment> experiment = Experiment::Create(ExperimentSpec::GraphClassification(
      std::move(dataset), config, std::move(scheme)));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report.ValueOrDie().graph);
}

GraphExperimentConfig SmallGraphConfig() {
  GraphExperimentConfig cfg;
  cfg.hidden = 16;
  cfg.num_layers = 3;
  cfg.folds = 3;
  cfg.train.epochs = 40;
  cfg.train.lr = 0.01f;
  cfg.train.weight_decay = 0.0f;
  return cfg;
}

TEST(GraphIntegration, Fp32GinSeparatesDensityClasses) {
  GraphExperimentResult res =
      RunGraph(SmallTu(1), SmallGraphConfig(), SchemeRef::Fp32());
  ASSERT_EQ(res.fold_accuracies.size(), 3u);
  EXPECT_GT(res.mean, 0.75) << "GIN failed to learn the planted density signal";
  EXPECT_DOUBLE_EQ(res.avg_bits, 32.0);
  EXPECT_GT(res.gbitops, 0.0);
  EXPECT_LE(res.min, res.max);
}

TEST(GraphIntegration, QatInt8StaysClose) {
  GraphExperimentResult fp32 =
      RunGraph(SmallTu(2), SmallGraphConfig(), SchemeRef::Fp32());
  GraphExperimentResult int8 =
      RunGraph(SmallTu(2), SmallGraphConfig(), SchemeRef::Qat(8));
  EXPECT_GT(int8.mean, fp32.mean - 0.15);
  EXPECT_LT(int8.gbitops, fp32.gbitops / 3.0);
}

TEST(GraphIntegration, DqAndA2qRun) {
  GraphExperimentConfig cfg = SmallGraphConfig();
  cfg.folds = 2;
  cfg.train.epochs = 25;
  GraphExperimentResult dq =
      RunGraph(SmallTu(3), cfg, SchemeRef::Dq(4));
  EXPECT_GT(dq.mean, 0.4);
  GraphExperimentResult a2q =
      RunGraph(SmallTu(3), cfg, SchemeRef::A2q());
  EXPECT_GT(a2q.mean, 0.4);
}

TEST(GraphIntegration, MixQSearchOnGraphs) {
  GraphExperimentConfig cfg = SmallGraphConfig();
  cfg.folds = 2;
  cfg.train.epochs = 30;
  SchemeRef spec = SchemeRef::MixQ(0.1, {4, 8});
  spec.params.SetInt("search_epochs", 15);
  GraphExperimentResult res = RunGraph(SmallTu(4), cfg, spec);
  EXPECT_GT(res.mean, 0.5);
  EXPECT_LT(res.avg_bits, 32.0);
}

TEST(GraphIntegration, CslGcnBackboneFp32) {
  // Tiny CSL variant: 41-node graphs, 10 classes, Laplacian PE — FP32 GCN
  // with positional encodings must beat chance (0.1) clearly.
  GraphDataset csl = MakeCslDataset(/*pe_dim=*/20, /*seed=*/1);
  GraphExperimentConfig cfg;
  cfg.gcn_backbone = true;
  cfg.gcn_layers = 3;
  cfg.hidden = 24;
  cfg.folds = 3;
  cfg.train.epochs = 60;
  cfg.train.lr = 0.01f;
  cfg.train.weight_decay = 0.0f;
  GraphExperimentResult res = RunGraph(csl, cfg, SchemeRef::Fp32());
  EXPECT_GT(res.mean, 0.3);
}

TEST(GraphIntegration, CslInt2Collapses) {
  // The paper's Table 9: QAT-INT2 collapses on CSL (24% vs 99% FP32) because
  // positional encodings need ~log2(41) bits. INT2 must do far worse than
  // FP32 here.
  GraphDataset csl = MakeCslDataset(/*pe_dim=*/20, /*seed=*/2);
  GraphExperimentConfig cfg;
  cfg.gcn_backbone = true;
  cfg.gcn_layers = 4;
  cfg.hidden = 32;
  cfg.folds = 2;
  cfg.train.epochs = 120;
  cfg.train.lr = 0.005f;
  cfg.train.weight_decay = 0.0f;
  GraphExperimentResult fp32 = RunGraph(csl, cfg, SchemeRef::Fp32());
  GraphExperimentResult int2 = RunGraph(csl, cfg, SchemeRef::Qat(2));
  EXPECT_LT(int2.mean, 0.2);  // chance-level collapse (paper: 24.4%)
  EXPECT_LT(int2.mean, fp32.mean - 0.2);
}

}  // namespace
}  // namespace mixq
