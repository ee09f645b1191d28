// Copyright 2026 MixQ-GNN Authors
// End-to-end node-classification integration tests: the full pipelines that
// back Tables 3-7, on reduced-size datasets so they run in seconds.
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace mixq {
namespace {

NodeDataset SmallCitation(uint64_t seed) {
  CitationConfig c;
  c.name = "small-citation";
  c.num_nodes = 300;
  c.num_classes = 4;
  c.feature_dim = 32;
  c.avg_degree = 3.0;
  c.homophily = 0.85;
  c.train_per_class = 15;
  c.val_count = 60;
  c.test_count = 120;
  c.seed = seed;
  return GenerateCitation(c);
}

ExperimentResult RunNode(NodeDataset dataset, const NodeExperimentConfig& config,
                         SchemeRef scheme, uint64_t seed = 1) {
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(std::move(dataset), config, std::move(scheme));
  spec.seed = seed;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report.ValueOrDie().node);
}

SchemeRef WithSearchEpochs(SchemeRef ref, int epochs) {
  ref.params.SetInt("search_epochs", epochs);
  return ref;
}

NodeExperimentConfig SmallConfig(NodeModelKind model = NodeModelKind::kGcn) {
  NodeExperimentConfig cfg;
  cfg.model = model;
  cfg.hidden = 16;
  cfg.num_layers = 2;
  cfg.dropout = 0.3f;
  cfg.train.epochs = 60;
  cfg.train.lr = 0.05f;
  return cfg;
}

TEST(NodeIntegration, Fp32GcnLearnsHomophilousGraph) {
  ExperimentResult res =
      RunNode(SmallCitation(1), SmallConfig(), SchemeRef::Fp32());
  EXPECT_GT(res.test_metric, 0.6) << "FP32 GCN failed to learn";
  EXPECT_DOUBLE_EQ(res.avg_bits, 32.0);
  EXPECT_GT(res.gbitops, 0.0);
  EXPECT_GT(res.model_param_count, 0);
}

TEST(NodeIntegration, Int8QatTracksFp32) {
  ExperimentResult fp32 =
      RunNode(SmallCitation(2), SmallConfig(), SchemeRef::Fp32());
  ExperimentResult int8 =
      RunNode(SmallCitation(2), SmallConfig(), SchemeRef::Qat(8));
  EXPECT_GT(int8.test_metric, fp32.test_metric - 0.12);
  EXPECT_NEAR(int8.avg_bits, 8.0, 0.5);
  EXPECT_LT(int8.gbitops, fp32.gbitops / 3.0);
}

TEST(NodeIntegration, DegreeQuantRuns) {
  ExperimentResult dq =
      RunNode(SmallCitation(3), SmallConfig(), SchemeRef::Dq(4));
  EXPECT_GT(dq.test_metric, 0.3);
  EXPECT_NEAR(dq.avg_bits, 4.0, 0.5);
}

TEST(NodeIntegration, A2qLearnsWithPerNodeBits) {
  ExperimentResult a2q =
      RunNode(SmallCitation(4), SmallConfig(), SchemeRef::A2q(/*memory_lambda=*/1e-3));
  EXPECT_GT(a2q.test_metric, 0.4);
  EXPECT_LT(a2q.avg_bits, 8.5);     // learnable bits moved below the max
  EXPECT_GT(a2q.quant_param_count, 0);
  // A2Q's overhead: 2 params per node per component (Table 1's criticism).
  EXPECT_GE(a2q.quant_param_count, 2 * 300);
}

TEST(NodeIntegration, MixQSearchSelectsAndTrains) {
  ExperimentResult res = RunNode(SmallCitation(5), SmallConfig(),
                                 WithSearchEpochs(SchemeRef::MixQ(/*lambda=*/0.1), 25));
  // 2-layer GCN: 9 components, all assigned a searched width.
  EXPECT_EQ(res.selected_bits.size(), 9u);
  for (const auto& [id, b] : res.selected_bits) {
    EXPECT_TRUE(b == 2 || b == 4 || b == 8) << id << "=" << b;
  }
  EXPECT_GT(res.test_metric, 0.4);
  EXPECT_LT(res.avg_bits, 32.0);
  EXPECT_GT(res.gbitops, 0.0);
}

TEST(NodeIntegration, MixQLambdaControlsBits) {
  // Stronger penalty => fewer average bits (Fig. 9's monotone trend).
  ExperimentResult g = RunNode(SmallCitation(6), SmallConfig(),
                               WithSearchEpochs(SchemeRef::MixQ(-1e-8), 25));
  ExperimentResult h = RunNode(SmallCitation(6), SmallConfig(),
                               WithSearchEpochs(SchemeRef::MixQ(5.0), 25));
  EXPECT_LE(h.avg_bits, g.avg_bits + 0.2);
}

TEST(NodeIntegration, MixQPlusDqIntegration) {
  ExperimentResult res = RunNode(SmallCitation(7), SmallConfig(),
                                 WithSearchEpochs(SchemeRef::MixQDq(0.1), 20));
  EXPECT_GT(res.test_metric, 0.4);
  EXPECT_FALSE(res.selected_bits.empty());
}

TEST(NodeIntegration, RandomBaselineTracksAssignment) {
  ExperimentResult res =
      RunNode(SmallCitation(8), SmallConfig(), SchemeRef::Random(), /*seed=*/9);
  EXPECT_EQ(res.selected_bits.size(), 9u);
  ExperimentResult res8 =
      RunNode(SmallCitation(8), SmallConfig(), SchemeRef::RandomInt8(), /*seed=*/9);
  // Random+INT8 pins the prediction output (last component) to 8 bits.
  EXPECT_EQ(res8.selected_bits.at("gcn1/agg"), 8);
}

TEST(NodeIntegration, SageBackboneWithSampling) {
  NodeExperimentConfig cfg = SmallConfig(NodeModelKind::kSage);
  cfg.sample_max_degree = 5;
  ExperimentResult res =
      RunNode(SmallCitation(10), cfg, SchemeRef::Fp32());
  EXPECT_GT(res.test_metric, 0.5);
  ExperimentResult qres =
      RunNode(SmallCitation(10), cfg, WithSearchEpochs(SchemeRef::MixQ(0.1), 20));
  EXPECT_EQ(qres.selected_bits.size(), 15u);  // 1 + 2*7 SAGE components
}

TEST(NodeIntegration, MultiLabelRocAucPath) {
  CitationConfig c;
  c.num_nodes = 250;
  c.num_classes = 4;
  c.feature_dim = 24;
  c.avg_degree = 4.0;
  c.train_per_class = 30;
  c.val_count = 50;
  c.test_count = 80;
  c.seed = 12;
  NodeDataset ds = GenerateMultiLabelCitation(c, /*num_tasks=*/8);
  NodeExperimentConfig cfg = SmallConfig(NodeModelKind::kSage);
  cfg.train.epochs = 40;
  ExperimentResult res = RunNode(ds, cfg, SchemeRef::Fp32());
  EXPECT_GT(res.test_metric, 0.55);  // ROC-AUC above chance
}

TEST(NodeIntegration, RepeatAggregatesStatistics) {
  auto make = [](uint64_t seed) { return SmallCitation(seed); };
  Result<RepeatedResult> repeated =
      RepeatExperiment(make, SmallConfig(), SchemeRef::Qat(8), /*repeats=*/3);
  ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();
  const RepeatedResult& agg = repeated.ValueOrDie();
  EXPECT_EQ(agg.runs.size(), 3u);
  EXPECT_GT(agg.mean_metric, 0.4);
  EXPECT_GE(agg.std_metric, 0.0);
  EXPECT_NEAR(agg.mean_bits, 8.0, 0.5);
}

TEST(NodeIntegration, SchemeLabels) {
  EXPECT_EQ(SchemeLabel(SchemeRef::Fp32()), "FP32");
  EXPECT_EQ(SchemeLabel(SchemeRef::Dq(4)), "DQ-INT4");
  EXPECT_EQ(SchemeLabel(SchemeRef::A2q()), "A2Q");
  EXPECT_EQ(SchemeLabel(SchemeRef::MixQ(1.0)), "MixQ(l=1)");
}

}  // namespace
}  // namespace mixq
