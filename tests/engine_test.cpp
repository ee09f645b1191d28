// Copyright 2026 MixQ-GNN Authors
// Tests for the serving layer: CompileModel freezing, compile→Predict parity
// with the training pipeline's eval-mode forward, and the thread-safe
// InferenceEngine model registry.
#include <gtest/gtest.h>

#include <thread>

#include "core/experiment.h"
#include "engine/inference_engine.h"

namespace mixq {
namespace {

using engine::CompiledModelPtr;
using engine::CompileModel;
using engine::InferenceEngine;

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "tiny-citation";
  c.num_nodes = 160;
  c.num_classes = 3;
  c.feature_dim = 20;
  c.avg_degree = 3.0;
  c.homophily = 0.85;
  c.train_per_class = 8;
  c.val_count = 30;
  c.test_count = 60;
  c.seed = seed;
  return GenerateCitation(c);
}

// Trains a small experiment and returns its artifact.
std::shared_ptr<ModelArtifact> TrainArtifact(const SchemeRef& scheme,
                                             uint64_t seed = 1) {
  NodeExperimentConfig cfg;
  cfg.hidden = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.2f;
  cfg.train.epochs = 15;
  cfg.train.lr = 0.05f;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(TinyCitation(seed), cfg, scheme);
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ValueOrDie().artifact;
}

TEST(CompileModelTest, RejectsIncompleteArtifacts) {
  ModelArtifact empty;
  EXPECT_EQ(CompileModel(empty).status().code(), StatusCode::kInvalidArgument);

  ModelArtifact no_net;
  no_net.scheme = std::make_shared<NoQuantScheme>();
  EXPECT_EQ(CompileModel(no_net).status().code(), StatusCode::kInvalidArgument);
}

TEST(CompileModelTest, FreezesMetadataFromScheme) {
  auto artifact = TrainArtifact(SchemeRef::MixQ(0.05, {2, 4, 8}));
  ASSERT_NE(artifact, nullptr);
  Result<CompiledModelPtr> compiled = CompileModel(*artifact);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const auto& info = compiled.ValueOrDie()->info();
  EXPECT_EQ(info.in_features, 20);
  EXPECT_EQ(info.out_dim, 3);
  EXPECT_GT(info.param_count, 0);
  EXPECT_FALSE(info.bit_assignment.empty());
  EXPECT_LT(info.avg_bits, 32.0);  // a quantized model, not FP32
  // The frozen assignment matches what the search selected.
  for (const auto& [id, bits] : artifact->selected_bits) {
    EXPECT_EQ(info.bit_assignment.at(id), bits) << id;
  }
}

TEST(CompileModelTest, PredictMatchesEvalForwardBitwise) {
  // The acceptance contract: Predict on a compiled MixQ model returns
  // logits bitwise-identical to the training pipeline's eval-mode forward.
  auto artifact = TrainArtifact(SchemeRef::MixQ(0.05, {2, 4, 8}));
  ASSERT_NE(artifact, nullptr);
  Result<CompiledModelPtr> compiled = CompileModel(*artifact);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  // Reference: the eval path exactly as the training loop runs it.
  artifact->gcn->SetTraining(false);
  artifact->scheme->BeginStep(false);
  Tensor reference =
      artifact->gcn->Forward(artifact->features, artifact->op,
                             artifact->scheme.get(), nullptr);
  // The parity oracle the serving suites use is exactly this replay.
  Result<Tensor> oracle =
      ReplayEvalForward(*artifact, artifact->features, artifact->op);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(oracle.ValueOrDie().data(), reference.data());

  Result<Tensor> served =
      compiled.ValueOrDie()->Predict(artifact->features, artifact->op);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ASSERT_EQ(served.ValueOrDie().rows(), reference.rows());
  ASSERT_EQ(served.ValueOrDie().cols(), reference.cols());
  const auto& a = served.ValueOrDie().data();
  const auto& b = reference.data();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "logit " << i << " diverged";  // bitwise
  }
}

TEST(CompileModelTest, PredictValidatesShapes) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  Result<CompiledModelPtr> compiled = CompileModel(*artifact);
  ASSERT_TRUE(compiled.ok());

  Rng rng(1);
  Tensor bad = Tensor::RandomUniform(Shape(4, 7), &rng, -1.0f, 1.0f);
  EXPECT_EQ(compiled.ValueOrDie()->Predict(bad, artifact->op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      compiled.ValueOrDie()->Predict(artifact->features, nullptr).status().code(),
      StatusCode::kInvalidArgument);
  // The oracle refuses the same mismatches with a typed status.
  EXPECT_EQ(ReplayEvalForward(*artifact, bad, artifact->op).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ReplayEvalForward(*artifact, artifact->features, nullptr).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(InferenceEngineTest, ModelRegistryLifecycle) {
  auto artifact = TrainArtifact(SchemeRef::Qat(4));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  EXPECT_TRUE(engine.RegisterModel("citation-int4", model).ok());
  EXPECT_EQ(engine.RegisterModel("citation-int4", model).code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(engine.RegisterModel("", model).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RegisterModel("null", nullptr).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(engine.ReplaceModel("citation-int4", model).ok());  // hot swap
  EXPECT_EQ(engine.ModelNames(), std::vector<std::string>{"citation-int4"});
  EXPECT_TRUE(engine.GetModel("citation-int4").ok());
  EXPECT_EQ(engine.GetModel("absent").status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(engine.UnregisterModel("citation-int4").ok());
  EXPECT_EQ(engine.UnregisterModel("citation-int4").code(), StatusCode::kNotFound);
}

TEST(InferenceEngineTest, ListModelsAndGraphsIntrospection) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  EXPECT_TRUE(engine.ListModels().empty());
  EXPECT_TRUE(engine.ListGraphs().empty());
  ASSERT_TRUE(engine.RegisterModel("qat8", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  auto models = engine.ListModels();
  ASSERT_EQ(models.size(), 1u);
  const InferenceEngine::ModelIntrospection& m = models.at("qat8");
  EXPECT_EQ(m.info.scheme_label, model->info().scheme_label);
  EXPECT_EQ(m.info.in_features, model->info().in_features);
  EXPECT_EQ(m.info.out_dim, model->info().out_dim);
  EXPECT_EQ(m.info.bit_assignment, model->info().bit_assignment);
  EXPECT_GT(m.version, 0u);

  auto graphs = engine.ListGraphs();
  ASSERT_EQ(graphs.size(), 1u);
  const InferenceEngine::GraphIntrospection& g = graphs.at("g");
  EXPECT_EQ(g.nodes, artifact->features.rows());
  EXPECT_EQ(g.feature_dim, artifact->features.cols());
  EXPECT_EQ(g.nnz, artifact->op->nnz());
  EXPECT_GT(g.version, 0u);

  // Replace bumps the registry version — the handle the result cache keys
  // on, so a bump is what makes PredictResponse.cache_hit turn false.
  ASSERT_TRUE(engine.ReplaceModel("qat8", model).ok());
  ASSERT_TRUE(engine.ReplaceGraph("g", artifact->features, artifact->op).ok());
  EXPECT_GT(engine.ListModels().at("qat8").version, m.version);
  EXPECT_GT(engine.ListGraphs().at("g").version, g.version);

  ASSERT_TRUE(engine.UnregisterModel("qat8").ok());
  ASSERT_TRUE(engine.UnregisterGraph("g").ok());
  EXPECT_TRUE(engine.ListModels().empty());
  EXPECT_TRUE(engine.ListGraphs().empty());
}

TEST(InferenceEngineTest, GraphRegistryErrorPaths) {
  auto artifact = TrainArtifact(SchemeRef::Fp32());
  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  EXPECT_EQ(engine.RegisterGraph("g", artifact->features, artifact->op).code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(engine.UnregisterGraph("absent").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.LoadGraphFromFile("g2", "/nonexistent/graph.mqb").code(),
            StatusCode::kNotFound);
}

TEST(InferenceEngineTest, PredictRoutesAndCounts) {
  auto artifact = TrainArtifact(SchemeRef::MixQ(0.05, {2, 4, 8}), 3);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("mixq", model).ok());

  Result<Tensor> via_engine =
      engine.Predict("mixq", artifact->features, artifact->op);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status().ToString();
  Result<Tensor> direct = model->Predict(artifact->features, artifact->op);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine.ValueOrDie().data(), direct.ValueOrDie().data());

  EXPECT_EQ(engine.Predict("absent", artifact->features, artifact->op)
                .status()
                .code(),
            StatusCode::kNotFound);

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.per_model.at("mixq").successes, 1);
  EXPECT_EQ(stats.per_model.at("mixq").failures, 0);
  // The served request recorded a latency sample.
  EXPECT_GT(stats.per_model.at("mixq").p50_us, 0.0);
  EXPECT_GE(stats.per_model.at("mixq").p99_us, stats.per_model.at("mixq").p50_us);
}

TEST(InferenceEngineTest, ConcurrentPredictsAreConsistent) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), 5);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();

  constexpr int kThreads = 4;
  constexpr int kRequests = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        Result<Tensor> out = engine.Predict("m", artifact->features, artifact->op);
        if (!out.ok() || out.ValueOrDie().data() != reference.data()) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.requests, kThreads * kRequests);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.per_model.at("m").successes, kThreads * kRequests);
}

}  // namespace
}  // namespace mixq
