// Copyright 2026 MixQ-GNN Authors
// Tests for the serving path: lowered-vs-oracle logit parity (or a typed
// refusal to compile) across every built-in registry scheme, the
// all-integer executor, cross-graph requests, and the asynchronous
// request/response API — graph registry, Submit with micro-batching,
// deadlines, admission control, and result-cache invalidation on
// ReplaceModel/ReplaceGraph.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "core/experiment.h"
#include "engine/inference_engine.h"
#include "engine/plan_verifier.h"

namespace mixq {
namespace {

using engine::BatcherOptions;
using engine::CompileModel;
using engine::CompiledModelPtr;
using engine::InferenceEngine;
using engine::Precision;
using engine::PredictRequest;
using engine::PredictResponse;
using engine::PredictScratch;
using engine::ServingClock;

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "serving-tiny";
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

std::shared_ptr<ModelArtifact> TrainArtifact(const SchemeRef& scheme,
                                             NodeModelKind model = NodeModelKind::kGcn,
                                             uint64_t seed = 1) {
  NodeExperimentConfig cfg;
  cfg.model = model;
  cfg.hidden = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.2f;
  cfg.train.epochs = 12;
  cfg.train.lr = 0.05f;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(TinyCitation(seed), cfg, scheme);
  spec.seed = seed;
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ValueOrDie().artifact;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(a.data()[i]) -
                                            static_cast<double>(b.data()[i])));
  }
  return max_diff;
}

struct SchemeCase {
  const char* label;
  SchemeRef ref;
  NodeModelKind model;
  bool compiles;
};

std::vector<SchemeCase> AllRegistrySchemes() {
  constexpr NodeModelKind kGcn = NodeModelKind::kGcn;
  std::vector<SchemeCase> cases;
  cases.push_back({"fp32", SchemeRef::Fp32(), kGcn, true});
  cases.push_back({"qat8", SchemeRef::Qat(8), kGcn, true});
  cases.push_back({"qat4", SchemeRef::Qat(4), kGcn, true});
  cases.push_back({"dq8", SchemeRef::Dq(8), kGcn, true});
  // A2Q's per-node learned scales are not a per-tensor transform: the
  // lowering refuses, so the model does not compile.
  cases.push_back({"a2q", SchemeRef::A2q(), kGcn, false});
  cases.push_back({"fixed",
                   SchemeRef::Fixed({{"model/x", 8},
                                     {"gcn0/weight", 2},
                                     {"gcn0/linear_out", 4},
                                     {"gcn1/weight", 4}}),
                   kGcn, true});
  // A 32-bit grid's codes and clamp bounds do not fit int32 (the emitter
  // would overflow in the top half-step), so it does not compile either.
  cases.push_back({"fixed32-linear-out", SchemeRef::Fixed({{"gcn1/linear_out", 32}}),
                   kGcn, false});
  cases.push_back({"fixed32-sage-root", SchemeRef::Fixed({{"sage0/root/out", 32}}),
                   NodeModelKind::kSage, false});
  cases.push_back({"fixed32-weight", SchemeRef::Fixed({{"gcn0/weight", 32}}), kGcn,
                   false});
  return cases;
}

// The acceptance contract: every built-in registry scheme either compiles to
// a plan whose Predict is bitwise the artifact's eval forward
// (ReplayEvalForward), or CompileModel refuses it with kNotImplemented,
// naming the scheme. There is no second serving route.
TEST(ServingLoweringTest, LoweredMatchesReferenceAcrossSchemes) {
  for (const SchemeCase& c : AllRegistrySchemes()) {
    SCOPED_TRACE(c.label);
    auto artifact = TrainArtifact(c.ref, c.model);
    ASSERT_NE(artifact, nullptr);
    Result<CompiledModelPtr> compiled = CompileModel(*artifact);
    if (!c.compiles) {
      EXPECT_EQ(compiled.status().code(), StatusCode::kNotImplemented)
          << compiled.status().ToString();
      EXPECT_NE(compiled.status().message().find("'" + artifact->scheme_label + "'"),
                std::string::npos)
          << compiled.status().ToString();
      continue;
    }
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    Result<Tensor> reference =
        ReplayEvalForward(*artifact, artifact->features, artifact->op);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    Result<Tensor> lowered =
        compiled.ValueOrDie()->Predict(artifact->features, artifact->op);
    ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
    EXPECT_EQ(lowered.ValueOrDie().data(), reference.ValueOrDie().data());
  }
}

// Theorem 1's integer view of a weight is a code on a symmetric grid, and the
// fp32 route's fake-quantized float is that same code times the scale. For
// every lowerable scheme on both backbones, each linear that carries int8
// codes holds exactly float(q) * S in its float view (padded columns +0.0f),
// so the fp32 and int8 routes of one model serve the same weights.
TEST(ServingLoweringTest, CodedWeightsAreTheirDequantizedCodes) {
  std::vector<std::pair<std::string, SchemeRef>> schemes;
  for (const SchemeCase& c : AllRegistrySchemes()) {
    if (c.compiles) schemes.push_back({c.label, c.ref});
  }
  SchemeRef mixq = SchemeRef::MixQ(0.05, {2, 4, 8});
  mixq.params.SetInt("search_epochs", 5);
  schemes.push_back({"mixq", mixq});
  schemes.push_back({"random", SchemeRef::Random()});
  schemes.push_back({"random_int8", SchemeRef::RandomInt8()});
  const auto bits = [](float v) {
    uint32_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  int coded = 0;
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const auto& [label, ref] : schemes) {
      SCOPED_TRACE(std::string(backbone == NodeModelKind::kGcn ? "gcn/" : "sage/") +
                   label);
      auto artifact = TrainArtifact(ref, backbone);
      ASSERT_NE(artifact, nullptr);
      Result<CompiledModelPtr> compiled = CompileModel(*artifact);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      const auto& linears = compiled.ValueOrDie()->plan()->linears();
      for (size_t i = 0; i < linears.size(); ++i) {
        const engine::LoweredLinear& lin = linears[i];
        if (lin.weight_q8.empty()) continue;
        ++coded;
        ASSERT_EQ(lin.weight_fq.size(), lin.weight_q8.size()) << "linear " << i;
        int64_t mismatches = 0, first = -1;
        for (int64_t r = 0; r < lin.in; ++r) {
          for (int64_t col = 0; col < lin.out_padded; ++col) {
            const size_t k = static_cast<size_t>(r * lin.out_padded + col);
            const float want =
                col < lin.out
                    ? static_cast<float>(lin.weight_q8[k]) * lin.weight_params.scale
                    : 0.0f;
            if (bits(lin.weight_fq[k]) != bits(want)) {
              if (first < 0) first = static_cast<int64_t>(k);
              ++mismatches;
            }
          }
        }
        EXPECT_EQ(mismatches, 0) << "linear " << i << ", first at flat index "
                                 << first;
      }
    }
  }
  EXPECT_GT(coded, 0) << "no lowered linear carried int8 codes";
}

TEST(ServingLoweringTest, SageBackboneParity) {
  for (const SchemeRef& ref : {SchemeRef::Fp32(), SchemeRef::Qat(8)}) {
    auto artifact = TrainArtifact(ref, NodeModelKind::kSage);
    ASSERT_NE(artifact, nullptr);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    Tensor reference =
        ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();
    Tensor lowered = model->Predict(artifact->features, artifact->op).ValueOrDie();
    EXPECT_EQ(lowered.data(), reference.data());
  }
}

// A request over a different graph than the one the model was trained on:
// per-request adjacency quantization must still match the reference.
TEST(ServingLoweringTest, CrossGraphRequestParity) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  auto other = TrainArtifact(SchemeRef::Fp32(), NodeModelKind::kGcn, /*seed=*/7);
  ASSERT_NE(artifact, nullptr);
  ASSERT_NE(other, nullptr);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  Tensor reference =
      ReplayEvalForward(*artifact, other->features, other->op).ValueOrDie();
  Tensor lowered = model->Predict(other->features, other->op).ValueOrDie();
  EXPECT_EQ(lowered.data(), reference.data());
}

TEST(ServingLoweringTest, ScratchReuseAcrossRequests) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();
  PredictScratch scratch;
  for (int i = 0; i < 3; ++i) {
    Tensor again =
        model->Predict(artifact->features, artifact->op, &scratch).ValueOrDie();
    EXPECT_EQ(again.data(), reference.data());
  }
}

TEST(ServingLoweringTest, Int8ExecutorTracksReference) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  ASSERT_TRUE(model->info().lowered_int8);

  Tensor reference =
      ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();
  Result<Tensor> quantized = model->PredictQuantized(artifact->features, artifact->op);
  ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();

  // The integer path is exact up to rounding ties on each requantization, so
  // logits may differ from the float reference by a few quantization steps of
  // the final (8-bit) output quantizer — small relative to the logit range.
  const auto& ref = reference.data();
  float lo = ref[0], hi = ref[0];
  for (float v : ref) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = static_cast<double>(hi) - lo;
  EXPECT_LE(MaxAbsDiff(quantized.ValueOrDie(), reference), 0.05 * range + 1e-6);
}

TEST(ServingLoweringTest, Int8ExecutorSageAndMixedWidths) {
  // SAGE exercises the bias + AddRequant integer steps; the mixed-width
  // fixed scheme exercises intN (< 8-bit) codes inside the int8 executor.
  struct Case {
    SchemeRef ref;
    NodeModelKind model;
  };
  const Case cases[] = {
      {SchemeRef::Qat(8), NodeModelKind::kSage},
      {SchemeRef::Fixed({{"gcn0/weight", 4}, {"gcn0/linear_out", 4},
                         {"gcn1/weight", 2}}),
       NodeModelKind::kGcn},
  };
  for (const Case& c : cases) {
    auto artifact = TrainArtifact(c.ref, c.model);
    ASSERT_NE(artifact, nullptr);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    ASSERT_TRUE(model->info().lowered_int8) << model->info().scheme_label;
    Tensor reference =
        ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();
    Result<Tensor> quantized =
        model->PredictQuantized(artifact->features, artifact->op);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    const auto& ref = reference.data();
    float lo = ref[0], hi = ref[0];
    for (float v : ref) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double range = static_cast<double>(hi) - lo;
    EXPECT_LE(MaxAbsDiff(quantized.ValueOrDie(), reference), 0.1 * range + 1e-6);
  }
}

TEST(ServingLoweringTest, Int8ExecutorGatedOnWidth) {
  // A 16-bit component keeps the exact lowering but rules out int8 codes.
  auto artifact = TrainArtifact(
      SchemeRef::Fixed({{"gcn1/linear_out", 16}}), NodeModelKind::kGcn);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  EXPECT_FALSE(model->info().lowered_int8);
  Tensor reference =
      ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();
  Tensor lowered = model->Predict(artifact->features, artifact->op).ValueOrDie();
  EXPECT_EQ(lowered.data(), reference.data());
}

TEST(ServingLoweringTest, Int8ExecutorUnavailableForFp32) {
  auto artifact = TrainArtifact(SchemeRef::Fp32());
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  EXPECT_FALSE(model->info().lowered_int8);
  EXPECT_EQ(
      model->PredictQuantized(artifact->features, artifact->op).status().code(),
      StatusCode::kNotImplemented);
}

// Regression for the padded-GEMM compaction: with enough rows that
// ParallelFor actually chunks, the in-place stripping of padding columns
// must not let one chunk overwrite another's unread rows. Hidden width 20
// (padded to 32) and 7 classes (padded to 16) both take the padded path.
TEST(ServingLoweringTest, LargeGraphPaddedOutputsStayExact) {
  CitationConfig c;
  c.name = "serving-padded";
  c.num_nodes = 700;
  c.num_classes = 7;
  c.feature_dim = 24;
  c.avg_degree = 3.0;
  c.homophily = 0.8;
  c.val_count = 100;
  c.test_count = 200;
  c.seed = 3;
  NodeExperimentConfig cfg;
  cfg.hidden = 20;
  cfg.num_layers = 2;
  cfg.train.epochs = 4;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(GenerateCitation(c), cfg, SchemeRef::Qat(8));
  spec.keep_artifact = true;
  auto report = Experiment::Create(std::move(spec)).ValueOrDie().Run();
  auto artifact = report.ValueOrDie().artifact;
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  Tensor reference =
      ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    Tensor lowered = model->Predict(artifact->features, artifact->op).ValueOrDie();
    ASSERT_EQ(lowered.data(), reference.data()) << "iteration " << i;
  }
}

// A full forward runs its kernel loops as one sequence on the pool: the
// workers wake once per forward, not once per loop, at either precision.
TEST(ServingLoweringTest, OneWorkerWakePerFullForward) {
  CitationConfig c;
  c.name = "serving-one-wake";
  c.num_nodes = 1000;
  c.num_classes = 7;
  c.feature_dim = 96;
  c.avg_degree = 2.0;
  c.val_count = 100;
  c.test_count = 200;
  c.seed = 4;
  NodeExperimentConfig cfg;
  cfg.hidden = 64;
  cfg.num_layers = 2;
  cfg.train.epochs = 2;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(GenerateCitation(c), cfg, SchemeRef::Qat(8));
  spec.keep_artifact = true;
  auto artifact = Experiment::Create(std::move(spec)).ValueOrDie().Run().ValueOrDie().artifact;
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  ASSERT_TRUE(model->info().lowered_int8);
  const int64_t expected = NumThreads() > 1 ? 1 : 0;
  engine::PredictScratch scratch;
  for (bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8" : "fp32");
    auto forward = [&] {
      return int8 ? model->PredictQuantized(artifact->features, artifact->op, &scratch)
                  : model->Predict(artifact->features, artifact->op, &scratch);
    };
    ASSERT_TRUE(forward().ok());  // sizes the scratch
    const int64_t wakes = PoolWakes();
    ASSERT_TRUE(forward().ok());
    EXPECT_EQ(PoolWakes() - wakes, expected);
  }
}

// The concurrency acceptance test: >= 8 threads hammering the engine's
// lock-free hot path must all see logits identical to the single-threaded
// reference.
TEST(ServingConcurrencyTest, EightThreadsDeterministic) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn, /*seed=*/5);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  Tensor reference =
      ReplayEvalForward(*artifact, artifact->features, artifact->op).ValueOrDie();

  constexpr int kThreads = 8;
  constexpr int kRequests = 16;
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
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.requests, kThreads * kRequests);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.per_model.at("m").successes, kThreads * kRequests);
  EXPECT_GT(stats.per_model.at("m").p99_us, 0.0);
}

// ---------------------------------------------------------------------------
// Asynchronous request/response API: graph registry, Submit, micro-batching.
// ---------------------------------------------------------------------------

/// Polls `cond` for up to `timeout_ms`; returns its final value.
bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

PredictRequest MakeRequest(std::string model, std::string graph,
                           std::vector<int64_t> node_ids = {},
                           Precision precision = Precision::kFp32) {
  PredictRequest request;
  request.model = std::move(model);
  request.graph = std::move(graph);
  request.node_ids = std::move(node_ids);
  request.precision = precision;
  return request;
}

/// How long StallDispatcher holds a forward: ample time to queue a burst
/// behind it, yet under BatcherOptions::max_forward_stall (500 ms), so the
/// watchdog never acts and expiry stays the next drain's job.
constexpr std::chrono::milliseconds kStall{300};

/// Holds the dispatcher inside one full forward of `model` over `graph` for
/// kStall (the plan's delay fault site, armed for a single fire) and returns
/// once that request is in dispatch. The caller registers both names for
/// the stall alone, so it shares no group, cache entry or per-model stats
/// with the traffic under test, and disarms the injector once it resolves.
std::future<Result<PredictResponse>> StallDispatcher(InferenceEngine& engine,
                                                     const std::string& model,
                                                     const std::string& graph) {
  fault::FaultInjector::Global().SetDelay(kStall);
  fault::FaultInjector::Global().ArmSite("plan.forward.delay",
                                         fault::SiteSchedule{1.0, 1, 0});
  std::future<Result<PredictResponse>> blocked =
      engine.Submit(MakeRequest(model, graph));
  EXPECT_TRUE(WaitFor([&] {
    InferenceEngine::Stats s = engine.GetStats();
    return s.batcher.in_dispatch >= 1 && s.batcher.queue_depth == 0;
  }));
  return blocked;
}

/// Waits out a StallDispatcher forward and disarms the injector.
Status EndStall(std::future<Result<PredictResponse>>* blocked) {
  Status status = blocked->get().status();
  fault::FaultInjector::Global().Disarm();
  return status;
}

TEST(GraphRegistryTest, Lifecycle) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  InferenceEngine engine;
  EXPECT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  EXPECT_EQ(engine.RegisterGraph("g", artifact->features, artifact->op).code(),
            StatusCode::kInvalidArgument);  // duplicate
  EXPECT_EQ(engine.RegisterGraph("", artifact->features, artifact->op).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RegisterGraph("null-op", artifact->features, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RegisterGraph("undef", Tensor(), artifact->op).code(),
            StatusCode::kInvalidArgument);
  // Operator/feature shape mismatch.
  Rng rng(1);
  Tensor wrong_rows = Tensor::RandomUniform(Shape(7, 20), &rng, -1.0f, 1.0f);
  EXPECT_EQ(engine.RegisterGraph("mismatch", wrong_rows, artifact->op).code(),
            StatusCode::kInvalidArgument);
  // Rectangular operators cannot serve (fewer logit rows than nodes, and
  // node ids past op.rows() would reach the pruned analysis).
  const int64_t n = artifact->features.rows();
  SparseOperatorPtr rect = MakeOperator(
      CsrMatrix::FromCoo(n - 1, n, {{0, 0, 1.0f}, {n - 2, n - 1, 1.0f}}));
  EXPECT_EQ(engine.RegisterGraph("rect", artifact->features, rect).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(engine.GraphNames(), std::vector<std::string>{"g"});
  ASSERT_TRUE(engine.GetGraph("g").ok());
  const uint64_t v1 = engine.GetGraph("g").ValueOrDie()->version;
  EXPECT_GT(v1, 0u);
  EXPECT_EQ(engine.GetGraph("absent").status().code(), StatusCode::kNotFound);

  // ReplaceGraph bumps the version (the cache invalidation handle).
  EXPECT_TRUE(engine.ReplaceGraph("g", artifact->features, artifact->op).ok());
  EXPECT_GT(engine.GetGraph("g").ValueOrDie()->version, v1);

  EXPECT_TRUE(engine.UnregisterGraph("g").ok());
  EXPECT_EQ(engine.UnregisterGraph("g").code(), StatusCode::kNotFound);
}

TEST(SubmitTest, SingleRequestMatchesPredictBitwise) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();

  // All rows (empty node_ids).
  Result<PredictResponse> all = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.ValueOrDie().rows.data(), reference.data());
  EXPECT_EQ(all.ValueOrDie().precision, Precision::kFp32);
  EXPECT_GE(all.ValueOrDie().total_us, all.ValueOrDie().forward_us);

  // A row subset, in a caller-chosen order.
  const std::vector<int64_t> ids = {17, 3, 17, 159};
  Result<PredictResponse> subset =
      engine.Submit(MakeRequest("m", "g", ids)).get();
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  const PredictResponse& r = subset.ValueOrDie();
  EXPECT_EQ(r.node_ids, ids);
  ASSERT_EQ(r.rows.rows(), static_cast<int64_t>(ids.size()));
  ASSERT_EQ(r.rows.cols(), reference.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int64_t c = 0; c < reference.cols(); ++c) {
      EXPECT_EQ(r.rows.at(static_cast<int64_t>(i), c), reference.at(ids[i], c));
    }
  }
}

TEST(SubmitTest, ErrorsForUnknownNamesAndBadIds) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  EXPECT_EQ(engine.Submit(MakeRequest("absent", "g")).get().status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Submit(MakeRequest("m", "absent")).get().status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      engine.Submit(MakeRequest("m", "g", {artifact->features.rows()}))
          .get()
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {-1})).get().status().code(),
            StatusCode::kInvalidArgument);

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.failures, 4);
  // Failures after model resolution are attributed to the model.
  EXPECT_EQ(stats.per_model.at("m").failures, 3);
  EXPECT_EQ(stats.per_model.at("m").successes, 0);
}

TEST(SubmitTest, PrecisionResolution) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr int8_model = CompileModel(*artifact).ValueOrDie();
  ASSERT_TRUE(int8_model->info().lowered_int8);
  auto fp32_artifact = TrainArtifact(SchemeRef::Fp32());
  CompiledModelPtr fp32_model = CompileModel(*fp32_artifact).ValueOrDie();
  ASSERT_FALSE(fp32_model->info().lowered_int8);

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("int8", int8_model).ok());
  ASSERT_TRUE(engine.RegisterModel("fp32", fp32_model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  // Explicit int8 serves through PredictQuantized (documented tolerance).
  Result<PredictResponse> int8_response =
      engine.Submit(MakeRequest("int8", "g", {}, Precision::kInt8)).get();
  ASSERT_TRUE(int8_response.ok()) << int8_response.status().ToString();
  EXPECT_EQ(int8_response.ValueOrDie().precision, Precision::kInt8);
  Tensor quantized =
      int8_model->PredictQuantized(artifact->features, artifact->op).ValueOrDie();
  EXPECT_EQ(int8_response.ValueOrDie().rows.data(), quantized.data());

  // Auto resolves to the cheapest available mode: int8 here.
  Result<PredictResponse> auto_response =
      engine.Submit(MakeRequest("int8", "g", {}, Precision::kAuto)).get();
  ASSERT_TRUE(auto_response.ok());
  EXPECT_EQ(auto_response.ValueOrDie().precision, Precision::kInt8);

  // A model without the integer lowering: int8 is an error, auto falls back.
  EXPECT_EQ(engine.Submit(MakeRequest("fp32", "g", {}, Precision::kInt8))
                .get()
                .status()
                .code(),
            StatusCode::kNotImplemented);
  Result<PredictResponse> fallback =
      engine.Submit(MakeRequest("fp32", "g", {}, Precision::kAuto)).get();
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.ValueOrDie().precision, Precision::kFp32);
}

// N concurrent single-node clients are coalesced into ONE forward whose
// gathered rows are bitwise-equal to individual CompiledModel::Predict
// calls — the tentpole acceptance contract.
TEST(SubmitTest, CoalescedBatchMatchesIndividualPredictsBitwise) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  BatcherOptions options;
  options.enable_cache = false;  // force a real coalesced forward
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("slow", model).ok());
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("stall", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();
  const int64_t n = artifact->features.rows();

  // Stall the dispatcher inside one forward and queue K single-node
  // requests behind it: they all land in one drain cycle and one group.
  std::future<Result<PredictResponse>> blocked =
      StallDispatcher(engine, "slow", "stall");

  constexpr int kClients = 8;
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int i = 0; i < kClients; ++i) {
    futures.push_back(engine.Submit(MakeRequest("m", "g", {(i * 13) % n})));
  }

  ASSERT_TRUE(EndStall(&blocked).ok());
  for (int i = 0; i < kClients; ++i) {
    Result<PredictResponse> response = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const PredictResponse& r = response.ValueOrDie();
    EXPECT_EQ(r.batch_size, kClients);  // all eight in one group
    EXPECT_FALSE(r.cache_hit);
    const int64_t id = (i * 13) % n;
    for (int64_t c = 0; c < reference.cols(); ++c) {
      EXPECT_EQ(r.rows.at(0, c), reference.at(id, c)) << "client " << i;
    }
  }
  // The eight clients cost exactly one lowered forward, not eight: total
  // forwards on this engine = the stalled one + one coalesced batch.
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.forwards, 2);
  EXPECT_EQ(stats.per_model.at("m").successes, kClients);
}

TEST(SubmitTest, DeadlineExpiryUnderStalledDispatcher) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("slow", model).ok());
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("stall", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  // A deadline already in the past is rejected at admission.
  PredictRequest late = MakeRequest("m", "g");
  late.deadline = ServingClock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(engine.Submit(std::move(late)).get().status().code(),
            StatusCode::kDeadlineExceeded);

  // Stall the dispatcher and queue requests whose deadline passes while
  // they wait: the next drain must expire them, not serve them late.
  std::future<Result<PredictResponse>> blocked =
      StallDispatcher(engine, "slow", "stall");

  constexpr int kExpiring = 3;
  std::vector<std::future<Result<PredictResponse>>> doomed;
  for (int i = 0; i < kExpiring; ++i) {
    PredictRequest request = MakeRequest("m", "g", {0});
    request.deadline = ServingClock::now() + std::chrono::milliseconds(5);
    doomed.push_back(engine.Submit(std::move(request)));
  }
  std::future<Result<PredictResponse>> patient =
      engine.Submit(MakeRequest("m", "g", {0}));  // no deadline

  ASSERT_TRUE(EndStall(&blocked).ok());
  for (auto& future : doomed) {
    EXPECT_EQ(future.get().status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(patient.get().ok());
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.expired, kExpiring + 1);  // + the admission-time one
  EXPECT_GE(stats.per_model.at("m").failures, kExpiring);
}

TEST(SubmitTest, QueueOverflowRejectsWithResourceExhausted) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  BatcherOptions options;
  options.queue_capacity = 2;
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("slow", model).ok());
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("stall", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  std::future<Result<PredictResponse>> blocked =
      StallDispatcher(engine, "slow", "stall");

  // Capacity 2: two queue, the third is rejected immediately (the returned
  // future is already resolved, the client never blocks).
  std::future<Result<PredictResponse>> queued1 = engine.Submit(MakeRequest("m", "g", {0}));
  std::future<Result<PredictResponse>> queued2 = engine.Submit(MakeRequest("m", "g", {1}));
  std::future<Result<PredictResponse>> rejected = engine.Submit(MakeRequest("m", "g", {2}));
  EXPECT_EQ(rejected.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(rejected.get().status().code(), StatusCode::kResourceExhausted);

  ASSERT_TRUE(EndStall(&blocked).ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.rejected, 1);
  EXPECT_EQ(stats.failures, 1);
}

TEST(SubmitTest, CacheInvalidationOnReplaceGraphAndReplaceModel) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  auto other = TrainArtifact(SchemeRef::Fp32(), NodeModelKind::kGcn, /*seed=*/7);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  CompiledModelPtr other_model = CompileModel(*other).ValueOrDie();

  InferenceEngine engine;  // cache enabled by default
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  // First request fills the cache; the repeat is a row gather off it.
  Result<PredictResponse> first = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.ValueOrDie().cache_hit);
  Result<PredictResponse> repeat = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.ValueOrDie().cache_hit);
  EXPECT_EQ(repeat.ValueOrDie().forward_us, 0.0);
  EXPECT_EQ(repeat.ValueOrDie().rows.data(), first.ValueOrDie().rows.data());

  // ReplaceGraph: the cached logits are for the old features — must miss.
  ASSERT_TRUE(engine.ReplaceGraph("g", other->features, other->op).ok());
  Result<PredictResponse> after_graph = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(after_graph.ok());
  EXPECT_FALSE(after_graph.ValueOrDie().cache_hit);
  Tensor expected = model->Predict(other->features, other->op).ValueOrDie();
  EXPECT_EQ(after_graph.ValueOrDie().rows.data(), expected.data());

  // Warm the cache again, then ReplaceModel: must miss and use the new model.
  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g")).get().ok());
  ASSERT_TRUE(engine.ReplaceModel("m", other_model).ok());
  Result<PredictResponse> after_model = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(after_model.ok());
  EXPECT_FALSE(after_model.ValueOrDie().cache_hit);
  Tensor expected2 = other_model->Predict(other->features, other->op).ValueOrDie();
  EXPECT_EQ(after_model.ValueOrDie().rows.data(), expected2.data());

  // And the refreshed entries serve hits again.
  EXPECT_TRUE(engine.Submit(MakeRequest("m", "g")).get().ValueOrDie().cache_hit);
}

// Regression: registry versions come from an engine-global monotonic
// counter. If Unregister + Register under the same name restarted versions
// at 1, the cache would serve the OLD model's logits for the new one.
TEST(SubmitTest, CacheNotServedAcrossUnregisterAndReregister) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  auto other = TrainArtifact(SchemeRef::Fp32(), NodeModelKind::kGcn, /*seed=*/7);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  CompiledModelPtr other_model = CompileModel(*other).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g")).get().ok());  // fill cache

  ASSERT_TRUE(engine.UnregisterModel("m").ok());
  ASSERT_TRUE(engine.RegisterModel("m", other_model).ok());
  Result<PredictResponse> after_model = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(after_model.ok());
  EXPECT_FALSE(after_model.ValueOrDie().cache_hit);
  Tensor expected =
      other_model->Predict(artifact->features, artifact->op).ValueOrDie();
  EXPECT_EQ(after_model.ValueOrDie().rows.data(), expected.data());

  ASSERT_TRUE(engine.UnregisterGraph("g").ok());
  ASSERT_TRUE(engine.RegisterGraph("g", other->features, other->op).ok());
  Result<PredictResponse> after_graph = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(after_graph.ok());
  EXPECT_FALSE(after_graph.ValueOrDie().cache_hit);
  Tensor expected2 =
      other_model->Predict(other->features, other->op).ValueOrDie();
  EXPECT_EQ(after_graph.ValueOrDie().rows.data(), expected2.data());
}

// ReplaceGraph with a SMALLER graph: node ids valid on the old graph must be
// rejected against the new one, and an empty-node_ids request must serve the
// new graph's row count — never the stale cached logits of the larger graph.
TEST(SubmitTest, ReplaceGraphShrinkServesNewGraphAndRejectsOldIds) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));  // 160-node graph
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;  // cache enabled by default
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  // Warm the cache with full logits of the 160-node graph.
  Result<PredictResponse> full = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.ValueOrDie().rows.rows(), artifact->features.rows());

  // Shrink to an 80-node graph with the same feature width.
  CitationConfig c;
  c.name = "serving-shrunk";
  c.num_nodes = 80;
  c.num_classes = 3;
  c.feature_dim = 20;
  c.avg_degree = 3.0;
  c.homophily = 0.85;
  c.train_per_class = 8;
  c.val_count = 10;
  c.test_count = 20;
  c.seed = 11;
  NodeDataset small = GenerateCitation(c);
  SparseOperatorPtr small_op =
      MakeOperator(GcnNormalize(small.graph.Adjacency()));
  ASSERT_TRUE(
      engine.ReplaceGraph("g", small.graph.features, small_op).ok());

  // An id that was valid on the old graph is out of range on the new one.
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {120})).get().status().code(),
            StatusCode::kInvalidArgument);

  // Empty node_ids means "all rows of the CURRENT graph": the 160-row cache
  // entry must not serve; the response matches a direct predict on the new
  // graph bitwise.
  Result<PredictResponse> after = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.ValueOrDie().cache_hit);
  ASSERT_EQ(after.ValueOrDie().rows.rows(), small.graph.features.rows());
  Tensor expected = model->Predict(small.graph.features, small_op).ValueOrDie();
  EXPECT_EQ(after.ValueOrDie().rows.data(), expected.data());
}

// Submit against names that existed but were unregistered: typed kNotFound,
// same as never-registered names, and counted as engine-level failures.
TEST(SubmitTest, UnregisteredNamesFailTyped) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g", {0})).get().ok());

  ASSERT_TRUE(engine.UnregisterModel("m").ok());
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {0})).get().status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.UnregisterGraph("g").ok());
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {0})).get().status().code(),
            StatusCode::kNotFound);

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.failures, 2);
}

TEST(SubmitTest, ConcurrentClientsSeeConsistentRows) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn, /*seed=*/9);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  InferenceEngine engine;
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();
  const int64_t n = artifact->features.rows();

  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const int64_t id = (t * kRequests + i) % n;
        Result<PredictResponse> response =
            engine.Submit(MakeRequest("m", "g", {id})).get();
        if (!response.ok()) {
          ++mismatches[t];
          continue;
        }
        const Tensor& rows = response.ValueOrDie().rows;
        for (int64_t c = 0; c < reference.cols(); ++c) {
          if (rows.at(0, c) != reference.at(id, c)) ++mismatches[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.per_model.at("m").successes, kThreads * kRequests);
  EXPECT_EQ(stats.per_model.at("m").failures, 0);
  // The whole run needs exactly one forward: every request after the first
  // is either coalesced with it or a cache hit.
  EXPECT_EQ(stats.batcher.forwards, 1);
}

// ---------------------------------------------------------------------------
// Receptive-field-pruned serving.
// ---------------------------------------------------------------------------

using engine::FrontierProgram;

/// Asserts rows `targets` of `full` == the pruned output, bitwise.
void ExpectPrunedRowsMatch(const Tensor& pruned, const Tensor& full,
                           const std::vector<int64_t>& targets) {
  ASSERT_EQ(pruned.rows(), static_cast<int64_t>(targets.size()));
  ASSERT_EQ(pruned.cols(), full.cols());
  for (size_t i = 0; i < targets.size(); ++i) {
    for (int64_t c = 0; c < full.cols(); ++c) {
      EXPECT_EQ(pruned.at(static_cast<int64_t>(i), c), full.at(targets[i], c))
          << "node " << targets[i] << " col " << c;
    }
  }
}

// FrontierProgram::Build does not re-check its own output on the serving
// path; every schedule these tests build is checked against its plan here.
void ExpectScheduleVerifies(const engine::CompiledModel& model,
                            const engine::FrontierProgram& program) {
  Status status = engine::VerifyFrontierProgram(*model.plan(), program);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// The tentpole contract: for every lowered registry scheme (GCN and SAGE
// backbones), the pruned forward's rows are bitwise identical to the
// full-graph forward's.
TEST(PrunedServingTest, PrunedMatchesFullBitwiseAcrossSchemes) {
  struct Case {
    const char* label;
    SchemeRef ref;
    NodeModelKind model;
  };
  std::vector<Case> cases;
  cases.push_back({"fp32", SchemeRef::Fp32(), NodeModelKind::kGcn});
  cases.push_back({"qat8", SchemeRef::Qat(8), NodeModelKind::kGcn});
  cases.push_back({"dq8", SchemeRef::Dq(8), NodeModelKind::kGcn});
  cases.push_back({"fixed",
                   SchemeRef::Fixed({{"model/x", 8},
                                     {"gcn0/weight", 2},
                                     {"gcn0/linear_out", 4},
                                     {"gcn1/weight", 4}}),
                   NodeModelKind::kGcn});
  cases.push_back({"mixq", SchemeRef::MixQ(0.1), NodeModelKind::kGcn});
  cases.push_back({"qat8-sage", SchemeRef::Qat(8), NodeModelKind::kSage});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    auto artifact = TrainArtifact(c.ref, c.model);
    ASSERT_NE(artifact, nullptr);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    Tensor full = model->Predict(artifact->features, artifact->op).ValueOrDie();
    const int64_t n = artifact->features.rows();

    FrontierWorkspace ws;
    PredictScratch scratch;
    const std::vector<std::vector<int64_t>> target_sets = {
        {0}, {n - 1}, {5, 42, 107}, {1, 2, 3, 4, 5, 6, 7, 8}};
    for (const std::vector<int64_t>& targets : target_sets) {
      auto program = model->BuildFrontierProgram(artifact->op, targets,
                                                 /*int8=*/false, &ws,
                                                 /*max_cost_fraction=*/10.0);
      ASSERT_NE(program, nullptr);
      ExpectScheduleVerifies(*model, *program);
      EXPECT_GT(program->frontier_rows(), 0);
      EXPECT_LT(program->frontier_nnz(), program->full_nnz());
      Result<Tensor> pruned =
          model->PredictPruned(artifact->features, *program, &scratch);
      ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
      ExpectPrunedRowsMatch(pruned.ValueOrDie(), full, targets);
    }
  }
}

TEST(PrunedServingTest, PrunedInt8MatchesFullInt8Bitwise) {
  // The integer pruned executor computes the SAME codes as ExecuteInt8 for
  // the surviving rows, so parity with PredictQuantized is bitwise — no
  // tolerance needed (the tolerance lives between int8 and the reference).
  for (NodeModelKind kind : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    SCOPED_TRACE(kind == NodeModelKind::kGcn ? "gcn" : "sage");
    auto artifact = TrainArtifact(SchemeRef::Qat(8), kind);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    ASSERT_TRUE(model->info().lowered_int8);
    Tensor full =
        model->PredictQuantized(artifact->features, artifact->op).ValueOrDie();
    FrontierWorkspace ws;
    PredictScratch scratch;
    const std::vector<int64_t> targets = {3, 77, 150};
    auto program = model->BuildFrontierProgram(artifact->op, targets,
                                               /*int8=*/true, &ws, 10.0);
    ASSERT_NE(program, nullptr);
    ExpectScheduleVerifies(*model, *program);
    EXPECT_TRUE(program->int8());
    Result<Tensor> pruned =
        model->PredictPruned(artifact->features, *program, &scratch);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ExpectPrunedRowsMatch(pruned.ValueOrDie(), full, targets);
  }
}

TEST(PrunedServingTest, IsolatedNodeRows) {
  // A node with no in-edges has an empty receptive field beyond itself; the
  // induced slices carry empty rows and the pruned output must still match
  // the full forward (which aggregates zero for it). RowNormalize (SAGE)
  // leaves the isolated row truly empty; GcnNormalize gives it a self-loop.
  for (NodeModelKind kind : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    SCOPED_TRACE(kind == NodeModelKind::kGcn ? "gcn" : "sage");
    auto artifact = TrainArtifact(SchemeRef::Qat(8), kind);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    const int64_t n = 300;
    // Ring over nodes 0..n-2; node n-1 isolated.
    std::vector<CooEntry> edges;
    for (int64_t v = 0; v + 1 < n; ++v) {
      edges.push_back({v, (v + 1) % (n - 1), 1.0f});
      edges.push_back({(v + 1) % (n - 1), v, 1.0f});
    }
    CsrMatrix adj = CsrMatrix::FromCoo(n, n, std::move(edges));
    SparseOperatorPtr op = MakeOperator(
        kind == NodeModelKind::kGcn ? GcnNormalize(adj) : RowNormalize(adj));
    Rng rng(11);
    Tensor features = Tensor::RandomUniform(
        Shape(n, artifact->features.cols()), &rng, -1.0f, 1.0f);
    Tensor full = model->Predict(features, op).ValueOrDie();

    FrontierWorkspace ws;
    PredictScratch scratch;
    const std::vector<int64_t> targets = {n - 1};
    auto program =
        model->BuildFrontierProgram(op, targets, /*int8=*/false, &ws, 10.0);
    ASSERT_NE(program, nullptr);
    ExpectScheduleVerifies(*model, *program);
    Result<Tensor> pruned = model->PredictPruned(features, *program, &scratch);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    ExpectPrunedRowsMatch(pruned.ValueOrDie(), full, targets);
  }
}

TEST(PrunedServingTest, CostGateRefusesWideReceptiveFields) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  const int64_t n = artifact->features.rows();
  std::vector<int64_t> all(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  FrontierWorkspace ws;
  // Every node requested: the frontier IS the graph; the default-style
  // fraction must refuse so the batcher serves (and caches) a full forward.
  EXPECT_EQ(model->BuildFrontierProgram(artifact->op, all, false, &ws, 0.5),
            nullptr);
  EXPECT_EQ(model->BuildFrontierProgram(artifact->op, {}, false, &ws, 0.5),
            nullptr);
  // And an fp32-only model has no int8 program.
  auto fp32 = TrainArtifact(SchemeRef::Fp32());
  CompiledModelPtr fp32_model = CompileModel(*fp32).ValueOrDie();
  EXPECT_EQ(fp32_model->BuildFrontierProgram(fp32->op, {0}, true, &ws, 10.0),
            nullptr);
}

// A program indexes the step list and buffers of the plan it was built
// over, so running it on any other model's plan is a typed caller error,
// never an executor abort.
TEST(PrunedServingTest, ForeignProgramIsInvalidArgument) {
  auto qat8 = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr int8_model = CompileModel(*qat8).ValueOrDie();
  auto fp32 = TrainArtifact(SchemeRef::Fp32());
  CompiledModelPtr fp32_model = CompileModel(*fp32).ValueOrDie();
  auto sage = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kSage);
  CompiledModelPtr sage_model = CompileModel(*sage).ValueOrDie();
  ASSERT_TRUE(int8_model->info().lowered_int8);
  ASSERT_FALSE(fp32_model->info().lowered_int8);

  FrontierWorkspace ws;
  PredictScratch scratch;
  const std::vector<int64_t> targets = {3, 77, 150};
  // An int8 program on a model with no int8 lowering.
  auto int8_program = int8_model->BuildFrontierProgram(qat8->op, targets,
                                                       /*int8=*/true, &ws, 10.0);
  ASSERT_NE(int8_program, nullptr);
  Result<Tensor> r = fp32_model->PredictPruned(qat8->features, *int8_program,
                                               &scratch);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  // A GCN program (a different step count) on a SAGE model.
  auto gcn_program = int8_model->BuildFrontierProgram(qat8->op, targets,
                                                      /*int8=*/false, &ws, 10.0);
  ASSERT_NE(gcn_program, nullptr);
  r = sage_model->PredictPruned(qat8->features, *gcn_program, &scratch);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  // Even a second compile of the same artifact owns a different plan.
  CompiledModelPtr recompiled = CompileModel(*qat8).ValueOrDie();
  r = recompiled->PredictPruned(qat8->features, *gcn_program, &scratch);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  // The building model still serves it.
  EXPECT_TRUE(
      int8_model->PredictPruned(qat8->features, *gcn_program, &scratch).ok());
}

// Engine-level routing: small-graph guard disabled and the cost gate
// opened up so the 160-node test graph exercises the pruned path end to
// end (the calibrated default fraction is tuned for graphs where pruning
// actually pays; here we test routing mechanics, not the threshold).
BatcherOptions PrunedOptions(bool cache) {
  BatcherOptions options;
  options.enable_cache = cache;
  options.pruned_min_graph_nodes = 0;
  options.pruned_max_cost_fraction = 0.9;
  return options;
}

TEST(SubmitTest, SingleNodeRequestRoutesPrunedAndMatchesBitwise) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  InferenceEngine engine(PrunedOptions(/*cache=*/false));
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();

  Result<PredictResponse> response = engine.Submit(MakeRequest("m", "g", {42})).get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const PredictResponse& r = response.ValueOrDie();
  EXPECT_TRUE(r.pruned);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(r.frontier_rows, 0);
  for (int64_t c = 0; c < reference.cols(); ++c) {
    EXPECT_EQ(r.rows.at(0, c), reference.at(42, c));
  }
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.pruned_forwards, 1);
  EXPECT_EQ(stats.batcher.full_forwards, 0);
  EXPECT_EQ(stats.batcher.forwards, 1);
}

TEST(SubmitTest, AllNodesRequestRoutesFullAndStillHitsCache) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  InferenceEngine engine(PrunedOptions(/*cache=*/true));
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  // Empty node_ids = all rows: must take the full path and fill the cache
  // even though pruning is enabled.
  Result<PredictResponse> first = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.ValueOrDie().pruned);
  EXPECT_FALSE(first.ValueOrDie().cache_hit);
  Result<PredictResponse> repeat = engine.Submit(MakeRequest("m", "g")).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.ValueOrDie().cache_hit);
  // With valid cached full logits, even a point query is a row gather —
  // cheaper than any pruned forward.
  Result<PredictResponse> point = engine.Submit(MakeRequest("m", "g", {7})).get();
  ASSERT_TRUE(point.ok());
  EXPECT_TRUE(point.ValueOrDie().cache_hit);
  EXPECT_FALSE(point.ValueOrDie().pruned);

  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.pruned_forwards, 0);
  EXPECT_EQ(stats.batcher.full_forwards, 1);
  EXPECT_EQ(stats.batcher.cache_hits, 2);
}

// Regression: a request repeating a node id must get one row PER
// OCCURRENCE, in request order, on both the pruned path (where the forward
// dedupes ids into a sorted union) and the full path.
TEST(SubmitTest, DuplicateNodeIdsReturnOneRowPerOccurrence) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  Tensor reference = model->Predict(artifact->features, artifact->op).ValueOrDie();
  const std::vector<int64_t> ids = {7, 3, 7, 7, 159};

  for (bool pruning : {true, false}) {
    SCOPED_TRACE(pruning ? "pruned" : "full");
    BatcherOptions options = PrunedOptions(/*cache=*/false);
    options.enable_pruning = pruning;
    InferenceEngine engine(options);
    ASSERT_TRUE(engine.RegisterModel("m", model).ok());
    ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

    Result<PredictResponse> response =
        engine.Submit(MakeRequest("m", "g", ids)).get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const PredictResponse& r = response.ValueOrDie();
    EXPECT_EQ(r.pruned, pruning);
    EXPECT_EQ(r.node_ids, ids);
    ASSERT_EQ(r.rows.rows(), static_cast<int64_t>(ids.size()));
    for (size_t i = 0; i < ids.size(); ++i) {
      for (int64_t c = 0; c < reference.cols(); ++c) {
        EXPECT_EQ(r.rows.at(static_cast<int64_t>(i), c),
                  reference.at(ids[i], c))
            << "occurrence " << i;
      }
    }
  }
}

// One dispatcher drain carrying both a pruned group and full groups, fed by
// 8 concurrent clients: routing is per group, and each group's rows stay
// bitwise correct.
TEST(SubmitTest, MixedPrunedAndFullRoutingInOneDrain) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  auto other = TrainArtifact(SchemeRef::Fp32(), NodeModelKind::kGcn, /*seed=*/7);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();

  InferenceEngine engine(PrunedOptions(/*cache=*/false));
  ASSERT_TRUE(engine.RegisterModel("slow", model).ok());
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("stall", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
  ASSERT_TRUE(engine.RegisterGraph("g2", other->features, other->op).ok());

  Tensor ref_g = model->Predict(artifact->features, artifact->op).ValueOrDie();
  Tensor ref_g2 = model->Predict(other->features, other->op).ValueOrDie();
  const int64_t n = artifact->features.rows();

  // Stall the dispatcher, then race 8 clients into one drain: 4 point
  // queries on g (pruned group) and 4 all-rows queries on g2 (full group).
  std::future<Result<PredictResponse>> blocked =
      StallDispatcher(engine, "slow", "stall");

  constexpr int kClients = 8;
  std::vector<std::future<Result<PredictResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      futures[static_cast<size_t>(i)] =
          i % 2 == 0 ? engine.Submit(MakeRequest("m", "g", {(i * 17) % n}))
                     : engine.Submit(MakeRequest("m", "g2"));
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_TRUE(EndStall(&blocked).ok());

  for (int i = 0; i < kClients; ++i) {
    Result<PredictResponse> response = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const PredictResponse& r = response.ValueOrDie();
    if (i % 2 == 0) {
      EXPECT_TRUE(r.pruned) << "client " << i;
      const int64_t id = (i * 17) % n;
      for (int64_t c = 0; c < ref_g.cols(); ++c) {
        EXPECT_EQ(r.rows.at(0, c), ref_g.at(id, c)) << "client " << i;
      }
    } else {
      EXPECT_FALSE(r.pruned) << "client " << i;
      EXPECT_EQ(r.rows.data(), ref_g2.data()) << "client " << i;
    }
  }
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.pruned_forwards, 1);   // the 4 point queries
  EXPECT_EQ(stats.batcher.full_forwards, 2);     // the stall + the g2 group
  EXPECT_EQ(stats.per_model.at("m").successes, kClients);
}

// ---------------------------------------------------------------------------
// Locality-reordered graph serving.
// ---------------------------------------------------------------------------

using engine::GraphReorder;

BatcherOptions ReorderOptions(GraphReorder mode, bool cache) {
  BatcherOptions options = PrunedOptions(cache);
  options.graph_reorder = mode;
  return options;
}

// The reorder contract: a graph pinned in degree-sorted or RCM order serves
// values bitwise identical to the unordered registration — full responses
// in original row order, subsets (duplicate ids included) in request order,
// at fp32 and int8, with the cache on. SAGE covers the root-path gathers
// (its residual add reads rows the reorder maps must keep aligned).
TEST(ReorderedServingTest, ServingBitwiseEqualToUnorderedAcrossModes) {
  for (NodeModelKind kind : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    SCOPED_TRACE(kind == NodeModelKind::kGcn ? "gcn" : "sage");
    auto artifact = TrainArtifact(SchemeRef::Qat(8), kind);
    ASSERT_NE(artifact, nullptr);
    CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
    ASSERT_TRUE(model->info().lowered_int8);
    Tensor ref_fp32 = model->Predict(artifact->features, artifact->op).ValueOrDie();
    Tensor ref_int8 =
        model->PredictQuantized(artifact->features, artifact->op).ValueOrDie();
    const std::vector<int64_t> ids = {17, 3, 17, 159, 0};

    for (GraphReorder mode :
         {GraphReorder::kNone, GraphReorder::kDegree, GraphReorder::kRcm}) {
      SCOPED_TRACE(static_cast<int>(mode));
      BatcherOptions options = ReorderOptions(mode, /*cache=*/true);
      options.enable_pruning = false;  // full-path + cache coverage here
      InferenceEngine engine(options);
      ASSERT_TRUE(engine.RegisterModel("m", model).ok());
      ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());
      EXPECT_EQ(engine.ListGraphs().at("g").reordered, mode != GraphReorder::kNone);

      // Full fp32 response: original row order, bitwise.
      Result<PredictResponse> all = engine.Submit(MakeRequest("m", "g")).get();
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(all.ValueOrDie().rows.data(), ref_fp32.data());

      // Subset with duplicates, request order.
      Result<PredictResponse> subset =
          engine.Submit(MakeRequest("m", "g", ids)).get();
      ASSERT_TRUE(subset.ok()) << subset.status().ToString();
      for (size_t i = 0; i < ids.size(); ++i) {
        for (int64_t col = 0; col < ref_fp32.cols(); ++col) {
          EXPECT_EQ(subset.ValueOrDie().rows.at(static_cast<int64_t>(i), col),
                    ref_fp32.at(ids[i], col));
        }
      }

      // Cached point query gathers from internal-order logits and must still
      // translate.
      Result<PredictResponse> point =
          engine.Submit(MakeRequest("m", "g", {42})).get();
      ASSERT_TRUE(point.ok());
      EXPECT_TRUE(point.ValueOrDie().cache_hit);
      for (int64_t col = 0; col < ref_fp32.cols(); ++col) {
        EXPECT_EQ(point.ValueOrDie().rows.at(0, col), ref_fp32.at(42, col));
      }

      // Full int8 response: the integer executors see the permuted operator
      // and features; codes must be bitwise what the unordered graph yields.
      Result<PredictResponse> all_int8 =
          engine.Submit(MakeRequest("m", "g", {}, Precision::kInt8)).get();
      ASSERT_TRUE(all_int8.ok()) << all_int8.status().ToString();
      EXPECT_EQ(all_int8.ValueOrDie().precision, Precision::kInt8);
      EXPECT_EQ(all_int8.ValueOrDie().rows.data(), ref_int8.data());
    }
  }
}

// Pruned forwards on a reordered graph: targets are translated into the
// internal order before frontier analysis, and gathered rows translate back
// — bitwise equal to the unordered graph's rows on both precisions.
TEST(ReorderedServingTest, PrunedServingBitwiseEqualToUnordered) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  ASSERT_NE(artifact, nullptr);
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  Tensor ref_fp32 = model->Predict(artifact->features, artifact->op).ValueOrDie();
  Tensor ref_int8 =
      model->PredictQuantized(artifact->features, artifact->op).ValueOrDie();
  const std::vector<int64_t> ids = {42, 7, 42};

  for (GraphReorder mode : {GraphReorder::kDegree, GraphReorder::kRcm}) {
    SCOPED_TRACE(static_cast<int>(mode));
    InferenceEngine engine(ReorderOptions(mode, /*cache=*/false));
    ASSERT_TRUE(engine.RegisterModel("m", model).ok());
    ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

    for (Precision precision : {Precision::kFp32, Precision::kInt8}) {
      const Tensor& ref = precision == Precision::kInt8 ? ref_int8 : ref_fp32;
      Result<PredictResponse> response =
          engine.Submit(MakeRequest("m", "g", ids, precision)).get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const PredictResponse& r = response.ValueOrDie();
      EXPECT_TRUE(r.pruned);
      ASSERT_EQ(r.rows.rows(), static_cast<int64_t>(ids.size()));
      for (size_t i = 0; i < ids.size(); ++i) {
        for (int64_t col = 0; col < ref.cols(); ++col) {
          EXPECT_EQ(r.rows.at(static_cast<int64_t>(i), col), ref.at(ids[i], col))
              << "occurrence " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-precision forward-time stats.
// ---------------------------------------------------------------------------

TEST(PrecisionStatsTest, ForwardTimeSplitByResolvedPrecision) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  BatcherOptions options;
  options.enable_cache = false;  // every Submit runs a forward
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(engine.RegisterGraph("g", artifact->features, artifact->op).ok());

  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g", {}, Precision::kFp32)).get().ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g", {}, Precision::kInt8)).get().ok());
  ASSERT_TRUE(engine.Submit(MakeRequest("m", "g", {}, Precision::kInt8)).get().ok());

  InferenceEngine::Stats stats = engine.GetStats();
  const InferenceEngine::ModelStats& ms = stats.per_model.at("m");
  EXPECT_EQ(ms.fp32_forwards, 1);
  EXPECT_EQ(ms.int8_forwards, 2);
  EXPECT_GT(ms.fp32_forward_p50_us, 0.0);
  EXPECT_GT(ms.int8_forward_p50_us, 0.0);
  EXPECT_GE(ms.fp32_forward_p99_us, ms.fp32_forward_p50_us);
  EXPECT_GE(ms.int8_forward_p99_us, ms.int8_forward_p50_us);

  // The sync Predict wrapper counts into the fp32 histogram (it is always
  // exact fp32).
  ASSERT_TRUE(engine.Predict("m", artifact->features, artifact->op).ok());
  EXPECT_EQ(engine.GetStats().per_model.at("m").fp32_forwards, 2);
}

}  // namespace
}  // namespace mixq
