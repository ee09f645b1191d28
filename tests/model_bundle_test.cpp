// Copyright 2026 MixQ-GNN Authors
// Tests for portable model bundles (engine/model_bundle.h): bitwise
// round-trip parity across every lowerable registry scheme on both
// backbones, serving a loaded model through the full Submit surface
// (batched, cached, pruned), graph bundle round-trips, manifest inspection,
// and the hardened load paths — truncation, bad magic, CRC mismatches,
// future-version rejection, and a fuzz-style sweep that corrupts every
// header byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "core/experiment.h"
#include "engine/inference_engine.h"
#include "engine/model_bundle.h"

namespace mixq {
namespace {

using engine::BatcherOptions;
using engine::BundleKind;
using engine::BundleManifest;
using engine::BundleSection;
using engine::CompiledModelPtr;
using engine::CompileModel;
using engine::GraphBundle;
using engine::InferenceEngine;
using engine::InspectBundle;
using engine::LoadBundle;
using engine::LoadGraph;
using engine::Precision;
using engine::PredictRequest;
using engine::PredictResponse;
using engine::SaveBundle;
using engine::SaveGraph;

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "bundle-tiny";
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
  cfg.train.epochs = 10;
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

/// Unique path under the test temp dir; the file is removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + "mixq_bundle_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every scheme whose eval behaviour lowers to a flat plan — the set the
/// acceptance criteria require bundles to round-trip bitwise.
std::vector<std::pair<std::string, SchemeRef>> LowerableSchemes() {
  SchemeRef mixq = SchemeRef::MixQ(0.05, {2, 4, 8});
  mixq.params.SetInt("search_epochs", 5);
  return {
      {"fp32", SchemeRef::Fp32()},
      {"qat8", SchemeRef::Qat(8)},
      {"qat4", SchemeRef::Qat(4)},
      {"dq8", SchemeRef::Dq(8)},
      {"fixed", SchemeRef::Fixed({{"model/x", 8}})},
      {"random", SchemeRef::Random()},
      {"random_int8", SchemeRef::RandomInt8()},
      {"mixq", mixq},
  };
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.data(), b.data()) << what << " diverged";
}

// The acceptance contract: LoadBundle(SaveBundle(m)) predicts bitwise
// identically to m — Predict for every lowerable scheme, PredictQuantized
// whenever the int8 plan exists — on both backbones.
TEST(ModelBundleTest, RoundTripBitwiseParityAcrossSchemesAndBackbones) {
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const auto& [label, ref] : LowerableSchemes()) {
      SCOPED_TRACE(std::string(backbone == NodeModelKind::kGcn ? "gcn/" : "sage/") +
                   label);
      auto artifact = TrainArtifact(ref, backbone);
      ASSERT_NE(artifact, nullptr);
      CompiledModelPtr original = CompileModel(*artifact).ValueOrDie();

      TempFile file("roundtrip.mqb");
      ASSERT_TRUE(SaveBundle(*original, file.path()).ok());
      Result<CompiledModelPtr> loaded = LoadBundle(file.path());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const CompiledModelPtr& model = loaded.ValueOrDie();

      // Metadata survives.
      EXPECT_EQ(model->info().scheme_label, original->info().scheme_label);
      EXPECT_EQ(model->info().bit_assignment, original->info().bit_assignment);
      EXPECT_EQ(model->info().param_count, original->info().param_count);
      EXPECT_EQ(model->info().in_features, original->info().in_features);
      EXPECT_EQ(model->info().out_dim, original->info().out_dim);
      EXPECT_EQ(model->info().lowered_int8, original->info().lowered_int8);

      Tensor want = original->Predict(artifact->features, artifact->op).ValueOrDie();
      Tensor got = model->Predict(artifact->features, artifact->op).ValueOrDie();
      ExpectBitwiseEqual(got, want, "Predict");

      if (original->info().lowered_int8) {
        Tensor want_q =
            original->PredictQuantized(artifact->features, artifact->op)
                .ValueOrDie();
        Tensor got_q =
            model->PredictQuantized(artifact->features, artifact->op).ValueOrDie();
        ExpectBitwiseEqual(got_q, want_q, "PredictQuantized");
      }
    }
  }
}

TEST(ModelBundleTest, PrunedForwardMatchesOriginalBitwise) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr original = CompileModel(*artifact).ValueOrDie();
  TempFile file("pruned.mqb");
  ASSERT_TRUE(SaveBundle(*original, file.path()).ok());
  CompiledModelPtr loaded = LoadBundle(file.path()).ValueOrDie();

  Tensor full = original->Predict(artifact->features, artifact->op).ValueOrDie();
  for (bool int8 : {false, true}) {
    engine::PredictScratch scratch;
    auto program = loaded->BuildFrontierProgram(artifact->op, {7, 42}, int8,
                                                nullptr, /*max_cost_fraction=*/1.1);
    ASSERT_NE(program, nullptr) << "int8=" << int8;
    Result<Tensor> rows =
        loaded->PredictPruned(artifact->features, *program, &scratch);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    Tensor want = int8 ? original->PredictQuantized(artifact->features, artifact->op)
                             .ValueOrDie()
                       : full;
    const std::vector<int64_t> targets = {7, 42};
    for (size_t i = 0; i < targets.size(); ++i) {
      for (int64_t c = 0; c < want.cols(); ++c) {
        EXPECT_EQ(rows.ValueOrDie().at(static_cast<int64_t>(i), c),
                  want.at(targets[i], c))
            << "int8=" << int8 << " row " << targets[i] << " col " << c;
      }
    }
  }
}

// A bundle-loaded model must serve through the whole engine surface with
// identical results: coalesced batches, the result cache (and its
// invalidation on ReplaceGraph), and the receptive-field-pruned route.
TEST(ModelBundleTest, LoadedModelServesThroughSubmit) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr original = CompileModel(*artifact).ValueOrDie();
  TempFile model_file("serve.mqb");
  TempFile graph_file("serve-graph.mqb");
  ASSERT_TRUE(SaveBundle(*original, model_file.path()).ok());
  ASSERT_TRUE(SaveGraph(artifact->features, artifact->op, graph_file.path()).ok());

  BatcherOptions options;
  options.pruned_min_graph_nodes = 0;  // tiny test graph: let pruning engage
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.LoadModelFromFile("m", model_file.path()).ok());
  ASSERT_TRUE(engine.LoadGraphFromFile("g", graph_file.path()).ok());

  Tensor reference = original->Predict(artifact->features, artifact->op).ValueOrDie();

  auto make_request = [](std::vector<int64_t> ids) {
    PredictRequest request;
    request.model = "m";
    request.graph = "g";
    request.node_ids = std::move(ids);
    request.precision = Precision::kFp32;
    return request;
  };

  // Pruned route: a point query must not pay (or cache) a full forward.
  Result<PredictResponse> pruned = engine.Submit(make_request({42})).get();
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_TRUE(pruned.ValueOrDie().pruned);
  for (int64_t c = 0; c < reference.cols(); ++c) {
    EXPECT_EQ(pruned.ValueOrDie().rows.at(0, c), reference.at(42, c));
  }

  // Full + cached route.
  Result<PredictResponse> full = engine.Submit(make_request({})).get();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full.ValueOrDie().cache_hit);
  ExpectBitwiseEqual(full.ValueOrDie().rows, reference, "full forward");
  Result<PredictResponse> repeat = engine.Submit(make_request({})).get();
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.ValueOrDie().cache_hit);

  // ReplaceGraph bumps the registry version: the next response must not be
  // served from the stale cache entry.
  GraphBundle reloaded = LoadGraph(graph_file.path()).ValueOrDie();
  ASSERT_TRUE(
      engine.ReplaceGraph("g", reloaded.features, reloaded.op).ok());
  Result<PredictResponse> after_replace = engine.Submit(make_request({})).get();
  ASSERT_TRUE(after_replace.ok());
  EXPECT_FALSE(after_replace.ValueOrDie().cache_hit);
  ExpectBitwiseEqual(after_replace.ValueOrDie().rows, reference,
                     "post-replace forward");

  // Coalesced concurrent single-node clients, every row bitwise.
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const int64_t node = (t * 37 + i * 11) % reference.rows();
        Result<PredictResponse> response = engine.Submit(make_request({node})).get();
        if (!response.ok()) {
          ++mismatches[t];
          continue;
        }
        for (int64_t c = 0; c < reference.cols(); ++c) {
          if (response.ValueOrDie().rows.at(0, c) != reference.at(node, c)) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kClients; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(ModelBundleTest, GraphBundleRoundTripsBitwise) {
  auto artifact = TrainArtifact(SchemeRef::Fp32());
  TempFile file("graph.mqb");
  ASSERT_TRUE(SaveGraph(artifact->features, artifact->op, file.path()).ok());

  Result<GraphBundle> loaded = LoadGraph(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GraphBundle& g = loaded.ValueOrDie();
  const CsrMatrix& want = artifact->op->matrix();
  const CsrMatrix& got = g.op->matrix();
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
  ExpectBitwiseEqual(g.features, artifact->features, "features");

  // Save-side validation.
  EXPECT_EQ(SaveGraph(Tensor(), artifact->op, file.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SaveGraph(artifact->features, nullptr, file.path()).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, EngineFileLoadErrorPaths) {
  auto artifact = TrainArtifact(SchemeRef::Qat(4));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  TempFile model_file("errors.mqb");
  TempFile graph_file("errors-graph.mqb");
  ASSERT_TRUE(SaveBundle(*model, model_file.path()).ok());
  ASSERT_TRUE(SaveGraph(artifact->features, artifact->op, graph_file.path()).ok());

  InferenceEngine engine;
  EXPECT_EQ(engine.LoadModelFromFile("m", "/nonexistent/model.mqb").code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(engine.LoadModelFromFile("m", model_file.path()).ok());
  // Duplicate name: same error RegisterModel reports.
  EXPECT_EQ(engine.LoadModelFromFile("m", model_file.path()).code(),
            StatusCode::kInvalidArgument);
  // Kind confusion is a typed error, not a misparse.
  EXPECT_EQ(engine.LoadModelFromFile("m2", graph_file.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.LoadGraphFromFile("g", model_file.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.LoadGraphFromFile("g", graph_file.path()).ok());

  // The loaded pair serves.
  PredictRequest request;
  request.model = "m";
  request.graph = "g";
  request.node_ids = {1};
  Result<PredictResponse> response = engine.Submit(std::move(request)).get();
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

TEST(ModelBundleTest, InspectReportsManifest) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8));
  CompiledModelPtr model = CompileModel(*artifact).ValueOrDie();
  TempFile model_file("inspect.mqb");
  TempFile graph_file("inspect-graph.mqb");
  ASSERT_TRUE(SaveBundle(*model, model_file.path()).ok());
  ASSERT_TRUE(SaveGraph(artifact->features, artifact->op, graph_file.path()).ok());

  Result<BundleManifest> manifest = InspectBundle(model_file.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const BundleManifest& m = manifest.ValueOrDie();
  EXPECT_EQ(m.format_major, engine::kBundleFormatMajor);
  EXPECT_EQ(m.kind, BundleKind::kModel);
  EXPECT_EQ(m.info.scheme_label, model->info().scheme_label);
  EXPECT_EQ(m.info.bit_assignment, model->info().bit_assignment);
  EXPECT_TRUE(m.info.lowered_int8);
  ASSERT_EQ(m.sections.size(), 3u);  // INFO, PLAN, IPLN
  EXPECT_EQ(m.sections[0].tag, "INFO");
  EXPECT_EQ(m.sections[1].tag, "PLAN");
  EXPECT_EQ(m.sections[2].tag, "IPLN");
  for (const BundleSection& s : m.sections) EXPECT_GT(s.size, 0u);

  Result<BundleManifest> graph_manifest = InspectBundle(graph_file.path());
  ASSERT_TRUE(graph_manifest.ok());
  EXPECT_EQ(graph_manifest.ValueOrDie().kind, BundleKind::kGraph);
  EXPECT_EQ(graph_manifest.ValueOrDie().graph_nodes, artifact->features.rows());
  EXPECT_EQ(graph_manifest.ValueOrDie().graph_nnz, artifact->op->nnz());
}

// ---- hardened load paths ---------------------------------------------------

class BundleCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    artifact_ = TrainArtifact(SchemeRef::Qat(8));
    model_ = CompileModel(*artifact_).ValueOrDie();
    file_ = std::make_unique<TempFile>("corrupt.mqb");
    ASSERT_TRUE(SaveBundle(*model_, file_->path()).ok());
    ASSERT_TRUE(ReadFileBytes(file_->path(), &bytes_).ok());
    manifest_ = InspectBundle(file_->path()).MoveValueOrDie();
  }

  /// Writes `mutated` to a scratch path and returns LoadBundle's status.
  Status LoadMutated(const std::vector<uint8_t>& mutated) {
    TempFile mutated_file("mutated.mqb");
    EXPECT_TRUE(WriteFileAtomic(mutated_file.path(), mutated).ok());
    return LoadBundle(mutated_file.path()).status();
  }

  std::shared_ptr<ModelArtifact> artifact_;
  CompiledModelPtr model_;
  std::unique_ptr<TempFile> file_;
  std::vector<uint8_t> bytes_;
  BundleManifest manifest_;
};

TEST_F(BundleCorruptionTest, TruncationAtEveryBoundaryFails) {
  // Every prefix — probed at a stride plus all section boundaries — must
  // come back as a typed error, never a crash or a silent success.
  std::vector<size_t> cut_points;
  for (size_t cut = 0; cut < bytes_.size(); cut += 97) cut_points.push_back(cut);
  for (const BundleSection& s : manifest_.sections) {
    cut_points.push_back(static_cast<size_t>(s.offset) - 16);
    cut_points.push_back(static_cast<size_t>(s.offset));
    cut_points.push_back(static_cast<size_t>(s.offset + s.size) - 1);
  }
  for (size_t cut : cut_points) {
    std::vector<uint8_t> mutated(bytes_.begin(),
                                 bytes_.begin() + static_cast<long>(cut));
    Status status = LoadMutated(mutated);
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

TEST_F(BundleCorruptionTest, BadMagicRejected) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] ^= 0xFF;
  EXPECT_EQ(LoadMutated(mutated).code(), StatusCode::kInvalidArgument);
}

TEST_F(BundleCorruptionTest, FutureMajorVersionRejected) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[8] = 0xFF;  // format major lives at offset 8 (little-endian u16)
  EXPECT_EQ(LoadMutated(mutated).code(), StatusCode::kNotImplemented);
}

TEST_F(BundleCorruptionTest, PayloadCorruptionFailsChecksum) {
  for (const BundleSection& s : manifest_.sections) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[static_cast<size_t>(s.offset + s.size / 2)] ^= 0x01;
    Status status = LoadMutated(mutated);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << s.tag;
    EXPECT_NE(status.message().find("checksum"), std::string::npos) << s.tag;
  }
}

TEST_F(BundleCorruptionTest, BitFlipInEverySectionHeaderByteFails) {
  // The fuzz sweep of the satellite task: each section header is 16 bytes
  // (tag, size, crc) starting 16 bytes before its payload. Flipping any of
  // them must produce a typed error — a flipped tag demotes a required
  // section to an ignorable unknown one, a flipped size lands on truncation
  // or a checksum mismatch, a flipped checksum is a mismatch by definition.
  for (const BundleSection& s : manifest_.sections) {
    for (size_t byte = 0; byte < 16; ++byte) {
      std::vector<uint8_t> mutated = bytes_;
      mutated[static_cast<size_t>(s.offset) - 16 + byte] ^= 0xFF;
      Status status = LoadMutated(mutated);
      EXPECT_FALSE(status.ok())
          << s.tag << " header byte " << byte << " flip loaded";
    }
  }
}

TEST_F(BundleCorruptionTest, FileHeaderBitFlipsFail) {
  // Magic (0-7), format major (8-9), and kind (12-15) flips must all be
  // typed errors. The minor version (10-11) is exempt by design: newer
  // minors are forward-compatible and load fine.
  for (size_t byte : {size_t{0}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
                      size_t{12}, size_t{13}, size_t{14}, size_t{15}}) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[byte] ^= 0xFF;
    EXPECT_FALSE(LoadMutated(mutated).ok()) << "header byte " << byte;
  }
  std::vector<uint8_t> newer_minor = bytes_;
  newer_minor[10] ^= 0xFF;
  EXPECT_TRUE(LoadMutated(newer_minor).ok()) << "newer minor must stay loadable";
}

TEST_F(BundleCorruptionTest, UnknownTrailingSectionIgnored) {
  // Forward compatibility: a future minor may append sections this binary
  // does not know; they must be skipped, not rejected.
  std::vector<uint8_t> mutated = bytes_;
  const char tag[4] = {'X', 'T', 'R', 'A'};
  const uint8_t payload[4] = {1, 2, 3, 4};
  mutated.insert(mutated.end(), tag, tag + 4);
  const uint64_t size = sizeof(payload);
  for (int i = 0; i < 8; ++i) {
    mutated.push_back(static_cast<uint8_t>(size >> (8 * i)));
  }
  const uint32_t crc = Crc32(payload, sizeof(payload));
  for (int i = 0; i < 4; ++i) {
    mutated.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  mutated.insert(mutated.end(), payload, payload + sizeof(payload));

  TempFile extended("extended.mqb");
  ASSERT_TRUE(WriteFileAtomic(extended.path(), mutated).ok());
  Result<CompiledModelPtr> loaded = LoadBundle(extended.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Tensor want = model_->Predict(artifact_->features, artifact_->op).ValueOrDie();
  Tensor got = loaded.ValueOrDie()
                   ->Predict(artifact_->features, artifact_->op)
                   .ValueOrDie();
  EXPECT_EQ(got.data(), want.data());
}

}  // namespace
}  // namespace mixq
