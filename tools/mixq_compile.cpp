// Copyright 2026 MixQ-GNN Authors
// mixq_compile — the offline half of train-once/serve-anywhere: takes an
// experiment spec on the command line, runs search + quantized training
// through the Experiment facade, compiles the artifact, and writes a
// portable model bundle (plus, optionally, the training graph as a graph
// bundle and a logit digest for cross-process parity checks).
//
//   mixq_compile --scheme qat8 --out model.mqb
//       [--graph-out graph.mqb] [--digest-out model.digest]
//       [--model gcn|sage] [--nodes N] [--classes C] [--features F]
//       [--hidden H] [--layers L] [--epochs E] [--search-epochs E]
//       [--lambda L] [--seed S]
//
// Schemes: fp32, qat<bits>, dq<bits>, fixed<bits> (uniform width via the
// per-component scheme), random, random_int8, mixq, mixq_dq. A scheme that
// does not lower (a 32-bit grid, e.g. fixed32 or qat32) fails CompileModel
// with kNotImplemented: the tool prints the status, writes no file and exits
// 1.
//
// The digest file holds one line per served mode: "fp32 <fnv1a64-hex>" and,
// when the model lowers to the all-integer executor, "int8 <fnv1a64-hex>" —
// the hash of the full-graph logits on the training graph. A serving
// process that loads the bundle + graph bundle recomputes the same hashes
// (examples/offline_deploy.cpp) to prove bitwise parity across processes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/binary_io.h"
#include "core/experiment.h"
#include "engine/model_bundle.h"

using namespace mixq;

namespace {

/// Every flag the tool accepts; anything else is an error, not a silently
/// ignored typo that ships the wrong artifact.
const char* const kKnownFlags[] = {
    "scheme", "out",    "graph-out", "digest-out",    "model",  "nodes",
    "classes", "features", "hidden",  "layers", "epochs", "search-epochs",
    "lambda", "seed",
};

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out model.mqb [--scheme qat8] [--graph-out g.mqb] "
               "[--digest-out d] [--model gcn|sage] [--nodes N] [--classes C] "
               "[--features F] [--hidden H] [--layers L] [--epochs E] "
               "[--search-epochs E] [--lambda L] [--seed S]\n",
               argv0);
  return 2;
}

/// Parses the --scheme shorthand into a registry SchemeRef.
Result<SchemeRef> ParseScheme(const std::string& s, double lambda,
                              int64_t search_epochs) {
  auto suffix_bits = [&](size_t prefix_len) {
    return static_cast<int>(std::atoi(s.c_str() + prefix_len));
  };
  if (s == "fp32") return SchemeRef::Fp32();
  if (s == "random") return SchemeRef::Random();
  if (s == "random_int8") return SchemeRef::RandomInt8();
  if (s == "mixq" || s == "mixq_dq") {
    SchemeRef ref = s == "mixq" ? SchemeRef::MixQ(lambda) : SchemeRef::MixQDq(lambda);
    ref.params.SetInt("search_epochs", search_epochs);
    return ref;
  }
  if (s.rfind("qat", 0) == 0 && s.size() > 3) {
    const int bits = suffix_bits(3);
    if (bits >= 1 && bits <= 32) return SchemeRef::Qat(bits);
  }
  if (s.rfind("dq", 0) == 0 && s.size() > 2) {
    const int bits = suffix_bits(2);
    if (bits >= 1 && bits <= 32) return SchemeRef::Dq(bits);
  }
  if (s.rfind("fixed", 0) == 0 && s.size() > 5) {
    const int bits = suffix_bits(5);
    if (bits >= 1 && bits <= 32) {
      // Uniform per-component width: every component the model registers
      // falls back to default_bits.
      SchemeRef ref = SchemeRef::Fixed({{"model/x", bits}});
      ref.params.SetInt("default_bits", bits);
      return ref;
    }
  }
  return Status::InvalidArgument(
      "unknown scheme '" + s +
      "' (try fp32, qatN, dqN, fixedN, random, random_int8, mixq, mixq_dq)");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const std::string key = argv[i] + 2;
    bool known = false;
    for (const char* flag : kKnownFlags) known = known || key == flag;
    if (!known) {
      std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
      return Usage(argv[0]);
    }
    flags.values[key] = argv[i + 1];
    ++i;
  }
  const std::string out_path = flags.Get("out", "");
  if (out_path.empty()) return Usage(argv[0]);

  // ---- dataset + spec -------------------------------------------------------
  CitationConfig data_cfg;
  data_cfg.name = "mixq-compile";
  data_cfg.num_nodes = flags.GetInt("nodes", 600);
  data_cfg.num_classes = flags.GetInt("classes", 4);
  data_cfg.feature_dim = flags.GetInt("features", 48);
  data_cfg.avg_degree = 3.0;
  data_cfg.homophily = 0.82;
  data_cfg.train_per_class = 8;
  data_cfg.val_count = data_cfg.num_nodes / 5;
  data_cfg.test_count = data_cfg.num_nodes / 5;
  data_cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 21));

  NodeExperimentConfig train_cfg;
  const std::string model_kind = flags.Get("model", "gcn");
  if (model_kind != "gcn" && model_kind != "sage") return Usage(argv[0]);
  train_cfg.model =
      model_kind == "gcn" ? NodeModelKind::kGcn : NodeModelKind::kSage;
  train_cfg.hidden = flags.GetInt("hidden", 32);
  train_cfg.num_layers = static_cast<int>(flags.GetInt("layers", 2));
  train_cfg.train.epochs = static_cast<int>(flags.GetInt("epochs", 40));
  train_cfg.train.lr = 0.02f;

  Result<SchemeRef> scheme =
      ParseScheme(flags.Get("scheme", "qat8"), flags.GetDouble("lambda", 0.05),
                  flags.GetInt("search-epochs", 30));
  if (!scheme.ok()) {
    std::fprintf(stderr, "error: %s\n", scheme.status().ToString().c_str());
    return 2;
  }

  ExperimentSpec spec = ExperimentSpec::NodeClassification(
      GenerateCitation(data_cfg), train_cfg, scheme.ValueOrDie());
  spec.seed = data_cfg.seed;
  spec.keep_artifact = true;

  // ---- train + compile ------------------------------------------------------
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  MIXQ_CHECK(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  MIXQ_CHECK(report.ok()) << report.status().ToString();
  const ExperimentReport& r = report.ValueOrDie();
  std::printf("trained [%s]: test accuracy %.1f%%, %.2f avg bits\n",
              r.scheme_label.c_str(), r.node.test_metric * 100.0,
              r.node.avg_bits);

  Result<engine::CompiledModelPtr> compiled = engine::CompileModel(*r.artifact);
  if (!compiled.ok()) {
    std::fprintf(stderr, "error: CompileModel: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const engine::CompiledModelPtr& model = compiled.ValueOrDie();

  // ---- bundle out -----------------------------------------------------------
  Status saved = engine::SaveBundle(*model, out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: SaveBundle: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote model bundle %s\n", out_path.c_str());

  const std::string graph_out = flags.Get("graph-out", "");
  if (!graph_out.empty()) {
    Status graph_saved =
        engine::SaveGraph(r.artifact->features, r.artifact->op, graph_out);
    if (!graph_saved.ok()) {
      std::fprintf(stderr, "error: SaveGraph: %s\n",
                   graph_saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote graph bundle %s\n", graph_out.c_str());
  }

  const std::string digest_out = flags.Get("digest-out", "");
  if (!digest_out.empty()) {
    Result<Tensor> fp32 = model->Predict(r.artifact->features, r.artifact->op);
    MIXQ_CHECK(fp32.ok()) << fp32.status().ToString();
    const std::vector<float>& logits = fp32.ValueOrDie().data();
    std::string text = engine::FormatLogitDigestLine(
        "fp32", Fnv1a64(logits.data(), logits.size() * sizeof(float)));
    if (model->info().lowered_int8) {
      Result<Tensor> int8 =
          model->PredictQuantized(r.artifact->features, r.artifact->op);
      MIXQ_CHECK(int8.ok()) << int8.status().ToString();
      const std::vector<float>& q = int8.ValueOrDie().data();
      text += engine::FormatLogitDigestLine(
          "int8", Fnv1a64(q.data(), q.size() * sizeof(float)));
    }
    std::vector<uint8_t> bytes(text.begin(), text.end());
    Status digest_saved = WriteFileAtomic(digest_out, bytes);
    MIXQ_CHECK(digest_saved.ok()) << digest_saved.ToString();
    std::printf("wrote logit digest %s\n", digest_out.c_str());
  }
  return 0;
}
