// Copyright 2026 MixQ-GNN Authors
// Test helper: a hand-crafted model bundle writer plus the baselines and
// trained artifacts the plan checker suites mutate.
//
// The writer mirrors the wire format of engine/model_bundle.cc (DESIGN.md
// §5) so tests can express programs and values the real lowering would
// never emit, with correct framing and CRCs: what LoadBundle then rejects,
// only the plan checker can have rejected.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/experiment.h"
#include "engine/execution_plan.h"
#include "engine/model_bundle.h"

namespace mixq {

inline QuantParams Sym8(float scale) {
  QuantParams p;
  p.scale = scale;
  p.zero_point = 0;
  p.bits = 8;
  p.symmetric = true;
  return p;
}

struct SpecComponent {
  bool identity = true;
  QuantParams params;
};

/// One PLAN linear as 2.x and 3.x write it: floats (`weight_fq`) for a weight
/// without codes, codes (`weight_q8`) for one with them — the loader derives
/// a coded linear's floats and packings itself.
struct SpecLinear {
  int64_t in = 0, out = 0, out_padded = 0;
  QuantParams weight_params;
  std::vector<float> weight_fq;
  std::vector<float> bias;
  std::vector<int8_t> weight_q8;
};

struct SpecStep {
  uint8_t op = 0;  ///< ExecutionPlan::Op numeric value
  int32_t src = 0, src2 = 0, dst = 0;
  int32_t linear = -1, adj = -1;
  int64_t cols = 0;
  SpecComponent quant;
};

struct PlanSpec {
  int64_t in_features = 4, out_dim = 3;
  int32_t num_buffers = 2, final_buffer = 0;
  std::vector<SpecLinear> linears;
  std::vector<SpecComponent> adj_quants;
  std::vector<SpecStep> steps;
  /// INFO's int8 flag; the loader refuses it unless it matches whether the
  /// plan derives an int8 program.
  bool has_int8 = false;
};

inline void PutParams(ByteWriter* w, const QuantParams& p) {
  w->PutF32(p.scale);
  w->PutI32(p.zero_point);
  w->PutI32(p.bits);
  w->PutU8(p.symmetric ? 1 : 0);
}

inline void PutComponent(ByteWriter* w, const SpecComponent& c) {
  w->PutU8(c.identity ? 1 : 0);
  PutParams(w, c.params);
}

inline void EncodePlan(const PlanSpec& s, ByteWriter* w) {
  w->PutI64(s.in_features);
  w->PutI64(s.out_dim);
  w->PutI32(s.num_buffers);
  w->PutI32(s.final_buffer);
  w->PutI64(static_cast<int64_t>(s.linears.size()));
  for (const SpecLinear& lin : s.linears) {
    w->PutI64(lin.in);
    w->PutI64(lin.out);
    w->PutI64(lin.out_padded);
    PutParams(w, lin.weight_params);
    w->PutPodVector(lin.weight_fq);
    w->PutPodVector(lin.bias);
    w->PutPodVector(lin.weight_q8);
  }
  w->PutI64(static_cast<int64_t>(s.adj_quants.size()));
  for (const SpecComponent& c : s.adj_quants) PutComponent(w, c);
  w->PutI64(static_cast<int64_t>(s.steps.size()));
  for (const SpecStep& st : s.steps) {
    w->PutU8(st.op);
    w->PutI32(st.src);
    w->PutI32(st.src2);
    w->PutI32(st.dst);
    w->PutI32(st.linear);
    w->PutI32(st.adj);
    w->PutI64(st.cols);
    PutComponent(w, st.quant);
  }
}

inline void AppendSection(ByteWriter* file, const char* tag,
                          const ByteWriter& payload) {
  file->PutBytes(tag, 4);
  file->PutU64(payload.size());
  file->PutU32(Crc32(payload.buffer().data(), payload.size()));
  file->PutBytes(payload.buffer().data(), payload.size());
}

inline std::vector<uint8_t> EncodeBundle(const PlanSpec& s) {
  ByteWriter file;
  file.PutBytes("MIXQBNDL", 8);
  file.PutU16(engine::kModelBundleFormatMajor);
  file.PutU16(engine::kBundleFormatMinor);
  file.PutU32(static_cast<uint32_t>(engine::BundleKind::kModel));

  ByteWriter info;
  info.PutU8(0);  // gcn
  info.PutString("crafted");
  info.PutF64(8.0);  // avg_bits
  info.PutI64(0);    // param_count
  info.PutI64(s.in_features);
  info.PutI64(s.out_dim);
  info.PutU8(s.has_int8 ? 1 : 0);
  info.PutU32(0);  // bit assignment entries
  AppendSection(&file, "INFO", info);

  ByteWriter plan;
  EncodePlan(s, &plan);
  AppendSection(&file, "PLAN", plan);
  return file.buffer();
}

/// Path under the test temp dir, unique per process so suites running in
/// parallel never share a file; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + "mixq_" + std::to_string(getpid()) + "_" +
              name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline Result<engine::CompiledModelPtr> LoadModelSpec(const PlanSpec& s,
                                                      const std::string& name) {
  TempFile file(name);
  EXPECT_TRUE(WriteFileAtomic(file.path(), EncodeBundle(s)).ok());
  return engine::LoadBundle(file.path());
}

inline Status LoadSpec(const PlanSpec& s, const std::string& name) {
  return LoadModelSpec(s, name).status();
}

inline void ExpectRejected(const PlanSpec& s, const std::string& name,
                           const std::string& message_substr) {
  Status status = LoadSpec(s, name);
  ASSERT_FALSE(status.ok()) << name << ": crafted-bad bundle loaded";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find(message_substr), std::string::npos)
      << name << ": expected '" << message_substr << "' in: "
      << status.ToString();
}

/// Recomputes and rewrites the stored checksum of `section` so a payload
/// mutation survives the CRC gate — the adversary model the plan checker
/// exists for.
inline void RepairCrc(std::vector<uint8_t>* bytes,
                      const engine::BundleSection& section) {
  const uint32_t crc =
      Crc32(bytes->data() + section.offset, static_cast<size_t>(section.size));
  for (int i = 0; i < 4; ++i) {
    (*bytes)[static_cast<size_t>(section.offset) - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

/// A minimal well-formed fp32-only program, shaped like one GCN layer:
/// quantize(input)->b0, matmul(b0)->b1, spmm(b1)->b0. Tests mutate exactly
/// one aspect of it.
inline PlanSpec BaselineFp32() {
  PlanSpec s;
  s.in_features = 4;
  s.out_dim = 3;
  s.num_buffers = 2;
  s.final_buffer = 0;

  SpecLinear lin;
  lin.in = 4;
  lin.out = 3;
  lin.out_padded = 3;
  lin.weight_params = Sym8(0.1f);
  lin.weight_fq.assign(static_cast<size_t>(lin.in * lin.out_padded), 0.25f);
  s.linears.push_back(lin);

  SpecComponent adj;
  adj.identity = true;
  s.adj_quants.push_back(adj);

  SpecStep quantize;
  quantize.op = 0;  // kQuantize
  quantize.src = engine::ExecutionPlan::kInput;
  quantize.dst = 0;
  quantize.cols = 4;
  quantize.quant = {false, Sym8(0.05f)};
  s.steps.push_back(quantize);

  SpecStep matmul;
  matmul.op = 1;  // kMatMul
  matmul.src = 0;
  matmul.dst = 1;
  matmul.linear = 0;
  matmul.cols = 3;
  s.steps.push_back(matmul);

  SpecStep spmm;
  spmm.op = 2;  // kSpmm
  spmm.src = 1;
  spmm.dst = 0;
  spmm.adj = 0;
  spmm.cols = 3;
  s.steps.push_back(spmm);
  return s;
}

/// In-place quantize of `buf` onto `p`: the requantization point that
/// makes the producer before it an int8 step.
inline SpecStep QuantizeInPlace(int32_t buf, int64_t cols, const QuantParams& p) {
  SpecStep q;
  q.op = 0;  // kQuantize
  q.src = q.dst = buf;
  q.cols = cols;
  q.quant = {false, p};
  return q;
}

/// BaselineFp32 with every quantize point an int8 grid, so the plan derives
/// the integer program quantize_input->b0, gemm_requant(b0)->b1,
/// spmm_requant(b1)->b0: the GEMM and the SpMM each get their in-place
/// quantize, the adjacency an 8-bit grid, and the linear codes (3 at scale
/// 0.1) instead of floats, so both executors serve the weight 3 * 0.1f.
inline PlanSpec BaselineInt8() {
  PlanSpec s = BaselineFp32();
  s.has_int8 = true;

  SpecLinear& lin = s.linears[0];
  lin.weight_fq.clear();
  lin.weight_q8.assign(static_cast<size_t>(lin.in * lin.out_padded), 3);

  s.adj_quants[0] = {false, Sym8(0.02f)};
  // steps: quantize(0.05), matmul, [quantize 0.08], spmm, [quantize 0.09]
  s.steps.insert(s.steps.begin() + 2, QuantizeInPlace(1, 3, Sym8(0.08f)));
  s.steps.push_back(QuantizeInPlace(0, 3, Sym8(0.09f)));
  return s;
}

/// A tiny seeded citation graph with a quickly trained 2-layer model on it:
/// real lowerings for the suites to compile, bundle and mutate.
inline std::shared_ptr<ModelArtifact> TrainArtifact(const SchemeRef& scheme,
                                                    NodeModelKind model) {
  CitationConfig c;
  c.name = "checker-tiny";
  c.num_nodes = 120;
  c.num_classes = 3;
  c.feature_dim = 16;
  c.avg_degree = 3.0;
  c.homophily = 0.8;
  c.train_per_class = 8;
  c.val_count = 20;
  c.test_count = 40;
  c.seed = 7;

  NodeExperimentConfig cfg;
  cfg.model = model;
  cfg.hidden = 10;
  cfg.num_layers = 2;
  cfg.train.epochs = 6;
  cfg.train.lr = 0.05f;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(GenerateCitation(c), cfg, scheme);
  spec.seed = 7;
  spec.keep_artifact = true;
  Result<Experiment> experiment = Experiment::Create(std::move(spec));
  EXPECT_TRUE(experiment.ok()) << experiment.status().ToString();
  Result<ExperimentReport> report = experiment.ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ValueOrDie().artifact;
}

}  // namespace mixq
