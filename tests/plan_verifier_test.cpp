// Copyright 2026 MixQ-GNN Authors
// Tests for the plan checker's structural rules (engine/plan_verifier.h).
//
// The crafted-bad-bundle suite is the core: each test hand-writes a bundle
// whose bytes are structurally valid at the codec level — correct framing,
// correct CRCs, every index within its table — but whose *program* violates
// exactly one invariant of DESIGN.md §6. LoadBundle must reject every one
// with a typed, step-indexed kInvalidArgument, because these are precisely
// the payloads that would drive the unchecked executors out of bounds (or
// silently mis-serve) if they ever reached them. A fuzz regression then
// mutates real bundle payloads and REPAIRS the section checksum, proving
// the CRC is not the last line of defense.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "engine/frontier_plan.h"
#include "engine/plan_verifier.h"
#include "tensor/gemm.h"
#include "tests/crafted_bundle.h"

namespace mixq {
namespace {

using engine::BundleCheck;
using engine::BundleManifest;
using engine::BundleSection;
using engine::CompiledModelPtr;
using engine::CompileModel;
using engine::ExecutionPlan;
using engine::FrontierProgram;
using engine::InspectBundle;
using engine::LoadBundle;
using engine::SaveBundle;
using engine::VerifyBundleFile;
using engine::VerifyFrontierProgram;

// ---- crafted bundles: the baselines themselves must load -------------------
// Without this, every rejection below could be the framing being wrong
// rather than the verifier working.

TEST(PlanVerifierTest, CraftedBaselineFp32Loads) {
  Status status = LoadSpec(BaselineFp32(), "base_fp32.mqb");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PlanVerifierTest, CraftedBaselineInt8Loads) {
  Result<CompiledModelPtr> model = LoadModelSpec(BaselineInt8(), "base_int8.mqb");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // The codes are the weight: the fp32 executor's floats are derived from
  // them, so both routes serve 3 * 0.1f.
  const engine::LoweredLinear& lin = model.ValueOrDie()->plan()->linears()[0];
  ASSERT_EQ(lin.weight_fq.size(), lin.weight_q8.size());
  for (float w : lin.weight_fq) EXPECT_EQ(w, 3 * 0.1f);
}

// ---- one test per invariant class ------------------------------------------

// 1. Dataflow: a step reads a scratch buffer no earlier step wrote. The
// executor would consume uninitialized memory.
TEST(PlanVerifierTest, RejectsReadOfNeverWrittenBuffer) {
  PlanSpec s = BaselineFp32();
  s.steps[1].src = 1;  // matmul reads b1 before anything writes it
  ExpectRejected(s, "unwritten.mqb", "before any step writes it");
}

// 2. GEMM shape chain: the step's declared width disagrees with the
// linear's output width, desynchronizing every later buffer size.
TEST(PlanVerifierTest, RejectsGemmWidthMismatch) {
  PlanSpec s = BaselineFp32();
  s.steps[1].cols = 2;
  ExpectRejected(s, "gemm_width.mqb", "linear 0 produces 3");
}

// 3. SpMM preserves width; a declared change would make the executor write
// rows of the wrong stride.
TEST(PlanVerifierTest, RejectsSpmmWidthChange) {
  PlanSpec s = BaselineFp32();
  s.steps[2].cols = 2;
  ExpectRejected(s, "spmm_width.mqb", "SpMM preserves width");
}

// 4. Final output contract: the buffer Predict copies out must hold exactly
// CompiledModelInfo's out_dim columns.
TEST(PlanVerifierTest, RejectsFinalShapeMismatch) {
  PlanSpec s = BaselineFp32();
  s.steps.pop_back();     // drop the spmm: b0 last holds 4 columns
  s.adj_quants.clear();   // keep the table free of danglers
  ExpectRejected(s, "final_shape.mqb", "promises 3 logits");
}

// 5. Quantize steps must carry a real quantizer — the lowering never emits
// an identity quantize, so one in a bundle is a forged program.
TEST(PlanVerifierTest, RejectsIdentityQuantizeStep) {
  PlanSpec s = BaselineFp32();
  s.steps[0].quant.identity = true;
  ExpectRejected(s, "identity_quant.mqb", "identity component");
}

// 5b. Every quantizer grid fits int32: a 32-bit symmetric grid's qmax is
// 2^31 - 1, so the emitter's pre-clamp bound 2^31 would overflow the int32
// conversion, and an asymmetric 31-bit grid's qmax leaves no room above it.
// Lowering refuses both; the checker refuses them on quantize steps and in
// the adjacency table alike, while a symmetric 31-bit grid still loads.
TEST(PlanVerifierTest, RejectsQuantizerGridsOutsideInt32) {
  PlanSpec wide = BaselineFp32();
  wide.steps[0].quant.params.bits = 32;
  ExpectRejected(wide, "grid32_quantize.mqb", "outside int32");

  PlanSpec asym = BaselineFp32();
  asym.steps[0].quant.params.bits = 31;
  asym.steps[0].quant.params.symmetric = false;
  ExpectRejected(asym, "grid31_asym.mqb", "outside int32");

  PlanSpec adj = BaselineFp32();
  adj.adj_quants[0] = {false, Sym8(0.02f)};
  adj.adj_quants[0].params.bits = 32;
  ExpectRejected(adj, "grid32_adj.mqb", "outside int32");

  PlanSpec narrow = BaselineFp32();
  narrow.steps[0].quant.params.bits = 31;
  Status status = LoadSpec(narrow, "grid31_quantize.mqb");
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// 6. Cross-table references are exact: only MatMul steps may carry a linear
// index (the codec only range-checks it on MatMul steps, so a stray index
// elsewhere is codec-clean).
TEST(PlanVerifierTest, RejectsStrayLinearIndex) {
  PlanSpec s = BaselineFp32();
  s.steps[0].linear = 0;
  ExpectRejected(s, "stray_linear.mqb", "non-MatMul step carries linear index");
}

// 7. Dangling table entries: every lowered weight/quantizer must be
// reachable from some step, else program and tables disagree about the
// model.
TEST(PlanVerifierTest, RejectsDanglingAdjacencyQuantizer) {
  PlanSpec s = BaselineFp32();
  s.adj_quants.push_back({false, Sym8(0.5f)});
  ExpectRejected(s, "dangling_adj.mqb", "dangling");
}

// 8. Each weight travels once: a coded linear's floats are derived from its
// codes, so a PLAN linear carrying both could serve two sets of weights, and
// one carrying neither has no weight at all.
TEST(PlanVerifierTest, RejectsLinearWithBothOrNeitherWeightViews) {
  PlanSpec both = BaselineInt8();
  both.linears[0].weight_fq.assign(both.linears[0].weight_q8.size(), 0.25f);
  ExpectRejected(both, "both_views.mqb", "carries both float weights and int8 codes");

  PlanSpec neither = BaselineFp32();
  neither.linears[0].weight_fq.clear();
  ExpectRejected(neither, "no_view.mqb", "carries neither float weights nor int8 codes");
}

// 8b. A reader accepts only its own major of each kind: a 2.x model bundle
// carries the int8 program as a second section (IPLN) this reader no longer
// parses, so it is refused as a whole — there is no second reader path.
TEST(PlanVerifierTest, RejectsOtherMajorFormatVersion) {
  std::vector<uint8_t> bytes = EncodeBundle(BaselineInt8());
  bytes[8] = 2;  // u16 major at offset 8, little-endian: 2.0
  bytes[9] = 0;
  TempFile file("format_2_0.mqb");
  ASSERT_TRUE(WriteFileAtomic(file.path(), bytes).ok());
  Status status = LoadBundle(file.path()).status();
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status.ToString();
  const std::string own = std::to_string(engine::kModelBundleFormatMajor) + "." +
                          std::to_string(engine::kBundleFormatMinor);
  EXPECT_EQ(own, "3.0");
  EXPECT_NE(status.message().find("model bundle format 2.0"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(own), std::string::npos) << status.ToString();
  EXPECT_NE(status.message().find("mixq_compile"), std::string::npos)
      << status.ToString();
}

// 9. INFO's int8 flag must match what the plan derives. A quantize point
// that is not Int8able (here the GEMM's, asymmetric with zero point 3)
// leaves the plan without an int8 program, so a bundle claiming one is
// refused; the same plan declared fp32-only loads and serves fp32 only.
// The reverse lie is refused too.
TEST(PlanVerifierTest, RejectsInt8FlagThePlanDoesNotDerive) {
  PlanSpec s = BaselineInt8();
  s.steps[2].quant.params.symmetric = false;
  s.steps[2].quant.params.zero_point = 3;
  ExpectRejected(s, "int8_flag_lie.mqb",
                 "declares an int8 program the plan does not derive");

  s.has_int8 = false;
  Result<CompiledModelPtr> fp32 = LoadModelSpec(s, "int8_flag_off.mqb");
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  EXPECT_FALSE(fp32.ValueOrDie()->plan()->SupportsInt8());

  PlanSpec hidden = BaselineInt8();
  hidden.has_int8 = false;
  ExpectRejected(hidden, "int8_flag_hidden.mqb",
                 "declares no int8 program but the plan derives one");
}

// 10. Add operands must be scratch buffers: FrontierProgram::Build aborts
// (MIXQ_CHECK) on an add-from-input plan, so a bundle shaped that way was a
// remote crash of the serving process until the verifier rejected it first.
TEST(PlanVerifierTest, RejectsAddFromInputMatrix) {
  PlanSpec s = BaselineFp32();
  s.steps.resize(1);  // quantize -> b0 (4 cols)
  s.adj_quants.clear();
  s.linears.clear();
  SpecStep add;
  add.op = 3;  // kAdd
  add.src = ExecutionPlan::kInput;
  add.src2 = 0;
  add.dst = 1;
  add.cols = 4;
  s.steps.push_back(add);
  s.final_buffer = 1;
  s.out_dim = 4;
  ExpectRejected(s, "add_input.mqb", "add operands must be scratch buffers");
}

// ---- real models: everything the repo can lower verifies clean -------------

TEST(PlanVerifierTest, RealLoweringsVerifyCleanOnBothBackbones) {
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const SchemeRef& ref : {SchemeRef::Fp32(), SchemeRef::Qat(8)}) {
      SCOPED_TRACE(backbone == NodeModelKind::kGcn ? "gcn" : "sage");
      auto artifact = TrainArtifact(ref, backbone);
      // CompileModel itself runs CheckPlan and fails on either verdict — a
      // checker false positive would fail here.
      Result<CompiledModelPtr> model = CompileModel(*artifact);
      ASSERT_TRUE(model.ok()) << model.status().ToString();

      TempFile file("clean.mqb");
      ASSERT_TRUE(SaveBundle(*model.ValueOrDie(), file.path()).ok());
      for (const BundleCheck& check : VerifyBundleFile(file.path())) {
        EXPECT_TRUE(check.status.ok())
            << check.section << ": " << check.status.ToString();
      }
      // The full verdict chain must be present: the plan checker's
      // structural verdict ("plan") followed by its value verdict ("ranges").
      std::vector<BundleCheck> checks = VerifyBundleFile(file.path());
      ASSERT_GE(checks.size(), 2u);
      EXPECT_EQ(checks[checks.size() - 2].section, "plan");
      EXPECT_EQ(checks.back().section, "ranges");
    }
  }
}

// ---- the derived int8 program ----------------------------------------------
// The int8 program is derived from the fp32 one (FinalizeDerived). This test
// pins, per backbone, the program that must come out: the integer-only
// rewrite of each layer, written out here from the scheme's own quantize
// points rather than from the fp32 step list it is derived from.

bool Int8Grid(const LoweredComponent& lc) {
  return !lc.identity && lc.params.symmetric && lc.params.zero_point == 0 &&
         lc.params.bits >= 1 && lc.params.bits <= 8;
}

struct ExpectedIntProgram {
  bool int8 = true;  ///< every quantize point is an int8 grid
  std::vector<ExecutionPlan::IntStep> steps;
  int final_buffer = 0;
  QuantParams final_params;
};

/// Reads the scheme's frozen grids; a non-int8 one rules the program out.
QuantParams GridOf(const QuantScheme& scheme, const std::string& id,
                   ExpectedIntProgram* e) {
  LoweredComponent lc;
  EXPECT_TRUE(scheme.TryLowerComponent(id, &lc)) << id;
  e->int8 = e->int8 && Int8Grid(lc);
  return lc.params;
}

ExecutionPlan::IntStep IntStepOf(ExecutionPlan::IntOp op, int src, int dst,
                                 int64_t cols) {
  ExecutionPlan::IntStep st;
  st.op = op;
  st.src = src;
  st.dst = dst;
  st.cols = cols;
  return st;
}

/// A GEMM requant step with its bias / out-scale vector.
ExecutionPlan::IntStep GemmStepOf(const ExecutionPlan& plan, int linear, int src,
                                  int dst, const QuantParams& src_p,
                                  const QuantParams& out_p) {
  const engine::LoweredLinear& lin = plan.linears()[static_cast<size_t>(linear)];
  ExecutionPlan::IntStep st =
      IntStepOf(ExecutionPlan::IntOp::kGemmRequant, src, dst, lin.out);
  st.linear = linear;
  st.src_params = src_p;
  st.out_params = out_p;
  for (float b : lin.bias) {
    st.bias_over.push_back(static_cast<double>(b) * (1.0 / out_p.scale));
  }
  return st;
}

ExpectedIntProgram ExpectedProgram(const ModelArtifact& a, const ExecutionPlan& plan) {
  using IntOp = ExecutionPlan::IntOp;
  const QuantScheme& scheme = *a.scheme;
  ExpectedIntProgram e;
  QuantParams cur = GridOf(scheme, "model/x", &e);
  ExecutionPlan::IntStep input =
      IntStepOf(IntOp::kQuantizeInput, ExecutionPlan::kInput, 0, plan.in_features());
  input.out_params = cur;
  e.steps.push_back(input);
  if (a.model_kind == NodeModelKind::kGcn) {
    const auto& layers = a.gcn->layers();
    for (size_t l = 0; l < layers.size(); ++l) {
      const std::string& id = layers[l]->id();
      GridOf(scheme, id + "/weight", &e);
      GridOf(scheme, id + "/adj", &e);
      const QuantParams lin_out = GridOf(scheme, id + "/linear_out", &e);
      const QuantParams agg = GridOf(scheme, id + "/agg", &e);
      const int idx = static_cast<int>(l);
      e.steps.push_back(GemmStepOf(plan, idx, 0, 1, cur, lin_out));
      ExecutionPlan::IntStep spmm = IntStepOf(IntOp::kSpmmRequant, 1, 0,
                                              layers[l]->out_features());
      spmm.adj = idx;
      spmm.src_params = lin_out;
      spmm.out_params = agg;
      e.steps.push_back(spmm);
      if (l + 1 < layers.size()) {
        e.steps.push_back(IntStepOf(IntOp::kRelu, 0, 0, layers[l]->out_features()));
      }
      cur = agg;
    }
  } else {
    const auto& layers = a.sage->layers();
    for (size_t l = 0; l < layers.size(); ++l) {
      const std::string& id = layers[l]->id();
      const Linear& root = layers[l]->root_linear();
      const Linear& neigh = layers[l]->neighbor_linear();
      GridOf(scheme, id + "/adj", &e);
      GridOf(scheme, root.weight_component(), &e);
      GridOf(scheme, neigh.weight_component(), &e);
      const QuantParams agg = GridOf(scheme, id + "/agg", &e);
      const QuantParams root_out = GridOf(scheme, root.out_component(), &e);
      const QuantParams neigh_out = GridOf(scheme, neigh.out_component(), &e);
      const QuantParams out = GridOf(scheme, id + "/out", &e);
      const int idx = static_cast<int>(l);
      ExecutionPlan::IntStep spmm =
          IntStepOf(IntOp::kSpmmRequant, 0, 1, root.in_features());
      spmm.adj = idx;
      spmm.src_params = cur;
      spmm.out_params = agg;
      e.steps.push_back(spmm);
      e.steps.push_back(GemmStepOf(plan, 2 * idx, 0, 2, cur, root_out));
      e.steps.push_back(GemmStepOf(plan, 2 * idx + 1, 1, 3, agg, neigh_out));
      ExecutionPlan::IntStep add =
          IntStepOf(IntOp::kAddRequant, 2, 0, root.out_features());
      add.src2 = 3;
      add.src_params = root_out;
      add.src2_params = neigh_out;
      add.out_params = out;
      e.steps.push_back(add);
      if (l + 1 < layers.size()) {
        e.steps.push_back(IntStepOf(IntOp::kRelu, 0, 0, root.out_features()));
      }
      cur = out;
    }
  }
  e.final_params = cur;
  return e;
}

void ExpectSameGrid(const QuantParams& got, const QuantParams& want,
                    const std::string& what) {
  EXPECT_EQ(got.scale, want.scale) << what;
  EXPECT_EQ(got.zero_point, want.zero_point) << what;
  EXPECT_EQ(got.bits, want.bits) << what;
  EXPECT_EQ(got.symmetric, want.symmetric) << what;
}

TEST(DerivedInt8ProgramTest, PinsEachBackbonesProgramForEveryLowerableScheme) {
  const struct {
    const char* label;
    SchemeRef ref;
  } schemes[] = {
      {"fp32", SchemeRef::Fp32()},
      {"qat8", SchemeRef::Qat(8)},
      {"qat4", SchemeRef::Qat(4)},
      {"dq8", SchemeRef::Dq(8)},
      {"mixq", SchemeRef::MixQ(0.1)},
      {"mixq-dq", SchemeRef::MixQDq(0.1)},
      {"fixed", SchemeRef::Fixed({{"gcn0/weight", 4},
                                  {"gcn1/weight", 2},
                                  {"sage0/root/out", 4}})},
      {"fixed16", SchemeRef::Fixed({{"gcn1/linear_out", 16},
                                    {"sage1/neigh/out", 16}})},
      {"random", SchemeRef::Random()},
      {"random-int8", SchemeRef::RandomInt8()},
  };
  int derived = 0, refused = 0;
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const auto& scheme : schemes) {
      SCOPED_TRACE(std::string(backbone == NodeModelKind::kGcn ? "gcn " : "sage ") +
                   scheme.label);
      auto artifact = TrainArtifact(scheme.ref, backbone);
      CompiledModelPtr model = CompileModel(*artifact).MoveValueOrDie();
      const ExecutionPlan& plan = *model->plan();
      const ExpectedIntProgram want = ExpectedProgram(*artifact, plan);
      ASSERT_EQ(plan.SupportsInt8(), want.int8);
      EXPECT_EQ(model->info().lowered_int8, want.int8);
      if (!want.int8) {
        EXPECT_TRUE(plan.int_steps().empty());
        ++refused;
        continue;
      }
      ++derived;
      const std::vector<ExecutionPlan::IntStep>& got = plan.int_steps();
      ASSERT_EQ(got.size(), want.steps.size());
      for (size_t i = 0; i < got.size(); ++i) {
        const ExecutionPlan::IntStep& g = got[i];
        const ExecutionPlan::IntStep& w = want.steps[i];
        const std::string at = "int8 step " + std::to_string(i);
        EXPECT_EQ(g.op, w.op) << at;
        EXPECT_EQ(g.src, w.src) << at;
        EXPECT_EQ(g.src2, w.src2) << at;
        EXPECT_EQ(g.dst, w.dst) << at;
        EXPECT_EQ(g.linear, w.linear) << at;
        EXPECT_EQ(g.adj, w.adj) << at;
        EXPECT_EQ(g.cols, w.cols) << at;
        ExpectSameGrid(g.src_params, w.src_params, at + " src_params");
        ExpectSameGrid(g.src2_params, w.src2_params, at + " src2_params");
        ExpectSameGrid(g.out_params, w.out_params, at + " out_params");
        ASSERT_EQ(g.bias_over.size(), w.bias_over.size()) << at;
        for (size_t j = 0; j < g.bias_over.size(); ++j) {
          EXPECT_EQ(std::memcmp(&g.bias_over[j], &w.bias_over[j], sizeof(double)), 0)
              << at << " bias_over[" << j << "] bits";
        }
      }
      EXPECT_EQ(plan.int_final_buffer(), plan.final_buffer());
      ExpectSameGrid(plan.int_final_params(), want.final_params, "final grid");

      // A bundle carries no int8 program: the loaded plan derives the same.
      TempFile file("derived.mqb");
      ASSERT_TRUE(SaveBundle(*model, file.path()).ok());
      CompiledModelPtr loaded = LoadBundle(file.path()).MoveValueOrDie();
      ASSERT_EQ(loaded->plan()->int_steps().size(), got.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(loaded->plan()->int_steps()[i].op, got[i].op);
        EXPECT_EQ(loaded->plan()->int_steps()[i].bias_over, got[i].bias_over);
      }
    }
  }
  // Both outcomes occur on both backbones, else the sweep is vacuous.
  EXPECT_GE(derived, 2);
  EXPECT_GE(refused, 2);
}

TEST(PlanVerifierTest, VerifyBundleFileReportsFailingSection) {
  PlanSpec s = BaselineFp32();
  s.steps[1].cols = 2;  // GEMM width mismatch: codec-clean, verifier-bad
  TempFile file("verdicts.mqb");
  ASSERT_TRUE(WriteFileAtomic(file.path(), EncodeBundle(s)).ok());

  std::vector<BundleCheck> checks = VerifyBundleFile(file.path());
  ASSERT_FALSE(checks.empty());
  // Everything up to the last verdict passed (header, section CRCs, decode);
  // the last one is the plan verifier rejecting.
  for (size_t i = 0; i + 1 < checks.size(); ++i) {
    EXPECT_TRUE(checks[i].status.ok()) << checks[i].section;
  }
  EXPECT_EQ(checks.back().section, "plan");
  EXPECT_EQ(checks.back().status.code(), StatusCode::kInvalidArgument);
}

TEST(PlanVerifierTest, FrontierProgramVerifiesAgainstItsPlan) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn);
  Result<CompiledModelPtr> model = CompileModel(*artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Point query on a large-enough graph: Build materializes a pruned
  // schedule; verify it against the plan, in both precisions.
  for (bool int8 : {false, true}) {
    std::unique_ptr<FrontierProgram> program =
        model.ValueOrDie()->BuildFrontierProgram(
            artifact->op, {1, 5, 9}, int8, nullptr, /*max_cost_fraction=*/1.0);
    if (program == nullptr) continue;  // pruning judged not worthwhile
    Status status =
        VerifyFrontierProgram(*model.ValueOrDie()->plan(), *program);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// ---- epilogue fusion: derived from the step lists --------------------------
// FinalizeDerived folds each in-place quantize and ReLU into the GEMM, SpMM
// or add before it (ExecutionPlan::Step::folds). The fold is derived state:
// these tests pin which steps it takes on real lowerings, and that a crafted
// program it must not touch runs unfused with the same bits.

TEST(EpilogueFusionTest, LoweredPlansFoldEveryQuantizeAndReluButTheInput) {
  // Component ids of both backbones in one map; unlisted ones get 8 bits,
  // and a 16-bit point rules out the int8 lowering of each backbone.
  const SchemeRef mixed = SchemeRef::Fixed({{"model/x", 8},
                                            {"gcn0/weight", 4},
                                            {"gcn0/linear_out", 4},
                                            {"gcn1/linear_out", 16},
                                            {"sage0/agg", 4},
                                            {"sage0/root/out", 2},
                                            {"sage1/neigh/out", 16}});
  const struct {
    const char* label;
    SchemeRef ref;
  } schemes[] = {{"fp32", SchemeRef::Fp32()},
                 {"qat8", SchemeRef::Qat(8)},
                 {"qat4", SchemeRef::Qat(4)},
                 {"fixed", mixed}};
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const auto& scheme : schemes) {
      SCOPED_TRACE(std::string(backbone == NodeModelKind::kGcn ? "gcn " : "sage ") +
                   scheme.label);
      auto artifact = TrainArtifact(scheme.ref, backbone);
      CompiledModelPtr model = CompileModel(*artifact).MoveValueOrDie();
      const ExecutionPlan* plan = model->plan();
      ASSERT_NE(plan, nullptr);

      int producers = 0, dispatched = 0, input_quantize = 0;
      const std::vector<ExecutionPlan::Step>& steps = plan->steps();
      for (size_t i = 0; i < steps.size(); ++i) {
        const ExecutionPlan::Step& st = steps[i];
        const bool elementwise = st.op == ExecutionPlan::Op::kQuantize ||
                                 st.op == ExecutionPlan::Op::kRelu;
        const bool input = st.src == ExecutionPlan::kInput;
        EXPECT_EQ(st.folded, elementwise && !input) << "fp32 step " << i;
        if (!elementwise) ++producers;
        if (elementwise && input) ++input_quantize;
        if (!st.folded) ++dispatched;
        int absorbed = 0;
        while (i + 1 + static_cast<size_t>(absorbed) < steps.size() &&
               steps[i + 1 + static_cast<size_t>(absorbed)].folded) {
          ++absorbed;
        }
        if (!st.folded) {
          EXPECT_EQ(st.folds, absorbed) << "fp32 step " << i;
        }
      }
      // Only the kernels run as passes: the input quantize (when the input
      // is quantized) plus one GEMM/SpMM/add each — a two-layer GCN forward
      // dispatches 5 loops, not 10.
      EXPECT_EQ(dispatched, producers + input_quantize);
      if (backbone == NodeModelKind::kGcn) {
        EXPECT_EQ(producers, 4);
      }

      if (plan->SupportsInt8()) {
        const std::vector<ExecutionPlan::IntStep>& int_steps = plan->int_steps();
        for (size_t i = 0; i < int_steps.size(); ++i) {
          const bool relu = int_steps[i].op == ExecutionPlan::IntOp::kRelu;
          EXPECT_EQ(int_steps[i].folded, relu) << "int8 step " << i;
          const bool next_folded =
              i + 1 < int_steps.size() && int_steps[i + 1].folded;
          EXPECT_EQ(int_steps[i].folds, next_folded ? 1 : 0) << "int8 step " << i;
        }
      }

      Tensor reference =
          ReplayEvalForward(*artifact, artifact->features, artifact->op)
              .ValueOrDie();
      Tensor lowered = model->Predict(artifact->features, artifact->op).ValueOrDie();
      EXPECT_EQ(lowered.data(), reference.data());
    }
  }
}

// A small graph for the crafted programs: 6 nodes, in_features 4.
struct CraftedRequest {
  Tensor features;
  SparseOperatorPtr op;
};

CraftedRequest SmallRequest() {
  Rng rng(29);
  CraftedRequest r;
  r.features = Tensor::RandomUniform({6, 4}, &rng, -1.0f, 1.0f);
  std::vector<CooEntry> edges;
  for (int64_t v = 0; v < 6; ++v) {
    edges.push_back({v, v, 0.5f});
    edges.push_back({v, (v + 1) % 6, -0.75f});
    if (v % 2 == 0) edges.push_back({v, (v + 3) % 6, 0.25f});
  }
  r.op = MakeOperator(CsrMatrix::FromCoo(6, 6, std::move(edges)));
  return r;
}

// Step semantics written out as separate passes over whole buffers.
std::vector<float> FakeQuantAll(std::vector<float> v, const QuantParams& p) {
  for (float& x : v) {
    const int32_t code = CodeEmitter(p).Code(static_cast<double>(x) * (1.0 / p.scale));
    x = static_cast<float>(code - p.zero_point) * p.scale;
  }
  return v;
}

TEST(EpilogueFusionTest, CraftedStepsOutsideTheFoldRuleRunUnfusedWithSameBits) {
  const QuantParams q_in = Sym8(0.05f), q_lin = Sym8(0.03f), q_agg = Sym8(0.02f);
  // quantize(input)->b0, matmul(b0)->b1, quantize(b1), spmm(b1)->b0,
  // quantize(b0), relu: every elementwise step in place and foldable.
  PlanSpec fused = BaselineFp32();
  fused.steps[0].quant = {false, q_in};
  SpecStep quantize_lin;
  quantize_lin.op = 0;  // kQuantize
  quantize_lin.src = quantize_lin.dst = 1;
  quantize_lin.cols = 3;
  quantize_lin.quant = {false, q_lin};
  fused.steps.insert(fused.steps.begin() + 2, quantize_lin);
  SpecStep quantize_agg = quantize_lin;
  quantize_agg.src = quantize_agg.dst = 0;
  quantize_agg.quant = {false, q_agg};
  fused.steps.push_back(quantize_agg);
  SpecStep relu;
  relu.op = 4;  // kRelu
  relu.src = relu.dst = 0;
  relu.cols = 3;
  fused.steps.push_back(relu);

  // The ReLU writes another buffer (src != dst): the SpMM keeps only the
  // quantize, the ReLU runs as its own pass.
  PlanSpec relu_elsewhere = fused;
  relu_elsewhere.steps.back().dst = 1;
  relu_elsewhere.final_buffer = 1;

  // A quantize of different width between the GEMM and its own quantize.
  // Its width differs, so it can only work on another buffer (the checker
  // ties a quantize's width to its source); it re-grids the dead input
  // codes, and both it and the GEMM's quantize behind it run unfused.
  PlanSpec other_width = fused;
  SpecStep requantize_input;
  requantize_input.op = 0;
  requantize_input.src = requantize_input.dst = 0;
  requantize_input.cols = 4;
  requantize_input.quant = {false, Sym8(0.07f)};
  other_width.steps.insert(other_width.steps.begin() + 2, requantize_input);

  // The two-pass expectation: quantize, GEMM, quantize, SpMM, quantize, ReLU.
  const CraftedRequest req = SmallRequest();
  const SpecLinear& lin = fused.linears[0];
  std::vector<float> x = FakeQuantAll(req.features.data(), q_in);
  std::vector<float> h(6 * 3);
  GemmNN(x.data(), lin.weight_fq.data(), h.data(), 6, 4, 3);
  h = FakeQuantAll(h, q_lin);
  std::vector<float> agg(6 * 3);
  SpmmRaw(req.op->matrix(), h.data(), 3, agg.data());
  std::vector<float> expect = FakeQuantAll(agg, q_agg);
  for (float& v : expect) v = v > 0.0f ? v : 0.0f;

  struct Variant {
    const char* label;
    const PlanSpec* spec;
    std::vector<bool> folded;  ///< per fp32 step
  };
  const Variant variants[] = {
      {"fused", &fused, {false, false, true, false, true, true}},
      {"relu elsewhere", &relu_elsewhere, {false, false, true, false, true, false}},
      {"other width", &other_width, {false, false, false, false, false, true, true}},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.label);
    Result<CompiledModelPtr> model = LoadModelSpec(*v.spec, "fusion.mqb");
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const std::vector<ExecutionPlan::Step>& steps = model.ValueOrDie()->plan()->steps();
    ASSERT_EQ(steps.size(), v.folded.size());
    for (size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(steps[i].folded, v.folded[i]) << "fp32 step " << i;
    }
    Result<Tensor> out = model.ValueOrDie()->Predict(req.features, req.op);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.ValueOrDie().data(), expect);
  }
}

TEST(EpilogueFusionTest, Int8ReluFoldsIntoTheRequantClampWithSameCodes) {
  // BaselineInt8 plus a ReLU after the SpMM's quantize: in place (the
  // derived int8 ReLU folds into the requant emitter's low clamp) or into
  // another buffer (its own pass).
  PlanSpec folded = BaselineInt8();
  SpecStep relu;
  relu.op = 4;  // kRelu
  relu.src = relu.dst = 0;
  relu.cols = 3;
  folded.steps.push_back(relu);
  PlanSpec separate = folded;
  separate.steps.back().dst = 1;
  separate.final_buffer = 1;
  // Weights of both signs, so the aggregate has codes on both sides of 0.
  for (PlanSpec* s : {&folded, &separate}) {
    SpecLinear& lin = s->linears[0];
    for (size_t i = 0; i < lin.weight_q8.size(); ++i) {
      lin.weight_q8[i] = static_cast<int8_t>(i % 3 == 0 ? -5 : 4);
    }
  }

  const CraftedRequest req = SmallRequest();
  Result<CompiledModelPtr> a = LoadModelSpec(folded, "relu_folded.mqb");
  Result<CompiledModelPtr> b = LoadModelSpec(separate, "relu_separate.mqb");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(a.ValueOrDie()->plan()->int_steps().back().folded);
  EXPECT_EQ(a.ValueOrDie()->plan()->int_steps()[2].folds, 1);
  EXPECT_FALSE(b.ValueOrDie()->plan()->int_steps().back().folded);
  Tensor qa = a.ValueOrDie()->PredictQuantized(req.features, req.op).ValueOrDie();
  Tensor qb = b.ValueOrDie()->PredictQuantized(req.features, req.op).ValueOrDie();
  EXPECT_EQ(qa.data(), qb.data());
  float lo = 0.0f, hi = 0.0f;
  for (float v : qa.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(lo, 0.0f);  // the ReLU ran
  EXPECT_GT(hi, 0.0f);  // and the output is not all zero
}

// ---- fuzz regression: CRC-repaired payload mutations -----------------------

TEST(PlanVerifierTest, CrcRepairedPayloadMutationsNeverReachAnExecutor) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn);
  Result<CompiledModelPtr> model = CompileModel(*artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  TempFile file("fuzz.mqb");
  ASSERT_TRUE(SaveBundle(*model.ValueOrDie(), file.path()).ok());

  std::vector<uint8_t> pristine;
  ASSERT_TRUE(ReadFileBytes(file.path(), &pristine).ok());
  BundleManifest manifest = InspectBundle(file.path()).MoveValueOrDie();

  int loaded_fine = 0, rejected = 0;
  for (const BundleSection& section : manifest.sections) {
    if (section.tag != "INFO" && section.tag != "PLAN") continue;
    for (int trial = 0; trial < 160; ++trial) {
      std::vector<uint8_t> mutated = pristine;
      // Deterministic scatter over the payload; XOR patterns cover single
      // bits, full bytes, and sign/width-bit flips of little-endian fields.
      const size_t pos = static_cast<size_t>(section.offset) +
                         (static_cast<size_t>(trial) * 2654435761u) %
                             static_cast<size_t>(section.size);
      mutated[pos] ^= static_cast<uint8_t>(1u << (trial % 8));
      RepairCrc(&mutated, section);

      TempFile mutated_file("fuzz_mut.mqb");
      ASSERT_TRUE(WriteFileAtomic(mutated_file.path(), mutated).ok());
      const std::string label =
          section.tag + " trial " + std::to_string(trial) + ": ";

      // mixq_lint's verdict chain stops at the first failure, so everything
      // before its last verdict must pass whatever the mutation did; and
      // that last verdict must agree with the serving loader — a bundle that
      // lints clean loads, a bundle that doesn't is rejected.
      std::vector<BundleCheck> checks = VerifyBundleFile(mutated_file.path());
      ASSERT_FALSE(checks.empty());
      for (size_t i = 0; i + 1 < checks.size(); ++i) {
        EXPECT_TRUE(checks[i].status.ok()) << label << checks[i].section;
      }
      Result<CompiledModelPtr> reloaded = LoadBundle(mutated_file.path());
      EXPECT_EQ(checks.back().status.ok(), reloaded.ok())
          << label << "lint " << checks.back().status.ToString()
          << " vs load " << reloaded.status().ToString();
      if (!reloaded.ok()) {
        ++rejected;
        continue;
      }
      // The codec and checker accepted the mutation, so it must be
      // semantically harmless (weight values, quantizer scales): every
      // executor the model exposes must run to completion in bounds.
      ++loaded_fine;
      const CompiledModelPtr& m = reloaded.ValueOrDie();
      Result<Tensor> fp32 = m->Predict(artifact->features, artifact->op);
      EXPECT_TRUE(fp32.ok()) << label << fp32.status().ToString();
      if (m->info().lowered_int8) {
        Result<Tensor> int8 =
            m->PredictQuantized(artifact->features, artifact->op);
        EXPECT_TRUE(int8.ok()) << label << int8.status().ToString();
      }
    }
  }
  // The sweep must exercise both outcomes, else it is vacuous.
  EXPECT_GT(rejected, 0) << "no mutation was ever rejected";
  EXPECT_GT(loaded_fine, 0) << "no mutation ever survived to an executor";
}

}  // namespace
}  // namespace mixq
