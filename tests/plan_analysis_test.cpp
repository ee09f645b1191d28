// Copyright 2026 MixQ-GNN Authors
// Tests for the plan checker's value rules and the range certificates it
// emits (engine/plan_analysis.h, engine/plan_verifier.h).
//
// The structural suite (plan_verifier_test) proves bad *programs* are
// rejected; this suite proves bad *values* are: plans whose dataflow, shapes
// and quantizer chains are all structurally valid but whose frozen constants
// put an integer accumulator within reach of overflow or are not finite.
// The boundary tests sit exactly on the int32 edge (an accumulator peak
// just under / just over INT32_MAX), a verdict-order test pins which violation wins, the
// pairing tests drive the symbolic SpMM certificate against hand-built
// graph bounds (including the value-range refinement), and an all-schemes
// sweep proves every real lowering in the registry checks clean on both
// backbones — with the per-step VNNI verdicts agreeing with the flags
// kernel dispatch consumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/plan_analysis.h"
#include "engine/plan_verifier.h"
#include "sparse/csr.h"
#include "sparse/spmm.h"
#include "tensor/gemm.h"
#include "tests/crafted_bundle.h"

namespace mixq {
namespace {

using engine::BundleCheck;
using engine::CheckGraphAgainstCertificate;
using engine::CheckPlan;
using engine::CheckReport;
using engine::CompiledModelPtr;
using engine::CompileModel;
using engine::ExecutionPlan;
using engine::FormatCheckReportJson;
using engine::MaxColumnAbsSum;
using engine::PairIntermediatePeak;
using engine::PlanCheck;
using engine::PlanRangeCertificate;
using engine::PlanShapes;
using engine::SaveBundle;
using engine::SaveGraph;
using engine::SpmmRangeCert;
using engine::VerifyBundleFile;
using engine::VnniAccumulationSafe;

// K·127² for K = 133144 is 2,147,479,576 <= INT32_MAX = 2,147,483,647;
// K = 133145 lands at 2,147,495,705, the first depth past the edge. It is
// also the SpMM depth budget of full-scale 8-bit codes on both sides.
constexpr int64_t kSafeDepth = 133144;

// ---- shared per-step arithmetic --------------------------------------------

TEST(PlanAnalysisTest, MaxColumnAbsSumScansColumns) {
  // Row-major [2, 3]: columns sum |1|+|-4|, |-2|+|5|, |3|+|-6|.
  const int8_t w[] = {1, -2, 3, -4, 5, -6};
  EXPECT_EQ(MaxColumnAbsSum(w, 2, 3), 9);
  EXPECT_EQ(MaxColumnAbsSum(w, 2, 1), 3);  // stride 1: |1| + |-2|
  EXPECT_EQ(MaxColumnAbsSum(w, 0, 3), 0);  // empty matrix
}

TEST(PlanAnalysisTest, PairIntermediatePeakBoundaries) {
  // Full-scale 8-bit codes keep the vpmaddwd intermediate inside int16...
  EXPECT_EQ(PairIntermediatePeak(127, 127), 32258);
  EXPECT_LE(PairIntermediatePeak(127, 127),
            static_cast<int64_t>(std::numeric_limits<int16_t>::max()));
  // ...and 9-bit-scale codes would not — the contract the checker enforces.
  EXPECT_EQ(PairIntermediatePeak(181, 181), 65522);
  EXPECT_GT(PairIntermediatePeak(181, 181),
            static_cast<int64_t>(std::numeric_limits<int16_t>::max()));
}

TEST(PlanAnalysisTest, VnniAccumulationSafeBoundary) {
  // (127 + 128) · col_sum <= INT32_MAX  <=>  col_sum <= 8421504.
  EXPECT_TRUE(VnniAccumulationSafe(127, 8421504));
  EXPECT_FALSE(VnniAccumulationSafe(127, 8421505));
}

TEST(PlanAnalysisTest, VnniCertificateNeverWeakerThanCoarsePredicate) {
  // Int8VnniDepthOk assumes full-scale codes; wherever it says yes, the
  // certificate with full-scale col_sum = k·127 must agree — this is the
  // invariant behind the debug assert in GemmInt8Requant's dispatch.
  for (int64_t k : {2, 64, 1024, 66076, 66077, 133144}) {
    if (Int8VnniDepthOk(k)) {
      EXPECT_TRUE(VnniAccumulationSafe(127, k * 127)) << "k=" << k;
    }
  }
}

// ---- crafted bundles: the int32 accumulator edge ---------------------------

// The deepest GEMM the int8 program takes (Int8DepthOk: K·127² < INT32_MAX)
// is K = 133143. Full-scale +127 codes there peak at 127·(133143·127) =
// 2,147,463,447; each -128 code — one the lowering never emits but a bundle
// can carry — adds 127 to that, so 159 of them per column sit 7 below
// INT32_MAX and 160 cross it.
constexpr int64_t kDeepestGemm = kSafeDepth - 1;
constexpr int64_t kEdgeCodes = 159;

/// A structurally pristine deep GEMM: quantize(input, K cols)->b0,
/// matmul(b0)->b1, quantize(b1), which derives the int8 program
/// quantize_input->b0, gemm_requant(b0)->b1. Every weight code is +127 but
/// the first `negative_rows` rows' -128, so the int32 accumulator peak is
/// exactly 127·(K·127 + negative_rows). No SpMM — the accumulator edge is
/// all this plan exists to sit on.
PlanSpec DeepGemmSpec(int64_t depth, int64_t negative_rows = 0) {
  PlanSpec s;
  s.in_features = depth;
  s.out_dim = 3;
  s.num_buffers = 2;
  s.final_buffer = 1;
  s.has_int8 = true;

  SpecLinear lin;
  lin.in = depth;
  lin.out = 3;
  lin.out_padded = 3;
  lin.weight_params = Sym8(0.1f);
  lin.weight_q8.assign(static_cast<size_t>(lin.in * lin.out_padded), 127);
  std::fill_n(lin.weight_q8.begin(), negative_rows * lin.out_padded, -128);
  s.linears.push_back(lin);

  SpecStep quantize;
  quantize.op = 0;  // kQuantize
  quantize.src = ExecutionPlan::kInput;
  quantize.dst = 0;
  quantize.cols = depth;
  quantize.quant = {false, Sym8(0.05f)};
  s.steps.push_back(quantize);

  SpecStep matmul;
  matmul.op = 1;  // kMatMul
  matmul.src = 0;
  matmul.dst = 1;
  matmul.linear = 0;
  matmul.cols = 3;
  s.steps.push_back(matmul);
  s.steps.push_back(QuantizeInPlace(1, 3, Sym8(0.08f)));
  return s;
}

TEST(PlanAnalysisTest, CraftedBaselineLoadsWithCertificate) {
  Result<CompiledModelPtr> model = LoadModelSpec(BaselineInt8(), "base.mqb");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const PlanRangeCertificate* cert =
      model.ValueOrDie()->range_certificate();
  ASSERT_NE(cert, nullptr);
  ASSERT_EQ(cert->gemms.size(), 1u);
  ASSERT_EQ(cert->spmms.size(), 1u);

  // GEMM: codes |a| <= 127 on the input grid, |w|-column sum = 4·3 = 12.
  EXPECT_EQ(cert->gemms[0].step, 1u);
  EXPECT_EQ(cert->gemms[0].acc_peak, 127 * 12);
  // From the codes present (|w| <= 3), not the weight grid's clamp.
  EXPECT_EQ(cert->gemms[0].pair_peak, 2 * 127 * 3);
  EXPECT_TRUE(cert->gemms[0].vnni_safe);

  // SpMM: full-scale 8-bit codes on both sides bound the depth budget at
  // floor(INT32_MAX / 127²) = 133144 stored entries per row.
  EXPECT_EQ(cert->spmms[0].step, 2u);
  EXPECT_EQ(cert->spmms[0].src_code_max, 127);
  EXPECT_EQ(cert->spmms[0].adj_code_max, 127);
  EXPECT_FLOAT_EQ(cert->spmms[0].adj_scale, 0.02f);
  EXPECT_EQ(cert->max_spmm_nnz, kSafeDepth);
}

TEST(PlanAnalysisTest, AcceptsGemmExactlyAtInt32Edge) {
  Result<CompiledModelPtr> model =
      LoadModelSpec(DeepGemmSpec(kDeepestGemm, kEdgeCodes), "edge_under.mqb");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const PlanRangeCertificate* cert =
      model.ValueOrDie()->range_certificate();
  ASSERT_NE(cert, nullptr);
  ASSERT_EQ(cert->gemms.size(), 1u);
  EXPECT_EQ(cert->gemms[0].acc_peak, 127 * (kDeepestGemm * 127 + kEdgeCodes));
  EXPECT_EQ(cert->gemms[0].acc_peak,
            static_cast<int64_t>(std::numeric_limits<int32_t>::max()) - 7);
  // This depth cannot run the unsigned-shift VNNI kernel; the certificate
  // must say so (dispatch falls to the vpmaddwd/scalar tiers).
  EXPECT_FALSE(cert->gemms[0].vnni_safe);
  // No int8 SpMM: any graph pairs with this plan.
  EXPECT_EQ(cert->max_spmm_nnz, std::numeric_limits<int64_t>::max());

  // One row deeper and the int8 program is not derived at all (the
  // lowering's depth gate), so a bundle claiming one is refused, and the
  // same plan declared fp32-only loads without int8 steps.
  PlanSpec deeper = DeepGemmSpec(kSafeDepth);
  ExpectRejected(deeper, "too_deep.mqb",
                 "declares an int8 program the plan does not derive");
  deeper.has_int8 = false;
  Result<CompiledModelPtr> fp32 = LoadModelSpec(deeper, "too_deep_fp32.mqb");
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  EXPECT_FALSE(fp32.ValueOrDie()->plan()->SupportsInt8());
}

TEST(PlanAnalysisTest, RejectsGemmJustOverInt32Edge) {
  Status status =
      LoadSpec(DeepGemmSpec(kDeepestGemm, kEdgeCodes + 1), "edge_over.mqb");
  ASSERT_FALSE(status.ok()) << "overflowable plan loaded";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("int32 accumulator can overflow"),
            std::string::npos)
      << status.ToString();
  // The diagnostic is step-indexed with the structural rules' grammar.
  EXPECT_NE(status.message().find("int8 step 1 (GemmRequant)"),
            std::string::npos)
      << status.ToString();
}

TEST(PlanAnalysisTest, PairwiseEdgeCertificateAtMinimumDepth) {
  // K = 2 is the smallest depth the pairwise kernel folds: one vpmaddwd
  // intermediate per column, at full scale |a0·b0 + a1·b1| = 2·127² = 32258.
  PlanSpec s = DeepGemmSpec(2);
  s.linears[0].weight_q8 = {127, -127, 127, -127, 127, -127};
  Result<CompiledModelPtr> model = LoadModelSpec(s, "pair_edge.mqb");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const PlanRangeCertificate* cert =
      model.ValueOrDie()->range_certificate();
  ASSERT_NE(cert, nullptr);
  ASSERT_EQ(cert->gemms.size(), 1u);
  EXPECT_EQ(cert->gemms[0].acc_peak, 127 * 254);
  EXPECT_EQ(cert->gemms[0].pair_peak, 32258);
  EXPECT_EQ(cert->gemms[0].vnni_peak, (127 + 128) * 254);
  EXPECT_TRUE(cert->gemms[0].vnni_safe);
}

TEST(PlanAnalysisTest, PairwiseBoundCountsCodesOutsideTheWeightGrid) {
  // A -128 code lies outside the 8-bit weight grid's ±127 clamp, which a
  // bundle can carry but the lowering never emits. The pairwise bound is
  // taken from the codes present, so it certifies 2·127·128, not the
  // grid-level 2·127².
  Result<CompiledModelPtr> model =
      LoadModelSpec(DeepGemmSpec(2, /*negative_rows=*/1), "pair_out_of_grid.mqb");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const PlanRangeCertificate* cert =
      model.ValueOrDie()->range_certificate();
  ASSERT_NE(cert, nullptr);
  ASSERT_EQ(cert->gemms.size(), 1u);
  EXPECT_EQ(cert->gemms[0].pair_peak, 2 * 127 * 128);
  EXPECT_EQ(cert->gemms[0].pair_peak, 32512);
  EXPECT_EQ(cert->gemms[0].acc_peak, 127 * (128 + 127));
}

// ---- crafted bundles: non-finite frozen constants --------------------------
// Only a linear without codes carries floats (a coded linear's are derived
// from its codes, and a code times a finite scale is finite), so the weight
// cases use the fp32-only baseline.

TEST(PlanAnalysisTest, RejectsNonFiniteWeightTable) {
  PlanSpec s = BaselineFp32();
  s.linears[0].weight_fq[2] = std::numeric_limits<float>::quiet_NaN();
  ExpectRejected(s, "nan_weight.mqb", "weight [0, 2] is not finite");

  // The fp32 executor adds the bias itself, so a NaN there is as fatal. The
  // fp32-only baseline keeps the int8 bias/scale vector out of the way.
  PlanSpec b = BaselineFp32();
  b.linears[0].bias = {0.5f, std::numeric_limits<float>::quiet_NaN(), 1.0f};
  ExpectRejected(b, "nan_bias.mqb", "linear 0: bias [1] is not finite");
}

TEST(PlanAnalysisTest, RejectsInfiniteWeightTable) {
  PlanSpec s = BaselineFp32();
  s.linears[0].weight_fq[7] = std::numeric_limits<float>::infinity();
  ExpectRejected(s, "inf_weight.mqb", "is not finite");
}

// ---- verdict order: structure outranks values -----------------------------

TEST(PlanAnalysisTest, StructuralViolationOutranksEarlierValueViolation) {
  // The overflow at int8 step 1 is found before the dangling adjacency
  // quantizer, but a value violation only stops the value verdict: the walk
  // goes on and the later structural violation decides.
  PlanSpec s = DeepGemmSpec(kDeepestGemm, kEdgeCodes + 1);
  s.adj_quants.push_back({false, Sym8(0.02f)});  // referenced by no step
  TempFile both("overflow_and_dangling.mqb");
  ASSERT_TRUE(WriteFileAtomic(both.path(), EncodeBundle(s)).ok());
  std::vector<BundleCheck> checks = VerifyBundleFile(both.path());
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(checks.back().section, "plan");
  EXPECT_NE(checks.back().status.message().find("dangling"), std::string::npos)
      << checks.back().status.ToString();
  ExpectRejected(s, "overflow_and_dangling.mqb", "holds an invalid plan");

  // The overflow alone: the structure passes, the value verdict fails.
  s.adj_quants.clear();
  TempFile alone("overflow.mqb");
  ASSERT_TRUE(WriteFileAtomic(alone.path(), EncodeBundle(s)).ok());
  checks = VerifyBundleFile(alone.path());
  ASSERT_GE(checks.size(), 2u);
  EXPECT_EQ(checks[checks.size() - 2].section, "plan");
  EXPECT_TRUE(checks[checks.size() - 2].status.ok())
      << checks[checks.size() - 2].status.ToString();
  EXPECT_EQ(checks.back().section, "ranges");
  EXPECT_NE(checks.back().status.message().find(
                "int8 step 1 (GemmRequant): int32 accumulator can overflow"),
            std::string::npos)
      << checks.back().status.ToString();
  ExpectRejected(s, "overflow.mqb", "fails range analysis");
}

// ---- graph pairing: the symbolic certificate meets a concrete graph --------

PlanRangeCertificate FullScaleSpmmCert() {
  PlanRangeCertificate cert;
  SpmmRangeCert sc;
  sc.step = 2;
  sc.src_code_max = 127;
  sc.adj_code_max = 127;
  sc.adj_scale = 0.02f;
  sc.max_nnz = kSafeDepth;  // INT32_MAX / 127²
  cert.spmms.push_back(sc);
  cert.max_spmm_nnz = sc.max_nnz;
  return cert;
}

TEST(PlanAnalysisTest, PairingAcceptsGraphWithinBudget) {
  GraphRangeBounds bounds;
  bounds.max_row_nnz = kSafeDepth;  // exactly at the proven edge
  bounds.value_abs_max = 2.54f;     // full-scale adjacency values
  Status status = CheckGraphAgainstCertificate(FullScaleSpmmCert(), bounds);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PlanAnalysisTest, PairingRejectsGraphBeyondBudgetStepIndexed) {
  GraphRangeBounds bounds;
  bounds.max_row_nnz = 200000;
  bounds.value_abs_max = 2.54f;  // values really reach the grid's clip point
  Status status = CheckGraphAgainstCertificate(FullScaleSpmmCert(), bounds);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("int8 step 2 (SpmmRequant)"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("serve fp32"), std::string::npos)
      << status.ToString();
}

TEST(PlanAnalysisTest, PairingValueRangeRefinementStretchesBudget) {
  // Same 200k-deep graph, but its adjacency values top out at 0.2 on a
  // 0.02-scale grid: codes provably stay <= 10, so the per-row budget is
  // floor(INT32_MAX / (10·127)) ≈ 1.69M entries and the pairing holds.
  GraphRangeBounds bounds;
  bounds.max_row_nnz = 200000;
  bounds.value_abs_max = 0.2f;
  Status status = CheckGraphAgainstCertificate(FullScaleSpmmCert(), bounds);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PlanAnalysisTest, PairingRejectsNonFiniteAdjacency) {
  GraphRangeBounds bounds;
  bounds.max_row_nnz = 1;
  bounds.value_abs_max = 1.0f;
  bounds.values_finite = false;
  Status status = CheckGraphAgainstCertificate(FullScaleSpmmCert(), bounds);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.ToString();
}

TEST(PlanAnalysisTest, EmptyCertificatePairsWithAnyGraph) {
  // Fp32-only / SpMM-free plans carry the vacuous bound: no graph can
  // violate it.
  GraphRangeBounds bounds;
  bounds.max_row_nnz = int64_t{1} << 40;
  bounds.value_abs_max = 1e30f;
  Status status = CheckGraphAgainstCertificate(PlanRangeCertificate(), bounds);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PlanAnalysisTest, OperatorRangeBoundsScanCsrOnce) {
  Result<CsrMatrix> m = CsrMatrix::FromParts(
      3, 3, {0, 2, 3, 3}, {0, 2, 1}, {1.0f, -5.5f, 2.0f});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  const SparseOperatorPtr op = MakeOperator(m.MoveValueOrDie());
  const GraphRangeBounds& bounds = op->range_bounds();
  EXPECT_EQ(bounds.max_row_nnz, 2);
  EXPECT_FLOAT_EQ(bounds.value_abs_max, 5.5f);
  EXPECT_TRUE(bounds.values_finite);
  EXPECT_EQ(&op->range_bounds(), &bounds);  // cached, not rescanned

  Result<CsrMatrix> bad = CsrMatrix::FromParts(
      2, 2, {0, 1, 2}, {0, 1},
      {1.0f, std::numeric_limits<float>::quiet_NaN()});
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(MakeOperator(bad.MoveValueOrDie())->range_bounds().values_finite);
}

// ---- real models: every registry lowering proves clean ---------------------

TEST(PlanAnalysisTest, EveryRegistrySchemeProvesCleanOnBothBackbones) {
  struct Case {
    const char* label;
    SchemeRef ref;
  };
  const std::vector<Case> cases = {
      {"fp32", SchemeRef::Fp32()},
      {"qat8", SchemeRef::Qat(8)},
      {"qat4", SchemeRef::Qat(4)},
      {"dq8", SchemeRef::Dq(8)},
      {"a2q", SchemeRef::A2q()},
      {"mixq", SchemeRef::MixQ(0.1)},
      {"mixq-dq", SchemeRef::MixQDq(0.1)},
      {"fixed", SchemeRef::Fixed({{"gcn0/weight", 4}})},
      {"random", SchemeRef::Random()},
      {"random-int8", SchemeRef::RandomInt8()},
  };
  for (NodeModelKind backbone : {NodeModelKind::kGcn, NodeModelKind::kSage}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.label) + "/" +
                   (backbone == NodeModelKind::kGcn ? "gcn" : "sage"));
      auto artifact = TrainArtifact(c.ref, backbone);
      Result<CompiledModelPtr> model = CompileModel(*artifact);
      // Schemes that do not lower (a2q) do not compile; there is nothing
      // for the checker to accept or reject.
      if (!model.ok()) {
        EXPECT_EQ(model.status().code(), StatusCode::kNotImplemented);
        continue;
      }
      const CompiledModelPtr& m = model.ValueOrDie();

      PlanShapes shapes;
      shapes.in_features = m->info().in_features;
      shapes.out_dim = m->info().out_dim;
      PlanCheck check = CheckPlan(*m->plan(), shapes);
      ASSERT_TRUE(check.structure.ok()) << check.structure.ToString();
      ASSERT_TRUE(check.ranges.ok()) << check.ranges.ToString();
      ASSERT_NE(m->range_certificate(), nullptr);

      // The per-step VNNI verdicts must be the flags dispatch consumes:
      // FinalizeDerived computes them with the same arithmetic.
      const auto& int_steps = m->plan()->int_steps();
      for (const auto& gc : check.cert.gemms) {
        ASSERT_LT(gc.step, int_steps.size());
        EXPECT_EQ(int_steps[gc.step].vnni_safe, gc.vnni_safe)
            << "int8 step " << gc.step;
      }
    }
  }
}

// ---- VerifyBundleFile: the lint check chain --------------------------------

TEST(PlanAnalysisTest, LintChainEndsWithRangesForModelsAndValuesForGraphs) {
  auto artifact = TrainArtifact(SchemeRef::Qat(8), NodeModelKind::kGcn);
  Result<CompiledModelPtr> model = CompileModel(*artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  TempFile model_file("chain_model.mqb");
  ASSERT_TRUE(SaveBundle(*model.ValueOrDie(), model_file.path()).ok());
  std::vector<BundleCheck> checks = VerifyBundleFile(model_file.path());
  ASSERT_FALSE(checks.empty());
  for (const BundleCheck& c : checks) {
    EXPECT_TRUE(c.status.ok()) << c.section << ": " << c.status.ToString();
  }
  EXPECT_EQ(checks.back().section, "ranges");

  TempFile graph_file("chain_graph.mqb");
  ASSERT_TRUE(
      SaveGraph(artifact->features, artifact->op, graph_file.path()).ok());
  checks = VerifyBundleFile(graph_file.path());
  ASSERT_FALSE(checks.empty());
  for (const BundleCheck& c : checks) {
    EXPECT_TRUE(c.status.ok()) << c.section << ": " << c.status.ToString();
  }
  EXPECT_EQ(checks.back().section, "values");
}

TEST(PlanAnalysisTest, FormatCheckReportJsonEscapesAndFlagsClean) {
  CheckReport report;
  report.subject = "dir/\"quoted\"\n.mqb";
  report.checks.push_back({"header", Status::OK()});
  report.checks.push_back(
      {"plan", Status::InvalidArgument("bad\tstep")});
  const std::string json = FormatCheckReportJson(report);
  EXPECT_NE(json.find("\"subject\": \"dir/\\\"quoted\\\"\\n.mqb\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\": \"invalid_argument\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("bad\\tstep"), std::string::npos) << json;

  report.checks.pop_back();
  EXPECT_NE(FormatCheckReportJson(report).find("\"clean\": true"),
            std::string::npos);
}

}  // namespace
}  // namespace mixq
