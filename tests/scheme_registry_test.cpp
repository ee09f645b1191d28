// Copyright 2026 MixQ-GNN Authors
// Tests for the open SchemeRegistry: typed parameter maps, built-in family
// round-trips, unknown-name errors, and third-party registration.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "quant/scheme_registry.h"

namespace mixq {
namespace {

// A context rich enough for every built-in family.
SchemeBuildContext FullContext() {
  SchemeBuildContext ctx;
  ctx.component_ids = {"model/x", "gcn0/weight", "gcn0/agg", "gcn1/weight",
                       "gcn1/agg"};
  ctx.in_degrees = {1, 2, 3, 4, 5, 6, 7, 8};
  ctx.num_nodes = 8;
  ctx.seed = 3;
  ctx.selected_bits = {{"model/x", 4}, {"gcn0/weight", 2}, {"gcn1/agg", 8}};
  return ctx;
}

TEST(SchemeParamsTest, TypedGetters) {
  SchemeParams p;
  p.SetInt("bits", 4).SetDouble("lambda", 0.25).SetIntList("bit_options", {2, 4, 8});
  p.SetBitsMap("fixed_bits", {{"a/w", 4}, {"b/agg", 8}});

  EXPECT_EQ(p.GetInt("bits").ValueOrDie(), 4);
  EXPECT_DOUBLE_EQ(p.GetDouble("lambda").ValueOrDie(), 0.25);
  EXPECT_EQ(p.GetIntList("bit_options").ValueOrDie(),
            (std::vector<int>{2, 4, 8}));
  auto bits = p.GetBitsMap("fixed_bits").ValueOrDie();
  EXPECT_EQ(bits.at("a/w"), 4);
  EXPECT_EQ(bits.at("b/agg"), 8);
}

TEST(SchemeParamsTest, MissingAndMalformedKeys) {
  SchemeParams p;
  p.Set("bits", "four");
  EXPECT_EQ(p.GetInt("bits").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.GetInt("absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(p.GetIntOr("absent", 7), 7);
  p.Set("fixed_bits", "no-equals-sign");
  EXPECT_EQ(p.GetBitsMap("fixed_bits").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemeRegistryTest, EveryBuiltinConstructsByName) {
  const std::vector<std::string> builtins = {
      "fp32", "qat", "dq", "a2q", "mixq", "mixq_dq",
      "fixed", "random", "random_int8"};
  SchemeBuildContext ctx = FullContext();
  for (const std::string& name : builtins) {
    ASSERT_TRUE(SchemeRegistry::Global().Contains(name)) << name;
    SchemeRef ref(name);
    if (name == "fixed") ref.params.SetBitsMap("fixed_bits", {{"gcn0/weight", 4}});
    Result<QuantSchemePtr> scheme = SchemeRegistry::Global().Create(ref, ctx);
    ASSERT_TRUE(scheme.ok()) << name << ": " << scheme.status().ToString();
    EXPECT_NE(scheme.ValueOrDie(), nullptr) << name;
  }
}

TEST(SchemeRegistryTest, UnknownSchemeIsNotFound) {
  Result<SchemeFamilyPtr> family = SchemeRegistry::Global().Find("no-such-scheme");
  EXPECT_FALSE(family.ok());
  EXPECT_EQ(family.status().code(), StatusCode::kNotFound);

  Result<QuantSchemePtr> scheme =
      SchemeRegistry::Global().Create(SchemeRef("no-such-scheme"), FullContext());
  EXPECT_EQ(scheme.status().code(), StatusCode::kNotFound);
}

TEST(SchemeRegistryTest, DuplicateRegistrationRejected) {
  Status st = SchemeRegistry::Global().Register(
      "fp32", std::make_shared<const LambdaSchemeFamily>(
                  [](const SchemeParams&, const SchemeBuildContext&)
                      -> Result<QuantSchemePtr> {
                    return QuantSchemePtr(std::make_shared<NoQuantScheme>());
                  },
                  [](const SchemeParams&) { return std::string("dup"); }));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SchemeRegistryTest, ThirdPartyFamilyRegistersAndBuilds) {
  // The open-extension contract: a new strategy plugs in by name without
  // touching any core switch statement.
  auto family = std::make_shared<const LambdaSchemeFamily>(
      [](const SchemeParams& params, const SchemeBuildContext&)
          -> Result<QuantSchemePtr> {
        return QuantSchemePtr(std::make_shared<UniformQatScheme>(
            static_cast<int>(params.GetIntOr("bits", 6))));
      },
      [](const SchemeParams&) { return std::string("Custom"); });
  ASSERT_TRUE(SchemeRegistry::Global().Register("custom_test_scheme", family).ok());

  SchemeRef ref("custom_test_scheme");
  ref.params.SetInt("bits", 5);
  Result<QuantSchemePtr> scheme =
      SchemeRegistry::Global().Create(ref, SchemeBuildContext{});
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  EXPECT_EQ(SchemeRegistry::Global().Label(ref), "Custom");

  ASSERT_TRUE(SchemeRegistry::Global().Unregister("custom_test_scheme").ok());
  EXPECT_FALSE(SchemeRegistry::Global().Contains("custom_test_scheme"));
  EXPECT_EQ(SchemeRegistry::Global().Unregister("custom_test_scheme").code(),
            StatusCode::kNotFound);
}

TEST(SchemeRegistryTest, ParameterValidationSurfacesErrors) {
  SchemeBuildContext ctx = FullContext();

  SchemeRef bad_bits("qat");
  bad_bits.params.SetInt("bits", 0);
  EXPECT_EQ(SchemeRegistry::Global().Create(bad_bits, ctx).status().code(),
            StatusCode::kInvalidArgument);

  SchemeRef bad_options("mixq");
  bad_options.params.Set("bit_options", "");
  EXPECT_EQ(SchemeRegistry::Global().Create(bad_options, ctx).status().code(),
            StatusCode::kInvalidArgument);

  SchemeRef no_map("fixed");
  EXPECT_EQ(SchemeRegistry::Global().Create(no_map, ctx).status().code(),
            StatusCode::kNotFound);  // missing required fixed_bits parameter

  // Typo'd *optional* parameters must error, not silently fall back to the
  // family default.
  SchemeRef typo_a2q("a2q");
  typo_a2q.params.Set("memory_lambda", "0..005");
  EXPECT_EQ(SchemeRegistry::Global().Create(typo_a2q, ctx).status().code(),
            StatusCode::kInvalidArgument);
  SchemeRef typo_dq("dq");
  typo_dq.params.Set("p_max", "high");
  EXPECT_EQ(SchemeRegistry::Global().Create(typo_dq, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemeParamsTest, DoubleRoundTripIsLossless) {
  SchemeParams p;
  const double lambda = 0.012345678901234567;
  p.SetDouble("lambda", lambda);
  EXPECT_EQ(p.GetDouble("lambda").ValueOrDie(), lambda);  // bitwise
}

TEST(SchemeRegistryTest, ContextRequirementsEnforced) {
  SchemeBuildContext empty;

  // DQ needs degrees, A2Q needs a node count, random needs component ids,
  // mixq needs a completed search.
  EXPECT_EQ(SchemeRegistry::Global().Create(SchemeRef::Dq(4), empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SchemeRegistry::Global().Create(SchemeRef::A2q(), empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SchemeRegistry::Global().Create(SchemeRef::Random(), empty).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SchemeRegistry::Global().Create(SchemeRef::MixQ(0.1), empty).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(SchemeRegistryTest, RandomAssignmentIsSeededAndInt8PinsOutput) {
  SchemeBuildContext ctx = FullContext();
  auto a = SchemeRegistry::Global().Create(SchemeRef::Random({2, 4}), ctx);
  auto b = SchemeRegistry::Global().Create(SchemeRef::Random({2, 4}), ctx);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie()->SelectedBits(), b.ValueOrDie()->SelectedBits());

  auto pinned = SchemeRegistry::Global().Create(SchemeRef::RandomInt8({2, 4}), ctx);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.ValueOrDie()->SelectedBits().at(ctx.component_ids.back()), 8);
}

TEST(SchemeLabelTest, CoversEveryBuiltInFamily) {
  // Every built-in family maps to a distinct, non-"?" label through the
  // registry.
  const std::vector<std::pair<SchemeRef, std::string>> cases = {
      {SchemeRef::Fp32(), "FP32"},
      {SchemeRef::Qat(8), "QAT-INT8"},
      {SchemeRef::Dq(4), "DQ-INT4"},
      {SchemeRef::A2q(), "A2Q"},
      {SchemeRef::MixQ(0.1), "MixQ(l=0.1)"},
      {SchemeRef::MixQDq(0.1), "MixQ(l=0.1)+DQ"},
      {SchemeRef::Fixed({{"a", 4}}), "Fixed"},
      {SchemeRef::Random(), "Random"},
      {SchemeRef::RandomInt8(), "Random+INT8"},
  };
  for (const auto& [ref, expected] : cases) {
    EXPECT_EQ(SchemeLabel(ref), expected);
  }
}

}  // namespace
}  // namespace mixq
