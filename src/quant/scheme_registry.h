// Copyright 2026 MixQ-GNN Authors
// Open, string-keyed registry of quantization schemes — the first layer of
// the public API (registry → Experiment facade → engine).
//
// A *scheme family* ("fp32", "qat", "dq", "a2q", "mixq", …) is a named
// factory that builds a concrete QuantScheme from a flat parameter map plus
// task context (component ids, degrees, node count). Families register
// themselves from their own translation unit via MIXQ_REGISTER_SCHEME, so
// adding a quantization strategy never touches core switch statements.
//
// Families whose bit assignment is *searched* rather than fixed (MixQ's
// Algorithm 1) report RequiresSearch() and provide a relaxed search scheme
// via BuildSearch(); the Experiment facade runs the search phase, stores the
// selected widths in SchemeBuildContext::selected_bits, and calls Build()
// for the final training scheme.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "quant/scheme.h"

namespace mixq {

/// Flat string→string parameter map with typed accessors. Keeping values as
/// strings makes every scheme configurable from CLI flags / config files and
/// keeps the registry interface independent of any one family's knobs.
///
/// Encodings: integer lists are comma-separated ("2,4,8"); per-component bit
/// maps are comma-separated `id=bits` pairs ("gcn0/weight=4,gcn1/agg=8").
class SchemeParams {
 public:
  SchemeParams() = default;

  SchemeParams& Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
    return *this;
  }
  SchemeParams& SetInt(const std::string& key, int64_t value);
  SchemeParams& SetDouble(const std::string& key, double value);
  SchemeParams& SetIntList(const std::string& key, const std::vector<int>& values);
  SchemeParams& SetBitsMap(const std::string& key,
                           const std::map<std::string, int>& bits);

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  /// Typed getters: kNotFound when the key is absent, kInvalidArgument when
  /// the stored string does not parse.
  Result<int64_t> GetInt(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<std::vector<int>> GetIntList(const std::string& key) const;
  Result<std::map<std::string, int>> GetBitsMap(const std::string& key) const;

  /// Fallback variants for optional keys; a present-but-unparsable value
  /// still surfaces as an error through the Result-returning getters, which
  /// ValidateParams implementations should prefer.
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;
  std::vector<int> GetIntListOr(const std::string& key,
                                std::vector<int> fallback) const;

  const std::map<std::string, std::string>& raw() const { return values_; }

  /// "k1=v1,k2=v2" — for labels and error messages.
  std::string ToString() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Everything a factory may need from the task to instantiate a scheme.
/// Populated by the Experiment facade; hand-rolled callers fill what their
/// family uses (the built-ins degrade gracefully on missing fields).
struct SchemeBuildContext {
  /// Quantizable component ids of the model, in execution order (random
  /// assignment draws from these).
  std::vector<std::string> component_ids;
  /// In-degrees of the (possibly sampled) graph — Degree-Quant protection.
  std::vector<int64_t> in_degrees;
  /// Node count of the graph/batch — sizes A2Q's per-node parameter vectors.
  int64_t num_nodes = 0;
  /// Base seed for stochastic construction (random assignment, DQ masks).
  uint64_t seed = 1;
  /// Search-phase output: the selected per-component widths handed to
  /// Build() of a RequiresSearch() family.
  std::map<std::string, int> selected_bits;
};

/// A named, registrable quantization strategy: validates its parameters and
/// constructs QuantScheme instances.
class SchemeFamily {
 public:
  virtual ~SchemeFamily() = default;

  /// Builds the concrete (training/eval) scheme. For RequiresSearch()
  /// families this is the phase-2 scheme over ctx.selected_bits.
  virtual Result<QuantSchemePtr> Build(const SchemeParams& params,
                                       const SchemeBuildContext& ctx) const = 0;

  /// True when the family selects bit-widths via a differentiable search
  /// phase before the final training (MixQ's Algorithm 1).
  virtual bool RequiresSearch() const { return false; }

  /// Phase-1 relaxed scheme for search families; the default refuses.
  virtual Result<QuantSchemePtr> BuildSearch(const SchemeParams& params,
                                             const SchemeBuildContext& ctx) const;

  /// Parameter sanity check, run up front by ExperimentSpec::Validate() so
  /// misconfiguration fails before any training starts.
  virtual Status ValidateParams(const SchemeParams& params) const {
    (void)params;
    return Status::OK();
  }

  /// Human-readable label for result tables ("MixQ(l=0.1)", "DQ-INT4", …).
  virtual std::string Label(const SchemeParams& params) const = 0;
};

using SchemeFamilyPtr = std::shared_ptr<const SchemeFamily>;

/// Reference to a registered family plus its parameters — the open
/// replacement for the closed SchemeSpec struct. The static builders cover
/// the paper's schemes; anything registered by name works the same way.
struct SchemeRef {
  std::string name = "fp32";
  SchemeParams params;

  SchemeRef() = default;
  explicit SchemeRef(std::string n, SchemeParams p = {})
      : name(std::move(n)), params(std::move(p)) {}

  static SchemeRef Fp32() { return SchemeRef("fp32"); }
  static SchemeRef Qat(int bits);
  static SchemeRef Dq(int bits);
  static SchemeRef A2q(double memory_lambda = 5e-4);
  static SchemeRef MixQ(double lambda, const std::vector<int>& bit_options = {2, 4, 8});
  static SchemeRef MixQDq(double lambda, const std::vector<int>& bit_options = {2, 4, 8});
  static SchemeRef Fixed(const std::map<std::string, int>& bits);
  static SchemeRef Random(const std::vector<int>& bit_options = {2, 4, 8});
  static SchemeRef RandomInt8(const std::vector<int>& bit_options = {2, 4, 8});
};

/// Thread-safe name → SchemeFamily map. Process-wide singleton; families
/// register during static initialization (MIXQ_REGISTER_SCHEME) or at
/// runtime (tests, plugins).
class SchemeRegistry {
 public:
  static SchemeRegistry& Global();

  /// Registers a family under `name`; kInvalidArgument on duplicates.
  Status Register(const std::string& name, SchemeFamilyPtr family);

  /// Removes a family (tests); kNotFound when absent.
  Status Unregister(const std::string& name);

  bool Contains(const std::string& name) const;

  /// kNotFound (listing the known names) when `name` is not registered.
  Result<SchemeFamilyPtr> Find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// One-step construction: Find + ValidateParams + Build.
  Result<QuantSchemePtr> Create(const SchemeRef& ref,
                                const SchemeBuildContext& ctx) const;

  /// Label for a reference; "?name" when unregistered.
  std::string Label(const SchemeRef& ref) const;

 private:
  mutable Mutex mu_;
  std::map<std::string, SchemeFamilyPtr> families_ MIXQ_GUARDED_BY(mu_);
};

/// Convenience adapter: a family from plain functions, for schemes that do
/// not need search or custom validation.
class LambdaSchemeFamily : public SchemeFamily {
 public:
  using BuildFn =
      std::function<Result<QuantSchemePtr>(const SchemeParams&, const SchemeBuildContext&)>;
  using LabelFn = std::function<std::string(const SchemeParams&)>;
  using ValidateFn = std::function<Status(const SchemeParams&)>;

  LambdaSchemeFamily(BuildFn build, LabelFn label, ValidateFn validate = nullptr)
      : build_(std::move(build)), label_(std::move(label)),
        validate_(std::move(validate)) {}

  Result<QuantSchemePtr> Build(const SchemeParams& params,
                               const SchemeBuildContext& ctx) const override {
    return build_(params, ctx);
  }
  std::string Label(const SchemeParams& params) const override {
    return label_(params);
  }
  Status ValidateParams(const SchemeParams& params) const override {
    return validate_ ? validate_(params) : Status::OK();
  }

 private:
  BuildFn build_;
  LabelFn label_;
  ValidateFn validate_;
};

/// ValidateParams helpers: every *present* key among `keys` must parse as
/// the given type; absent keys pass (the parameters are optional). Keeps a
/// typo'd optional value from silently falling back to its default.
Status ValidateOptionalDoubleParams(const SchemeParams& params,
                                    std::initializer_list<const char*> keys);
Status ValidateOptionalIntParams(const SchemeParams& params,
                                 std::initializer_list<const char*> keys);

namespace internal {
/// Static-initializer hook used by MIXQ_REGISTER_SCHEME.
struct SchemeRegistration {
  SchemeRegistration(const char* name, SchemeFamilyPtr family);
};
}  // namespace internal

/// Registers `family_expr` (a SchemeFamilyPtr expression) under `name` at
/// program start, from whatever translation unit the scheme lives in:
///   MIXQ_REGISTER_SCHEME("mixq", std::make_shared<const MixQFamily>());
#define MIXQ_SCHEME_CONCAT_INNER(a, b) a##b
#define MIXQ_SCHEME_CONCAT(a, b) MIXQ_SCHEME_CONCAT_INNER(a, b)
#define MIXQ_REGISTER_SCHEME(name, family_expr)                               \
  static const ::mixq::internal::SchemeRegistration MIXQ_SCHEME_CONCAT(       \
      mixq_scheme_registration_, __COUNTER__)(name, family_expr)

}  // namespace mixq
