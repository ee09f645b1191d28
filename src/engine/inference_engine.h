// Copyright 2026 MixQ-GNN Authors
// InferenceEngine — the serving surface of the third API layer
// (SchemeRegistry → Experiment → engine).
//
// The engine pins two named registries: CompiledModels (RegisterModel /
// ReplaceModel for zero-downtime rollouts) and immutable GraphContexts
// (RegisterGraph / ReplaceGraph for feature updates). Requests then carry
// only names plus node ids — no tensors cross the API per call.
//
// The primary entry point is asynchronous: Submit(PredictRequest) returns a
// std::future<Result<PredictResponse>>. Requests pass a bounded admission
// queue (kResourceExhausted on overflow, kDeadlineExceeded past their
// deadline) into a dynamic micro-batcher (engine/batcher.h) that coalesces
// all queued requests for the same (model, graph, precision) into ONE
// lowered forward on the persistent thread pool and hands each caller just
// its logit rows — N concurrent single-node requests cost one forward, not
// N. Full batch logits are cached per (model, graph) version; ReplaceModel /
// ReplaceGraph invalidate by bumping the version, so repeat queries on a
// static graph are a row gather.
//
// The original synchronous Predict(name, features, op) survives as a thin
// wrapper over the same forward path (always exact fp32, bitwise identical
// to CompiledModel::Predict). Registration and lookup take a readers-writer
// lock; forwards themselves hold no lock for lowered models. GetStats()
// reports engine-wide and per-model success/failure counters plus p50/p99
// serving latency from a lock-free histogram.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/batcher.h"
#include "engine/compiled_model.h"

namespace mixq {
namespace engine {

class InferenceEngine {
 public:
  /// `options` sizes the admission queue and toggles the result cache.
  /// The batcher's dispatcher thread starts immediately.
  explicit InferenceEngine(BatcherOptions options = BatcherOptions());

  /// Closes admission; every already-admitted request is still served (or
  /// expired) before the destructor returns.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  // ---- Model registry ------------------------------------------------------

  /// Adds a model under `name`. kInvalidArgument on empty name, null model,
  /// or duplicate registration (use ReplaceModel for hot-swaps).
  Status RegisterModel(const std::string& name, CompiledModelPtr model);

  /// Registers or atomically replaces `name` (zero-downtime model rollout).
  /// A replaced model keeps its counters; cached results for it are
  /// invalidated (the registry version bumps).
  Status ReplaceModel(const std::string& name, CompiledModelPtr model);

  /// Removes a model; kNotFound when absent. In-flight requests on the
  /// removed model finish safely (shared ownership).
  Status UnregisterModel(const std::string& name);

  /// kNotFound when absent.
  Result<CompiledModelPtr> GetModel(const std::string& name) const;

  /// Registered model names, sorted.
  std::vector<std::string> ModelNames() const;

  /// Loads a model bundle (engine/model_bundle.h) from `path` and registers
  /// it under `name` — the serving half of the train-once/serve-anywhere
  /// split: the process needs no training code, no scheme, no dataset.
  /// Propagates the loader's typed errors (kNotFound missing file,
  /// kOutOfRange truncation, kInvalidArgument corruption/CRC,
  /// kNotImplemented future format) and RegisterModel's duplicate-name
  /// error. Use ReplaceModel(name, LoadBundle(path)) for hot reloads.
  Status LoadModelFromFile(const std::string& name, const std::string& path);

  // ---- Graph registry ------------------------------------------------------

  /// Pins `features` + `op` as the named immutable graph so requests can
  /// reference it by name. kInvalidArgument on empty name, undefined
  /// features, null/mismatched operator, or duplicate name (use
  /// ReplaceGraph for updates).
  Status RegisterGraph(const std::string& name, Tensor features,
                       SparseOperatorPtr op);

  /// Registers or atomically replaces the named graph (feature update /
  /// topology change). Bumps the graph version: cached results against the
  /// old graph can no longer be served.
  Status ReplaceGraph(const std::string& name, Tensor features,
                      SparseOperatorPtr op);

  /// Removes a graph; kNotFound when absent. In-flight requests finish
  /// safely (shared ownership).
  Status UnregisterGraph(const std::string& name);

  /// kNotFound when absent.
  Result<GraphContextPtr> GetGraph(const std::string& name) const;

  /// Registered graph names, sorted.
  std::vector<std::string> GraphNames() const;

  /// Loads a graph bundle from `path` and registers it under `name`; the
  /// bundle carries the normalized operator as served, so no normalization
  /// code runs here. Error semantics mirror LoadModelFromFile.
  Status LoadGraphFromFile(const std::string& name, const std::string& path);

  // ---- Introspection -------------------------------------------------------

  /// One registered model as the introspection endpoints report it.
  struct ModelIntrospection {
    CompiledModelInfo info;
    /// Registry version (bumped by ReplaceModel; part of the result-cache
    /// key, so a bump is observable as PredictResponse.cache_hit = false).
    uint64_t version = 0;
  };

  /// One registered graph: dimensions plus its registry version.
  struct GraphIntrospection {
    int64_t nodes = 0;
    int64_t feature_dim = 0;
    int64_t nnz = 0;
    /// Pinned in a locality-reordered internal row order (invisible in
    /// served values; see GraphContext).
    bool reordered = false;
    uint64_t version = 0;
  };

  /// Snapshot of every registered model / graph, keyed by name — what an
  /// operator dashboard (or examples/serving.cpp) prints.
  std::map<std::string, ModelIntrospection> ListModels() const;
  std::map<std::string, GraphIntrospection> ListGraphs() const;

  // ---- Serving -------------------------------------------------------------

  /// Admits one request into the micro-batcher. Always returns a valid
  /// future; it resolves to kResourceExhausted when the admission queue is
  /// full, kDeadlineExceeded when the deadline passes first, kNotFound for
  /// unknown names, and otherwise to the requested logit rows plus timing
  /// metadata. Thread-safe; never blocks on the forward itself.
  std::future<Result<PredictResponse>> Submit(PredictRequest request);

  /// Synchronous single-graph forward with caller-supplied tensors — the
  /// pre-registry API, kept as a thin wrapper over the same execution path
  /// the batcher uses (exact fp32 mode; logits bitwise identical to
  /// CompiledModel::Predict). Counts into the same stats.
  Result<Tensor> Predict(const std::string& name, const Tensor& features,
                         const SparseOperatorPtr& op) const;

  // ---- Monitoring ----------------------------------------------------------

  struct ModelStats {
    int64_t successes = 0;  ///< requests answered with logits
    int64_t failures = 0;   ///< requests failed after model resolution
    double p50_us = 0.0;    ///< median serving latency (admission→fulfil)
    double p99_us = 0.0;    ///< tail serving latency
    /// Shared-forward wall time split by the precision the forward resolved
    /// to — one sample per forward actually run (cache hits record
    /// nothing), so fp32 vs int8 kernel paths compare directly.
    int64_t fp32_forwards = 0;
    int64_t int8_forwards = 0;
    double fp32_forward_p50_us = 0.0;
    double fp32_forward_p99_us = 0.0;
    double int8_forward_p50_us = 0.0;
    double int8_forward_p99_us = 0.0;
  };

  /// Circuit-breaker counters plus the current state of every tracked
  /// (model, graph) pair, keyed "model|graph". A pair with no entry is
  /// closed with zero consecutive failures (entries only exist after a
  /// forward failure).
  struct BreakerStats {
    int64_t trips = 0;       ///< closed/half-open -> open transitions
    int64_t fast_fails = 0;  ///< groups kUnavailable'd by an open breaker
    int64_t probes = 0;      ///< half-open probe forwards let through
    int64_t closes = 0;      ///< recoveries (any state -> closed on success)
    std::map<std::string, std::string> state;  ///< "closed"|"open"|"half_open"
  };

  /// Breaker state machine (see BreakerAdmit below for the transitions).
  enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

  /// Monitoring counters. Lock-free by design: a snapshot taken while
  /// requests are in flight may momentarily be inconsistent (a request is
  /// counted on entry, its outcome when it finishes). Per-model entries
  /// cover currently registered models — counters survive ReplaceModel but
  /// start at zero after UnregisterModel + RegisterModel under the same
  /// name. `failures` also counts requests that never resolved a model
  /// (unknown name, queue overflow, pre-dispatch expiry).
  struct Stats {
    int64_t requests = 0;  ///< Submit + Predict calls
    int64_t failures = 0;  ///< requests that returned an error
    Batcher::Stats batcher;  ///< admission/coalescing/cache counters
    BreakerStats breaker;    ///< circuit-breaker activity and states
    std::map<std::string, ModelStats> per_model;
  };
  Stats GetStats() const;

 private:
  struct ModelEntry {
    CompiledModelPtr model;
    /// From next_version_; part of the batcher's result-cache key.
    uint64_t version = 0;
    /// Shared so in-flight requests on a just-unregistered model still have
    /// somewhere to count.
    ModelCountersPtr counters;
  };

  Result<ModelHandle> LookupModel(const std::string& name) const;
  Result<GraphContextPtr> LookupGraph(const std::string& name) const;

  /// Per-(model, graph) circuit breaker: `breaker_failure_threshold`
  /// consecutive forward failures trip it open; while open, groups fast-fail
  /// kUnavailable without running the forward; after `breaker_open_duration`
  /// one half-open probe forward is let through — success closes the
  /// breaker, failure re-opens it. The batcher calls BreakerAdmit
  /// immediately before each group forward and BreakerReport right after
  /// (cache hits and load sheds bypass both).
  struct BreakerEntry {
    int consecutive_failures = 0;
    BreakerState state = BreakerState::kClosed;
    ServingClock::time_point open_until{};
    bool probe_in_flight = false;
  };
  Status BreakerAdmit(const std::string& model, const std::string& graph);
  void BreakerReport(const std::string& model, const std::string& graph,
                     bool ok);
  /// Drops breaker entries referencing an unregistered model/graph name
  /// (empty string = match any), so transient names don't accumulate state.
  void EraseBreakers(const std::string& model, const std::string& graph);

  /// Readers-writer lock over both registries; annotated so clang's
  /// -Wthread-safety proves every map access holds it (common/
  /// thread_annotations.h).
  mutable SharedMutex mu_;
  std::map<std::string, ModelEntry> models_ MIXQ_GUARDED_BY(mu_);
  std::map<std::string, GraphContextPtr> graphs_ MIXQ_GUARDED_BY(mu_);
  /// Engine-global monotonic version source for models AND graphs.
  /// Registrations never reuse a version — so a cache entry from a name
  /// that was unregistered and re-registered can never validate.
  uint64_t next_version_ MIXQ_GUARDED_BY(mu_) = 1;

  mutable std::atomic<int64_t> requests_{0};
  mutable std::atomic<int64_t> failures_{0};

  /// Breaker configuration (from BatcherOptions) and state. Its own mutex,
  /// not mu_: admit/report run on the dispatcher's forward path and must
  /// never contend with registry writers.
  const int breaker_failure_threshold_;
  const ServingClock::duration breaker_open_duration_;
  mutable Mutex breaker_mu_;
  std::map<std::string, BreakerEntry> breakers_ MIXQ_GUARDED_BY(breaker_mu_);
  std::atomic<int64_t> breaker_trips_{0};
  std::atomic<int64_t> breaker_fast_fails_{0};
  std::atomic<int64_t> breaker_probes_{0};
  std::atomic<int64_t> breaker_closes_{0};

  /// Row order RegisterGraph pins graphs in, resolved once at construction
  /// (kAuto means kRcm); never kAuto after that.
  const GraphReorder graph_reorder_;

  /// Declared last: destroyed first, so the dispatcher thread (whose
  /// Backend callbacks reach into the maps above) is joined while they are
  /// still alive.
  std::unique_ptr<Batcher> batcher_;
};

}  // namespace engine
}  // namespace mixq
