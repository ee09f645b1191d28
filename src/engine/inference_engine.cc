// Copyright 2026 MixQ-GNN Authors
#include "engine/inference_engine.h"

#include <cstring>
#include <utility>

#include "common/parallel.h"
#include "engine/model_bundle.h"
#include "sparse/reorder.h"

namespace mixq {
namespace engine {

namespace {

/// kAuto means rcm — the default is to reorder, because the order is
/// invisible in served values and RCM's banded neighbourhoods win on every
/// graph large enough for locality to matter.
GraphReorder ResolveGraphReorder(GraphReorder requested) {
  return requested == GraphReorder::kAuto ? GraphReorder::kRcm : requested;
}

/// Shape/consistency checks shared by RegisterGraph and ReplaceGraph.
Status ValidateGraph(const std::string& name, const Tensor& features,
                     const SparseOperatorPtr& op) {
  if (name.empty()) return Status::InvalidArgument("graph name must be non-empty");
  if (!features.defined()) {
    return Status::InvalidArgument("graph '" + name + "' has undefined features");
  }
  if (op == nullptr) {
    return Status::InvalidArgument("graph '" + name + "' has a null operator");
  }
  if (op->matrix().cols() != features.rows()) {
    return Status::InvalidArgument(
        "graph '" + name + "': operator has " +
        std::to_string(op->matrix().cols()) + " columns but features have " +
        std::to_string(features.rows()) + " rows");
  }
  // A pinned serving graph needs one logit row per node: a rectangular
  // operator would make forwards produce fewer rows than node ids admission
  // accepts (and would abort, rather than fail, the pruned analysis).
  if (op->matrix().rows() != op->matrix().cols()) {
    return Status::InvalidArgument(
        "graph '" + name + "': serving operator must be square, got " +
        std::to_string(op->matrix().rows()) + "x" +
        std::to_string(op->matrix().cols()));
  }
  return Status::OK();
}

}  // namespace

InferenceEngine::InferenceEngine(BatcherOptions options)
    : breaker_failure_threshold_(options.breaker_failure_threshold),
      breaker_open_duration_(options.breaker_open_duration),
      graph_reorder_(ResolveGraphReorder(options.graph_reorder)) {
  Batcher::Backend backend;
  backend.lookup_model = [this](const std::string& name) {
    return LookupModel(name);
  };
  backend.lookup_graph = [this](const std::string& name) {
    return LookupGraph(name);
  };
  backend.count_failure = [this] {
    failures_.fetch_add(1, std::memory_order_relaxed);
  };
  if (options.breaker_failure_threshold > 0) {
    backend.breaker_admit = [this](const std::string& model,
                                   const std::string& graph) {
      return BreakerAdmit(model, graph);
    };
    backend.breaker_report = [this](const std::string& model,
                                    const std::string& graph, bool ok) {
      BreakerReport(model, graph, ok);
    };
  }
  batcher_ = std::make_unique<Batcher>(std::move(backend), options);
}

InferenceEngine::~InferenceEngine() = default;

// ---- Model registry --------------------------------------------------------

Status InferenceEngine::RegisterModel(const std::string& name,
                                      CompiledModelPtr model) {
  if (name.empty()) return Status::InvalidArgument("model name must be non-empty");
  if (model == nullptr) {
    return Status::InvalidArgument("model '" + name + "' is null");
  }
  ModelEntry entry{std::move(model), /*version=*/0,
                   std::make_shared<ModelCounters>()};
  WriterLock lock(&mu_);
  auto [it, inserted] = models_.emplace(name, std::move(entry));
  if (!inserted) {
    return Status::InvalidArgument("model '" + name +
                                   "' is already registered (use ReplaceModel)");
  }
  it->second.version = next_version_++;
  return Status::OK();
}

Status InferenceEngine::ReplaceModel(const std::string& name,
                                     CompiledModelPtr model) {
  if (name.empty()) return Status::InvalidArgument("model name must be non-empty");
  if (model == nullptr) {
    return Status::InvalidArgument("model '" + name + "' is null");
  }
  WriterLock lock(&mu_);
  ModelEntry& entry = models_[name];
  entry.model = std::move(model);
  entry.version = next_version_++;  // invalidates cached results for it
  if (entry.counters == nullptr) {
    entry.counters = std::make_shared<ModelCounters>();
  }
  return Status::OK();
}

Status InferenceEngine::UnregisterModel(const std::string& name) {
  {
    WriterLock lock(&mu_);
    if (models_.erase(name) == 0) {
      return Status::NotFound("model '" + name + "' is not registered");
    }
  }
  EraseBreakers(name, "");
  return Status::OK();
}

Result<CompiledModelPtr> InferenceEngine::GetModel(const std::string& name) const {
  ReaderLock lock(&mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' is not registered");
  }
  return it->second.model;
}

std::vector<std::string> InferenceEngine::ModelNames() const {
  ReaderLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

Status InferenceEngine::LoadModelFromFile(const std::string& name,
                                          const std::string& path) {
  Result<CompiledModelPtr> model = LoadBundle(path);
  if (!model.ok()) return model.status();
  return RegisterModel(name, model.MoveValueOrDie());
}

// ---- Graph registry --------------------------------------------------------

namespace {

/// Builds the immutable context for one registered graph; the operator's
/// range bounds (O(nnz) scan), the locality reorder, and the frontier
/// workspace's O(N) allocations run once here, not per request.
///
/// With `reorder` != kNone the pinned operator and features are re-rowed by
/// DegreeSortOrder/RcmOrder (sparse/reorder.h) so the thousands of SpMMs
/// served against this graph gather topologically-close X rows from close
/// addresses. PermuteSquare keeps each row's entries in original order, so
/// internal row p computes bitwise what original row old_of_new[p] computes
/// — the batcher translates ids on the way in and un-permutes full logits
/// on the way out, and nothing outside the GraphContext can observe the
/// order.
std::shared_ptr<GraphContext> MakeGraphContext(const std::string& name,
                                               Tensor features,
                                               SparseOperatorPtr op,
                                               GraphReorder reorder) {
  auto context = std::make_shared<GraphContext>();
  context->name = name;
  context->frontier_ws = std::make_shared<FrontierWorkspace>();
  context->frontier_ws->EnsureSize(op->rows());
  std::vector<int64_t> old_of_new;
  if (reorder != GraphReorder::kNone) {
    const CsrMatrix& m = op->matrix();
    old_of_new = reorder == GraphReorder::kDegree ? DegreeSortOrder(m) : RcmOrder(m);
    bool identity = true;
    for (size_t p = 0; p < old_of_new.size(); ++p) {
      if (old_of_new[p] != static_cast<int64_t>(p)) {
        identity = false;
        break;
      }
    }
    if (identity) old_of_new.clear();
  }
  if (old_of_new.empty()) {
    context->features = std::move(features);
    context->op = std::move(op);
  } else {
    const int64_t n = features.rows();
    const int64_t f = features.cols();
    std::vector<float> permuted(static_cast<size_t>(n) * static_cast<size_t>(f));
    const float* src = features.data().data();
    float* dst = permuted.data();
    const int64_t* old_row = old_of_new.data();
    ParallelFor(
        n,
        [=](int64_t p0, int64_t p1) {
          for (int64_t p = p0; p < p1; ++p) {
            std::memcpy(dst + p * f, src + old_row[p] * f,
                        static_cast<size_t>(f) * sizeof(float));
          }
        },
        /*grain=*/4096);
    context->features = Tensor::FromVector(features.shape(), std::move(permuted));
    context->op = MakeOperator(PermuteSquare(op->matrix(), old_of_new));
    context->new_of_old.assign(static_cast<size_t>(n), 0);
    for (int64_t p = 0; p < n; ++p) {
      context->new_of_old[static_cast<size_t>(old_of_new[static_cast<size_t>(p)])] = p;
    }
    context->old_of_new = std::move(old_of_new);
  }
  // The int8 pairing check (batcher precision resolution, PredictQuantized)
  // reads the served operator's cached bounds; scan them here, not on the
  // first request.
  context->op->range_bounds();
  return context;
}

}  // namespace

Status InferenceEngine::RegisterGraph(const std::string& name, Tensor features,
                                      SparseOperatorPtr op) {
  MIXQ_RETURN_NOT_OK(ValidateGraph(name, features, op));
  std::shared_ptr<GraphContext> context =
      MakeGraphContext(name, std::move(features), std::move(op), graph_reorder_);
  WriterLock lock(&mu_);
  auto [it, inserted] = graphs_.emplace(name, nullptr);
  if (!inserted) {
    return Status::InvalidArgument("graph '" + name +
                                   "' is already registered (use ReplaceGraph)");
  }
  context->version = next_version_++;
  it->second = std::move(context);
  return Status::OK();
}

Status InferenceEngine::ReplaceGraph(const std::string& name, Tensor features,
                                     SparseOperatorPtr op) {
  MIXQ_RETURN_NOT_OK(ValidateGraph(name, features, op));
  std::shared_ptr<GraphContext> context =
      MakeGraphContext(name, std::move(features), std::move(op), graph_reorder_);
  WriterLock lock(&mu_);
  // invalidates cached results against the old graph
  context->version = next_version_++;
  graphs_[name] = std::move(context);
  return Status::OK();
}

Status InferenceEngine::UnregisterGraph(const std::string& name) {
  {
    WriterLock lock(&mu_);
    if (graphs_.erase(name) == 0) {
      return Status::NotFound("graph '" + name + "' is not registered");
    }
  }
  EraseBreakers("", name);
  return Status::OK();
}

Result<GraphContextPtr> InferenceEngine::GetGraph(const std::string& name) const {
  return LookupGraph(name);
}

std::vector<std::string> InferenceEngine::GraphNames() const {
  ReaderLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(graphs_.size());
  for (const auto& [name, context] : graphs_) names.push_back(name);
  return names;
}

Status InferenceEngine::LoadGraphFromFile(const std::string& name,
                                          const std::string& path) {
  Result<GraphBundle> bundle = LoadGraph(path);
  if (!bundle.ok()) return bundle.status();
  GraphBundle& loaded = bundle.ValueOrDie();
  return RegisterGraph(name, std::move(loaded.features), std::move(loaded.op));
}

std::map<std::string, InferenceEngine::ModelIntrospection>
InferenceEngine::ListModels() const {
  std::map<std::string, ModelIntrospection> out;
  ReaderLock lock(&mu_);
  for (const auto& [name, entry] : models_) {
    out[name] = ModelIntrospection{entry.model->info(), entry.version};
  }
  return out;
}

std::map<std::string, InferenceEngine::GraphIntrospection>
InferenceEngine::ListGraphs() const {
  std::map<std::string, GraphIntrospection> out;
  ReaderLock lock(&mu_);
  for (const auto& [name, context] : graphs_) {
    GraphIntrospection g;
    g.nodes = context->features.rows();
    g.feature_dim = context->features.cols();
    g.nnz = context->op->nnz();
    g.reordered = context->reordered();
    g.version = context->version;
    out[name] = g;
  }
  return out;
}

Result<ModelHandle> InferenceEngine::LookupModel(const std::string& name) const {
  ReaderLock lock(&mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' is not registered");
  }
  return ModelHandle{it->second.model, it->second.version, it->second.counters};
}

Result<GraphContextPtr> InferenceEngine::LookupGraph(const std::string& name) const {
  ReaderLock lock(&mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("graph '" + name + "' is not registered");
  }
  return it->second;
}

// ---- Circuit breaker -------------------------------------------------------

namespace {

std::string BreakerKey(const std::string& model, const std::string& graph) {
  return model + '|' + graph;
}

const char* BreakerStateName(InferenceEngine::BreakerState state) {
  switch (state) {
    case InferenceEngine::BreakerState::kClosed: return "closed";
    case InferenceEngine::BreakerState::kOpen: return "open";
    case InferenceEngine::BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

}  // namespace

Status InferenceEngine::BreakerAdmit(const std::string& model,
                                     const std::string& graph) {
  MutexLock lock(&breaker_mu_);
  auto it = breakers_.find(BreakerKey(model, graph));
  if (it == breakers_.end()) return Status::OK();  // closed, never failed
  BreakerEntry& entry = it->second;
  switch (entry.state) {
    case BreakerState::kClosed:
      return Status::OK();
    case BreakerState::kOpen: {
      if (ServingClock::now() < entry.open_until) {
        breaker_fast_fails_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable("circuit breaker open for model '" + model +
                                   "' on graph '" + graph +
                                   "' after repeated forward failures; "
                                   "retry later");
      }
      // Cooldown elapsed: half-open, let exactly one probe forward through.
      entry.state = BreakerState::kHalfOpen;
      entry.probe_in_flight = true;
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    case BreakerState::kHalfOpen: {
      if (entry.probe_in_flight) {
        breaker_fast_fails_.fetch_add(1, std::memory_order_relaxed);
        return Status::Unavailable("circuit breaker half-open for model '" +
                                   model + "' on graph '" + graph +
                                   "'; a probe is already in flight");
      }
      entry.probe_in_flight = true;
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  return Status::OK();
}

void InferenceEngine::BreakerReport(const std::string& model,
                                    const std::string& graph, bool ok) {
  MutexLock lock(&breaker_mu_);
  const std::string key = BreakerKey(model, graph);
  auto it = breakers_.find(key);
  if (ok) {
    // Success closes from any state and resets the failure streak; a pair
    // with no entry IS the closed state, so just drop it.
    if (it == breakers_.end()) return;
    if (it->second.state != BreakerState::kClosed) {
      breaker_closes_.fetch_add(1, std::memory_order_relaxed);
    }
    breakers_.erase(it);
    return;
  }
  BreakerEntry& entry =
      it == breakers_.end() ? breakers_[key] : it->second;
  entry.probe_in_flight = false;
  ++entry.consecutive_failures;
  // A failed half-open probe re-opens immediately; a closed breaker opens
  // once the streak reaches the threshold.
  if (entry.state == BreakerState::kHalfOpen ||
      entry.consecutive_failures >= breaker_failure_threshold_) {
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    entry.state = BreakerState::kOpen;
    entry.open_until = ServingClock::now() + breaker_open_duration_;
  }
}

void InferenceEngine::EraseBreakers(const std::string& model,
                                    const std::string& graph) {
  MutexLock lock(&breaker_mu_);
  for (auto it = breakers_.begin(); it != breakers_.end();) {
    const std::string& key = it->first;
    const size_t sep = key.find('|');
    const bool model_matches = model.empty() || key.compare(0, sep, model) == 0;
    const bool graph_matches =
        graph.empty() || key.compare(sep + 1, std::string::npos, graph) == 0;
    it = model_matches && graph_matches ? breakers_.erase(it) : std::next(it);
  }
}

// ---- Serving ---------------------------------------------------------------

std::future<Result<PredictResponse>> InferenceEngine::Submit(
    PredictRequest request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  return batcher_->Submit(std::move(request));
}

Result<Tensor> InferenceEngine::Predict(const std::string& name,
                                        const Tensor& features,
                                        const SparseOperatorPtr& op) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Result<ModelHandle> handle = LookupModel(name);
  if (!handle.ok()) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    return handle.status();
  }
  // Same forward the batcher runs, minus the queue: an ephemeral (uncached,
  // unversioned) graph context at exact fp32. One scratch per serving
  // thread, reused across requests and models (buffers only ever grow).
  GraphContext context;
  context.features = features;
  context.op = op;
  static thread_local PredictScratch scratch;
  const ServingClock::time_point start = ServingClock::now();
  Result<Tensor> logits = ForwardFullGraph(*handle.ValueOrDie().model, context,
                                           Precision::kFp32, &scratch);
  const ModelCountersPtr& counters = handle.ValueOrDie().counters;
  if (logits.ok()) {
    counters->successes.fetch_add(1, std::memory_order_relaxed);
    const double us = std::chrono::duration<double, std::micro>(
                          ServingClock::now() - start)
                          .count();
    counters->latency.Record(us);
    counters->forward_fp32.Record(us);  // sync Predict is always exact fp32
  } else {
    counters->failures.fetch_add(1, std::memory_order_relaxed);
    failures_.fetch_add(1, std::memory_order_relaxed);
  }
  return logits;
}

InferenceEngine::Stats InferenceEngine::GetStats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.failures = failures_.load(std::memory_order_relaxed);
  stats.batcher = batcher_->GetStats();
  stats.breaker.trips = breaker_trips_.load(std::memory_order_relaxed);
  stats.breaker.fast_fails =
      breaker_fast_fails_.load(std::memory_order_relaxed);
  stats.breaker.probes = breaker_probes_.load(std::memory_order_relaxed);
  stats.breaker.closes = breaker_closes_.load(std::memory_order_relaxed);
  {
    MutexLock block(&breaker_mu_);
    for (const auto& [key, entry] : breakers_) {
      stats.breaker.state[key] = BreakerStateName(entry.state);
    }
  }
  ReaderLock lock(&mu_);
  for (const auto& [name, entry] : models_) {
    ModelStats& m = stats.per_model[name];
    m.successes = entry.counters->successes.load(std::memory_order_relaxed);
    m.failures = entry.counters->failures.load(std::memory_order_relaxed);
    m.p50_us = entry.counters->latency.p50();
    m.p99_us = entry.counters->latency.p99();
    m.fp32_forwards = entry.counters->forward_fp32.count();
    m.int8_forwards = entry.counters->forward_int8.count();
    m.fp32_forward_p50_us = entry.counters->forward_fp32.p50();
    m.fp32_forward_p99_us = entry.counters->forward_fp32.p99();
    m.int8_forward_p50_us = entry.counters->forward_int8.p50();
    m.int8_forward_p99_us = entry.counters->forward_int8.p99();
  }
  return stats;
}

}  // namespace engine
}  // namespace mixq
