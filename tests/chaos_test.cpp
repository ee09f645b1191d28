// Copyright 2026 MixQ-GNN Authors
// Chaos suite for the self-healing serving stack: drives seeded,
// deterministic fault schedules (common/fault_injection.h) through the full
// Submit path and asserts the failure-model invariant of DESIGN.md §7 —
// every submitted future resolves with a typed Status (no hangs, no
// abandoned promises, no crashed dispatcher), and the engine recovers once
// faults stop. Individual tests pin single sites (throwing forward, failed
// allocation, corrupt bundle, slow kernel, overload shed) to check each
// containment edge; the storm test replays whole seeded schedules. Under a
// MIXQ_FAULTS=seed:rate environment (the CI chaos job) the storm test runs
// that exact schedule, so a red seed reproduces locally with the same value.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/experiment.h"
#include "engine/inference_engine.h"
#include "engine/model_bundle.h"

namespace mixq {
namespace {

using engine::BatcherOptions;
using engine::CompileModel;
using engine::CompiledModelPtr;
using engine::InferenceEngine;
using engine::Precision;
using engine::PredictRequest;
using engine::PredictResponse;
using engine::ServingClock;

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "chaos-tiny";
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
                                             uint64_t seed = 1) {
  NodeExperimentConfig cfg;
  cfg.hidden = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.2f;
  cfg.train.epochs = 12;
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

// Artifacts are immutable once trained; train each kind once for the suite.
const std::shared_ptr<ModelArtifact>& Qat8Artifact() {
  static const auto artifact =
      new std::shared_ptr<ModelArtifact>(TrainArtifact(SchemeRef::Qat(8)));
  return *artifact;
}
const std::shared_ptr<ModelArtifact>& Fp32Artifact() {
  static const auto artifact =
      new std::shared_ptr<ModelArtifact>(TrainArtifact(SchemeRef::Fp32()));
  return *artifact;
}

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

/// Every test starts and ends disarmed with the default delay, so a
/// MIXQ_FAULTS environment (armed at static init) only shapes the storm
/// test — the single-site tests below stay deterministic under any seed.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Global().Disarm();
    fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(25));
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(25));
  }
};

// Satellite regression: a forward that throws inside the dispatcher fails
// exactly the futures behind it with kInternal — none are left unfulfilled,
// the dispatcher thread survives, and the next Submit serves normally.
TEST_F(ChaosTest, ThrowingForwardLeavesNoUnfulfilledFutures) {
  CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
  BatcherOptions options;
  options.enable_cache = false;
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(
      engine.RegisterGraph("g", Qat8Artifact()->features, Qat8Artifact()->op)
          .ok());

  fault::FaultInjector::Global().ArmSite("plan.forward.throw",
                                         fault::SiteSchedule{1.0, 1, 0});
  Result<PredictResponse> faulted = engine.Submit(MakeRequest("m", "g", {0})).get();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_NE(faulted.status().message().find("injected"), std::string::npos);

  // The single scheduled fault is spent: the same engine serves again.
  Result<PredictResponse> healthy = engine.Submit(MakeRequest("m", "g", {0})).get();
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_GE(engine.GetStats().batcher.contained_faults, 1);
  // in_dispatch is decremented after promises are fulfilled; poll briefly.
  EXPECT_TRUE(
      WaitFor([&] { return engine.GetStats().batcher.in_dispatch == 0; }));
}

// An allocation failure growing executor scratch takes the same contained
// path as a throwing kernel: typed kInternal, dispatcher intact.
TEST_F(ChaosTest, AllocationFaultIsContainedAndTyped) {
  CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
  BatcherOptions options;
  options.enable_cache = false;
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(
      engine.RegisterGraph("g", Qat8Artifact()->features, Qat8Artifact()->op)
          .ok());

  fault::FaultInjector::Global().ArmSite("plan.alloc",
                                         fault::SiteSchedule{1.0, 1, 0});
  Result<PredictResponse> faulted = engine.Submit(MakeRequest("m", "g", {0})).get();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(engine.Submit(MakeRequest("m", "g", {0})).get().ok());
}

// The breaker state machine end to end: consecutive contained failures trip
// it open, open fast-fails kUnavailable without running a forward, the
// half-open probe after the cooldown closes it again once faults stop.
TEST_F(ChaosTest, BreakerTripsFastFailsAndRecovers) {
  CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
  BatcherOptions options;
  options.enable_cache = false;
  options.breaker_failure_threshold = 2;
  options.breaker_open_duration = std::chrono::milliseconds(1000);
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(
      engine.RegisterGraph("g", Qat8Artifact()->features, Qat8Artifact()->op)
          .ok());

  fault::FaultInjector::Global().ArmSite("plan.forward.throw",
                                         fault::SiteSchedule{1.0, 2, 0});
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {0})).get().status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(engine.Submit(MakeRequest("m", "g", {0})).get().status().code(),
            StatusCode::kInternal);
  const ServingClock::time_point tripped = ServingClock::now();

  InferenceEngine::Stats mid = engine.GetStats();
  EXPECT_EQ(mid.breaker.trips, 1);
  ASSERT_EQ(mid.breaker.state.count("m|g"), 1u);
  EXPECT_EQ(mid.breaker.state.at("m|g"), "open");
  const int64_t forwards_when_open = mid.batcher.forwards;

  Result<PredictResponse> fast = engine.Submit(MakeRequest("m", "g", {0})).get();
  if (ServingClock::now() - tripped < std::chrono::milliseconds(900)) {
    // Within the cooldown (generous margin for slow machines): the breaker
    // answered without a forward.
    EXPECT_EQ(fast.status().code(), StatusCode::kUnavailable);
    InferenceEngine::Stats open_stats = engine.GetStats();
    EXPECT_EQ(open_stats.batcher.forwards, forwards_when_open);
    EXPECT_GE(open_stats.breaker.fast_fails, 1);
  }

  // Both scheduled faults are spent; after the cooldown the single half-open
  // probe runs clean and the breaker closes (entry dropped = closed).
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  Result<PredictResponse> probe = engine.Submit(MakeRequest("m", "g", {0})).get();
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_GE(stats.breaker.probes, 1);
  EXPECT_GE(stats.breaker.closes, 1);
  EXPECT_EQ(stats.breaker.state.count("m|g"), 0u);
  EXPECT_GE(stats.batcher.contained_faults, 2);
}

// A forward wedged past max_forward_stall must not wedge the queue behind
// it: the watchdog expires queued past-deadline waiters while the forward
// is still running, and patient requests are served once it returns.
TEST_F(ChaosTest, WatchdogExpiresQueuedWaitersDuringStalledForward) {
  CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
  BatcherOptions options;
  options.enable_cache = false;
  options.breaker_failure_threshold = 0;  // isolate the watchdog
  options.watchdog_poll = std::chrono::milliseconds(5);
  options.max_forward_stall = std::chrono::milliseconds(50);
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("m", model).ok());
  ASSERT_TRUE(
      engine.RegisterGraph("g", Qat8Artifact()->features, Qat8Artifact()->op)
          .ok());

  // One forward sleeps 1.5 s (an injected slow kernel), far past the stall
  // budget.
  fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(1500));
  fault::FaultInjector::Global().ArmSite("plan.forward.delay",
                                         fault::SiteSchedule{1.0, 1, 0});

  std::future<Result<PredictResponse>> slow =
      engine.Submit(MakeRequest("m", "g", {0}));
  ASSERT_TRUE(WaitFor([&] {
    InferenceEngine::Stats s = engine.GetStats();
    return s.batcher.in_dispatch >= 1 && s.batcher.queue_depth == 0;
  }));

  PredictRequest doomed_request = MakeRequest("m", "g", {1});
  doomed_request.deadline = ServingClock::now() + std::chrono::milliseconds(100);
  std::future<Result<PredictResponse>> doomed =
      engine.Submit(std::move(doomed_request));
  std::future<Result<PredictResponse>> patient =
      engine.Submit(MakeRequest("m", "g", {2}));

  // The doomed waiter resolves while the forward is still wedged — that is
  // the watchdog acting, not the dispatcher's next drain.
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(engine.GetStats().batcher.watchdog_expired, 1);

  EXPECT_TRUE(slow.get().ok());
  EXPECT_TRUE(patient.get().ok());
}

// Bundle-path faults become the loader's typed errors: a failed read is
// kInternal, injected bit rot takes the CRC path's kInvalidArgument, and a
// clean retry loads.
TEST_F(ChaosTest, BundleReadAndCrcFaultsAreTyped) {
  CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
  const std::string path = ::testing::TempDir() + "chaos_model.mqb";
  ASSERT_TRUE(engine::SaveBundle(*model, path).ok());

  fault::FaultInjector::Global().ArmSite("bundle.read",
                                         fault::SiteSchedule{1.0, 1, 0});
  EXPECT_EQ(engine::LoadBundle(path).status().code(), StatusCode::kInternal);
  fault::FaultInjector::Global().Disarm();

  fault::FaultInjector::Global().ArmSite("bundle.crc",
                                         fault::SiteSchedule{1.0, 1, 0});
  Result<CompiledModelPtr> corrupt = engine::LoadBundle(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(corrupt.status().message().find("injected"), std::string::npos);
  fault::FaultInjector::Global().Disarm();

  Result<CompiledModelPtr> clean = engine::LoadBundle(path);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

// The shed rung of the degradation ladder: when a drained batch crosses the
// shed threshold, kAuto groups that would need a full fp32 forward (no
// cache, no pruning, no int8 lowering) fail fast with kUnavailable instead
// of queuing a forward nobody can afford — and serve normally once load
// drops.
TEST_F(ChaosTest, OverloadShedsUnpayableAutoRequests) {
  CompiledModelPtr fp32_model = CompileModel(*Fp32Artifact()).ValueOrDie();
  ASSERT_FALSE(fp32_model->info().lowered_int8);  // kAuto resolves to fp32

  BatcherOptions options;
  options.enable_cache = false;
  options.enable_pruning = false;
  options.degrade_batch_threshold = 4;
  options.shed_batch_threshold = 6;
  InferenceEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("f", fp32_model).ok());
  ASSERT_TRUE(engine.RegisterModel("slow", fp32_model).ok());
  ASSERT_TRUE(
      engine.RegisterGraph("g", Fp32Artifact()->features, Fp32Artifact()->op)
          .ok());
  ASSERT_TRUE(
      engine.RegisterGraph("stall", Fp32Artifact()->features, Fp32Artifact()->op)
          .ok());

  // Stall the dispatcher so the burst accumulates into one drained batch:
  // one forward sleeps 300 ms (under max_forward_stall, so the watchdog
  // stays out of it) over its own model and graph names. The stalled
  // request asks for fp32 explicitly, which the ladder never sheds.
  fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(300));
  fault::FaultInjector::Global().ArmSite("plan.forward.delay",
                                         fault::SiteSchedule{1.0, 1, 0});
  std::future<Result<PredictResponse>> blocked =
      engine.Submit(MakeRequest("slow", "stall"));
  ASSERT_TRUE(WaitFor([&] {
    InferenceEngine::Stats s = engine.GetStats();
    return s.batcher.in_dispatch >= 1 && s.batcher.queue_depth == 0;
  }));

  constexpr int kClients = 8;
  std::vector<std::future<Result<PredictResponse>>> futures;
  for (int i = 0; i < kClients; ++i) {
    futures.push_back(
        engine.Submit(MakeRequest("f", "g", {i}, Precision::kAuto)));
  }

  ASSERT_TRUE(blocked.get().ok());
  fault::FaultInjector::Global().Disarm();
  for (auto& future : futures) {
    Result<PredictResponse> result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(result.status().message().find("load shed"), std::string::npos);
  }
  InferenceEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.batcher.shed, kClients);
  EXPECT_EQ(stats.breaker.trips, 0);  // sheds never feed the breaker

  // Load gone (drained batches back under the threshold): served normally.
  Result<PredictResponse> calm =
      engine.Submit(MakeRequest("f", "g", {0}, Precision::kAuto)).get();
  EXPECT_TRUE(calm.ok()) << calm.status().ToString();
}

// The acceptance storm: whole seeded schedules (every site firing at `rate`)
// against a serving engine under concurrent load. Invariant: every future
// resolves with a typed Status; afterwards, with faults disarmed, the engine
// recovers and no breaker is left open. Under MIXQ_FAULTS=seed:rate (the CI
// chaos job) the storm replays exactly that schedule.
TEST_F(ChaosTest, SeededFaultStormEveryFutureResolves) {
  CompiledModelPtr qat_model = CompileModel(*Qat8Artifact()).ValueOrDie();
  CompiledModelPtr fp32_model = CompileModel(*Fp32Artifact()).ValueOrDie();

  std::vector<std::pair<uint64_t, double>> schedules;
  if (const char* env = std::getenv("MIXQ_FAULTS")) {
    const uint64_t seed = std::strtoull(env, nullptr, 10);
    const char* colon = std::strchr(env, ':');
    const double rate = colon != nullptr ? std::strtod(colon + 1, nullptr) : 0.1;
    schedules.emplace_back(seed, rate);
  } else {
    for (uint64_t seed = 1; seed <= 3; ++seed) schedules.emplace_back(seed, 0.08);
  }

  for (const auto& [seed, rate] : schedules) {
    SCOPED_TRACE("MIXQ_FAULTS=" + std::to_string(seed) + ":" +
                 std::to_string(rate));
    fault::FaultInjector::Global().Arm(seed, rate);
    fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(2));

    BatcherOptions options;
    options.watchdog_poll = std::chrono::milliseconds(5);
    options.max_forward_stall = std::chrono::milliseconds(100);
    options.breaker_failure_threshold = 3;
    options.breaker_open_duration = std::chrono::milliseconds(50);
    InferenceEngine engine(options);
    ASSERT_TRUE(engine.RegisterModel("q", qat_model).ok());
    ASSERT_TRUE(engine.RegisterModel("f", fp32_model).ok());
    ASSERT_TRUE(
        engine.RegisterGraph("g", Qat8Artifact()->features, Qat8Artifact()->op)
            .ok());

    const int64_t n = Qat8Artifact()->features.rows();
    std::vector<std::future<Result<PredictResponse>>> futures;
    for (int i = 0; i < 150; ++i) {
      PredictRequest request;
      request.model = i % 3 == 0 ? "f" : "q";
      request.graph = "g";
      request.precision = i % 4 == 0 ? Precision::kAuto : Precision::kFp32;
      if (i % 5 == 0) request.node_ids = {i % n};
      if (i % 7 == 0) {
        request.deadline = ServingClock::now() + std::chrono::milliseconds(100);
      }
      futures.push_back(engine.Submit(std::move(request)));
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    for (size_t i = 0; i < futures.size(); ++i) {
      ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "future " << i << " never resolved";
      Result<PredictResponse> result = futures[i].get();
      if (!result.ok()) {
        EXPECT_NE(result.status().code(), StatusCode::kOk);
        EXPECT_FALSE(result.status().message().empty());
      }
    }

    // Faults stop -> self-healing: requests succeed again (the breaker's
    // cooldown is 50 ms, so WaitFor outlives any open window), and no
    // breaker is left open.
    fault::FaultInjector::Global().Disarm();
    ASSERT_TRUE(WaitFor(
        [&] { return engine.Submit(MakeRequest("q", "g", {0})).get().ok(); }));
    for (const auto& [key, state] : engine.GetStats().breaker.state) {
      EXPECT_NE(state, "open") << key;
    }
  }  // ~InferenceEngine: admission closes, dispatcher drains and joins
}

}  // namespace
}  // namespace mixq
