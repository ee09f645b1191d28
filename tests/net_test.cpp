// Copyright 2026 MixQ-GNN Authors
// Tests for the network front door (src/net/): wire-protocol codec units,
// offline and live byte-flip fuzzing of the framing layer (every corrupt
// frame must come back as a typed error or a clean close — never a crash,
// never a hang; the asan-ubsan CI job runs exactly this), loopback
// end-to-end parity (remote predictions bitwise identical to in-process
// Submit across the fp32 / int8 / pruned / cached routes), wire-level
// overload semantics (deadline expiry, queue overflow, connection limit as
// typed frames on a healthy connection), seeded fault storms on the
// net.read / net.write / net.accept sites, hot bundle rollouts through the
// watched directory, and clean server shutdown as a typed goodbye.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/experiment.h"
#include "engine/inference_engine.h"
#include "engine/model_bundle.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"

namespace mixq {
namespace {

using engine::BatcherOptions;
using engine::CompileModel;
using engine::CompiledModelPtr;
using engine::InferenceEngine;
using engine::Precision;
using engine::PredictRequest;
using engine::PredictResponse;
using net::ClientOptions;
using net::FrameHeader;
using net::FrameType;
using net::MixqClient;
using net::MixqServer;
using net::RemoteReply;
using net::RemoteRequest;
using net::RemoteResponse;
using net::ServerOptions;
using net::WirePredictRequest;
using net::WirePredictResponse;

NodeDataset TinyCitation(uint64_t seed = 1) {
  CitationConfig c;
  c.name = "net-tiny";
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
  static const auto artifact = new std::shared_ptr<ModelArtifact>(
      TrainArtifact(SchemeRef::Fp32(), /*seed=*/2));
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

/// Fast transfer pacing for every test connection: a wedged transfer turns
/// into a typed kDeadlineExceeded in 2 s, not the production 10 s.
net::IoOptions TestIo(int stall_ms = 2000) {
  net::IoOptions io;
  io.poll_interval = std::chrono::milliseconds(5);
  io.stall_timeout = std::chrono::milliseconds(stall_ms);
  return io;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// ---- wire codec units -------------------------------------------------------

TEST(WireTest, PredictRequestRoundTrip) {
  WirePredictRequest request;
  request.model = "m";
  request.graph = "g";
  request.node_ids = {0, 7, 151};
  request.precision = Precision::kInt8;
  request.deadline_us = 250000;
  ByteWriter body;
  EncodePredictRequest(request, &body);
  const auto frame = BuildFrame(FrameType::kPredictRequest, 42, body);
  ASSERT_GE(frame.size(), net::kFrameHeaderBytes);

  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &header).ok());
  EXPECT_EQ(header.major, net::kProtocolMajor);
  EXPECT_EQ(header.type, static_cast<uint8_t>(FrameType::kPredictRequest));
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.payload_bytes, frame.size() - net::kFrameHeaderBytes);
  ASSERT_TRUE(net::CheckFramePayload(header,
                                     frame.data() + net::kFrameHeaderBytes,
                                     header.payload_bytes)
                  .ok());
  ByteReader reader(frame.data() + net::kFrameHeaderBytes,
                    header.payload_bytes);
  WirePredictRequest decoded;
  ASSERT_TRUE(net::DecodePredictRequest(&reader, &decoded).ok());
  EXPECT_EQ(decoded.model, "m");
  EXPECT_EQ(decoded.graph, "g");
  EXPECT_EQ(decoded.node_ids, request.node_ids);
  EXPECT_EQ(decoded.precision, Precision::kInt8);
  EXPECT_EQ(decoded.deadline_us, 250000);
}

TEST(WireTest, PredictResponseAndStatusRoundTrip) {
  WirePredictResponse response;
  response.rows = 2;
  response.cols = 3;
  response.data = {1.5f, -2.25f, 0.0f, 3.0f, -0.5f, 7.75f};
  response.node_ids = {4, 9};
  response.precision = Precision::kFp32;
  response.cache_hit = true;
  response.batch_size = 5;
  response.queue_us = 12.5;
  response.server_us = 99.0;
  ByteWriter body;
  EncodePredictResponse(response, &body);
  ByteReader reader(body.buffer().data(), body.size());
  WirePredictResponse decoded;
  ASSERT_TRUE(net::DecodePredictResponse(&reader, &decoded).ok());
  EXPECT_EQ(decoded.data, response.data);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_FALSE(decoded.pruned);
  EXPECT_EQ(decoded.batch_size, 5);
  EXPECT_EQ(decoded.server_us, 99.0);

  // Status bodies keep the typed code across the wire — the overload
  // contract depends on exactly this.
  for (const Status& status :
       {Status::ResourceExhausted("queue full"),
        Status::DeadlineExceeded("expired"), Status::Unavailable("shed"),
        Status::NotFound("no such model"), Status::OK()}) {
    ByteWriter status_body;
    net::EncodeStatusBody(status, &status_body);
    ByteReader status_reader(status_body.buffer().data(), status_body.size());
    Status back = Status::Internal("sentinel");
    ASSERT_TRUE(net::DecodeStatusBody(&status_reader, &back).ok());
    EXPECT_EQ(back.code(), status.code());
    EXPECT_EQ(back.message(), status.message());
  }
}

TEST(WireTest, HeaderRejectsGarbageFutureMajorAndOversize) {
  ByteWriter body;
  auto frame = BuildFrame(FrameType::kPing, 1, body);
  FrameHeader header;

  auto bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(net::DecodeFrameHeader(bad_magic.data(), &header).code(),
            StatusCode::kInvalidArgument);

  auto future_major = frame;
  future_major[4] = net::kProtocolMajor + 1;
  EXPECT_EQ(net::DecodeFrameHeader(future_major.data(), &header).code(),
            StatusCode::kNotImplemented);

  // A future MINOR is accepted — append-only evolution.
  auto future_minor = frame;
  future_minor[5] = net::kProtocolMinor + 9;
  EXPECT_TRUE(net::DecodeFrameHeader(future_minor.data(), &header).ok());

  auto oversize = frame;
  oversize[16] = 0xff;  // payload_bytes little-endian
  oversize[17] = 0xff;
  oversize[18] = 0xff;
  oversize[19] = 0xff;
  EXPECT_EQ(net::DecodeFrameHeader(oversize.data(), &header).code(),
            StatusCode::kInvalidArgument);

  auto reserved = frame;
  reserved[7] = 1;
  EXPECT_FALSE(net::DecodeFrameHeader(reserved.data(), &header).ok());
}

TEST(WireTest, TrailingPayloadBytesAreIgnored) {
  // A future minor appends fields; an old peer must decode what it knows.
  WirePredictRequest request;
  request.model = "m";
  request.graph = "g";
  ByteWriter body;
  EncodePredictRequest(request, &body);
  body.PutU64(0xdeadbeef);  // the "future field"
  ByteReader reader(body.buffer().data(), body.size());
  WirePredictRequest decoded;
  EXPECT_TRUE(net::DecodePredictRequest(&reader, &decoded).ok());
  EXPECT_EQ(decoded.model, "m");
}

// Offline fuzz: the exact decode pipeline the server runs, against every
// single-bit corruption and every truncation of a valid frame. The
// invariant is SOFT on outcome (a flip may leave the frame valid) but HARD
// on behavior: a typed Status or a successful decode — no crash, no UB
// (the asan-ubsan job turns violations into failures).
TEST(WireFuzzTest, EveryBitFlipDecodesTypedOrValid) {
  WirePredictRequest request;
  request.model = "model-name";
  request.graph = "graph-name";
  request.node_ids = {1, 2, 3, 4};
  request.precision = Precision::kAuto;
  request.deadline_us = 1000;
  ByteWriter body;
  EncodePredictRequest(request, &body);
  const auto frame = BuildFrame(FrameType::kPredictRequest, 7, body);

  auto decode = [](const std::vector<uint8_t>& bytes) {
    if (bytes.size() < net::kFrameHeaderBytes) {
      return Status::OutOfRange("short frame");
    }
    FrameHeader header;
    MIXQ_RETURN_NOT_OK(net::DecodeFrameHeader(bytes.data(), &header));
    const size_t have = bytes.size() - net::kFrameHeaderBytes;
    if (have < header.payload_bytes) return Status::OutOfRange("truncated");
    MIXQ_RETURN_NOT_OK(net::CheckFramePayload(
        header, bytes.data() + net::kFrameHeaderBytes, header.payload_bytes));
    ByteReader reader(bytes.data() + net::kFrameHeaderBytes,
                      header.payload_bytes);
    WirePredictRequest decoded;
    return net::DecodePredictRequest(&reader, &decoded);
  };
  ASSERT_TRUE(decode(frame).ok());

  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = frame;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      const Status status = decode(mutated);
      if (!status.ok()) {
        EXPECT_FALSE(status.message().empty());
      }
    }
  }
  for (size_t len = 0; len <= frame.size(); ++len) {
    decode(std::vector<uint8_t>(frame.begin(), frame.begin() + len));
  }
}

TEST(WireFuzzTest, ResponseAndStatusBodiesSurviveBitFlips) {
  WirePredictResponse response;
  response.rows = 3;
  response.cols = 2;
  response.data = {1, 2, 3, 4, 5, 6};
  response.node_ids = {0, 1, 2};
  ByteWriter body;
  EncodePredictResponse(response, &body);
  for (size_t i = 0; i < body.size(); ++i) {
    auto mutated = body.buffer();
    mutated[i] ^= 0x55;
    ByteReader reader(mutated.data(), mutated.size());
    WirePredictResponse decoded;
    net::DecodePredictResponse(&reader, &decoded);  // typed or valid, no UB
  }
  ByteWriter status_body;
  net::EncodeStatusBody(Status::Unavailable("shed"), &status_body);
  for (size_t i = 0; i < status_body.size(); ++i) {
    auto mutated = status_body.buffer();
    mutated[i] ^= 0xff;
    ByteReader reader(mutated.data(), mutated.size());
    Status decoded;
    net::DecodeStatusBody(&reader, &decoded);
  }
}

// ---- loopback fixture -------------------------------------------------------

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Global().Disarm();
    fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(25));
  }
  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    fault::FaultInjector::Global().Disarm();
    fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(25));
  }

  /// Engine with the qat8 model as "m" and its graph as "g", behind a
  /// loopback server on an ephemeral port.
  void StartServer(BatcherOptions options = BatcherOptions(),
                   ServerOptions server_options = ServerOptions()) {
    engine_ = std::make_unique<InferenceEngine>(options);
    CompiledModelPtr model = CompileModel(*Qat8Artifact()).ValueOrDie();
    ASSERT_TRUE(engine_->RegisterModel("m", model).ok());
    ASSERT_TRUE(engine_
                    ->RegisterGraph("g", Qat8Artifact()->features,
                                    Qat8Artifact()->op)
                    .ok());
    server_options.io = TestIo();
    server_ = std::make_unique<MixqServer>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<MixqClient> Connect(int stall_ms = 2000) {
    ClientOptions options;
    options.io = TestIo(stall_ms);
    return MixqClient::Connect("127.0.0.1", server_->port(), options);
  }

  static RemoteRequest Remote(std::vector<int64_t> node_ids = {},
                              Precision precision = Precision::kFp32) {
    RemoteRequest request;
    request.model = "m";
    request.graph = "g";
    request.node_ids = std::move(node_ids);
    request.precision = precision;
    return request;
  }

  Result<PredictResponse> InProcess(std::vector<int64_t> node_ids = {},
                                    Precision precision = Precision::kFp32) {
    PredictRequest request;
    request.model = "m";
    request.graph = "g";
    request.node_ids = std::move(node_ids);
    request.precision = precision;
    return engine_->Submit(std::move(request)).get();
  }

  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<MixqServer> server_;
};

// Satellite 4: remote predictions are BITWISE identical to in-process
// Submit on every serving route — pruned, full fp32, cached, and int8.
TEST_F(NetTest, LoopbackParityAcrossAllRoutes) {
  BatcherOptions options;
  options.pruned_min_graph_nodes = 1;  // let the tiny graph take pruned
  StartServer(options);
  auto connected = Connect();
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  MixqClient client = connected.MoveValueOrDie();

  // Pruned route first (an empty cache is what routes it pruned).
  auto pruned = client.Predict(Remote({5}));
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_TRUE(pruned.ValueOrDie().pruned);
  EXPECT_GT(pruned.ValueOrDie().frontier_rows, 0);

  // Full fp32 forward, against the in-process response.
  auto in_process_full = InProcess();
  ASSERT_TRUE(in_process_full.ok());
  auto remote_full = client.Predict(Remote());
  ASSERT_TRUE(remote_full.ok()) << remote_full.status().ToString();
  EXPECT_TRUE(BitwiseEqual(remote_full.ValueOrDie().rows,
                           in_process_full.ValueOrDie().rows));
  EXPECT_EQ(remote_full.ValueOrDie().precision, Precision::kFp32);

  // The pruned row must match the full forward's row bitwise.
  for (int64_t c = 0; c < in_process_full.ValueOrDie().rows.cols(); ++c) {
    EXPECT_EQ(pruned.ValueOrDie().rows.at(0, c),
              in_process_full.ValueOrDie().rows.at(5, c));
  }

  // Cached route: the repeat full query is a cache hit, still bitwise equal.
  auto cached = client.Predict(Remote());
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.ValueOrDie().cache_hit);
  EXPECT_TRUE(BitwiseEqual(cached.ValueOrDie().rows,
                           in_process_full.ValueOrDie().rows));

  // Int8 route.
  auto in_process_int8 = InProcess({}, Precision::kInt8);
  ASSERT_TRUE(in_process_int8.ok());
  auto remote_int8 = client.Predict(Remote({}, Precision::kInt8));
  ASSERT_TRUE(remote_int8.ok()) << remote_int8.status().ToString();
  EXPECT_EQ(remote_int8.ValueOrDie().precision, Precision::kInt8);
  EXPECT_TRUE(BitwiseEqual(remote_int8.ValueOrDie().rows,
                           in_process_int8.ValueOrDie().rows));

  // Unknown names come back typed, and the connection survives them.
  RemoteRequest unknown = Remote();
  unknown.model = "nope";
  EXPECT_EQ(client.Predict(unknown).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(client.broken());
  EXPECT_TRUE(client.Predict(Remote()).ok());
}

// Pipelined remote clients coalesce in the micro-batcher exactly like
// in-process Submit callers: one shared forward serves many frames.
TEST_F(NetTest, PipelinedRequestsCoalesce) {
  BatcherOptions options;
  options.enable_cache = false;
  options.enable_pruning = false;
  StartServer(options);
  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();

  constexpr int kBurst = 24;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(Remote({i % 160}), &id).ok());
    ids.push_back(id);
  }
  EXPECT_EQ(client.outstanding(), kBurst);
  int64_t max_batch = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto received = client.Receive();
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    RemoteReply reply = received.MoveValueOrDie();
    EXPECT_EQ(reply.request_id, ids[i]) << "replies must arrive in order";
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    max_batch = std::max(max_batch, reply.response.batch_size);
  }
  EXPECT_EQ(client.outstanding(), 0);
  // The burst lands while the first forward runs; the rest coalesce.
  EXPECT_GT(max_batch, 1);
  EXPECT_LT(engine_->GetStats().batcher.forwards, kBurst);
}

// Satellite 4 (overload half): deadline expiry and queue overflow travel as
// typed kError frames on a connection that stays healthy.
TEST_F(NetTest, DeadlineAndOverflowAreTypedWireErrors) {
  BatcherOptions options;
  options.enable_cache = false;
  options.enable_pruning = false;
  options.queue_capacity = 2;
  StartServer(options);
  auto connected = Connect(5000);
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();

  // One scheduled slow forward stalls the dispatcher while the burst lands.
  fault::FaultInjector::Global().ArmSite("plan.forward.delay",
                                         fault::SiteSchedule{1.0, 1, 0});
  fault::FaultInjector::Global().SetDelay(std::chrono::milliseconds(400));

  uint64_t slow_id = 0;
  ASSERT_TRUE(client.Send(Remote(), &slow_id).ok());
  ASSERT_TRUE(WaitFor([&] {
    InferenceEngine::Stats s = engine_->GetStats();
    return s.batcher.in_dispatch >= 1 && s.batcher.queue_depth == 0;
  }));

  // Queued behind the stall: one request that expires first, one that
  // survives, and two past the admission bound.
  RemoteRequest expiring = Remote({1});
  expiring.deadline_us = 50000;
  uint64_t expiring_id = 0, ok_id = 0, over1_id = 0, over2_id = 0;
  ASSERT_TRUE(client.Send(expiring, &expiring_id).ok());
  ASSERT_TRUE(client.Send(Remote({2}), &ok_id).ok());
  ASSERT_TRUE(client.Send(Remote({3}), &over1_id).ok());
  ASSERT_TRUE(client.Send(Remote({4}), &over2_id).ok());

  std::map<uint64_t, Status> outcomes;
  for (int i = 0; i < 5; ++i) {
    auto received = client.Receive();
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    RemoteReply reply = received.MoveValueOrDie();
    outcomes[reply.request_id] = reply.status;
  }
  EXPECT_TRUE(outcomes.at(slow_id).ok()) << outcomes.at(slow_id).ToString();
  EXPECT_EQ(outcomes.at(expiring_id).code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(outcomes.at(ok_id).ok()) << outcomes.at(ok_id).ToString();
  EXPECT_EQ(outcomes.at(over1_id).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(outcomes.at(over2_id).code(), StatusCode::kResourceExhausted);

  // The overloaded CONNECTION was never punished: it serves again.
  EXPECT_FALSE(client.broken());
  EXPECT_TRUE(client.Predict(Remote({0})).ok());
}

// Past max_connections the server answers a typed kGoodbye instead of
// dropping the socket; when a slot frees, new connections serve again.
TEST_F(NetTest, ConnectionLimitIsATypedRejection) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  StartServer(BatcherOptions(), server_options);

  auto first = Connect();
  ASSERT_TRUE(first.ok());
  MixqClient inside = first.MoveValueOrDie();
  ASSERT_TRUE(inside.Ping().ok());

  auto second = Connect();
  ASSERT_TRUE(second.ok());  // TCP accept succeeds; the protocol rejects
  MixqClient rejected = second.MoveValueOrDie();
  const Status status = rejected.Ping();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected.broken());

  inside.Close();
  ASSERT_TRUE(WaitFor([&] {
    return server_->GetStats().connections_active == 0;
  }));
  auto third = Connect();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.ValueOrDie().Ping().ok());
}

TEST_F(NetTest, StatsEndpointServesEngineAndTransportCounters) {
  StartServer();
  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();
  ASSERT_TRUE(client.Predict(Remote({0})).ok());
  auto stats = client.StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& json = stats.ValueOrDie();
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"per_model\""), std::string::npos);
  EXPECT_NE(json.find("\"predict_requests\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"connections_active\": 1"), std::string::npos);
}

// A body that decodes to garbage behind a VALID checksum is a per-request
// kError — the stream is intact, so the connection must survive.
TEST_F(NetTest, MalformedBodyBehindValidCrcKeepsConnection) {
  StartServer();
  auto raw = net::TcpConnect("127.0.0.1", server_->port(),
                             std::chrono::milliseconds(2000), TestIo());
  ASSERT_TRUE(raw.ok());
  net::TcpConnection conn = raw.MoveValueOrDie();

  ByteWriter body;
  body.PutU8(0xab);  // not a decodable PredictRequest
  auto frame = net::BuildFrame(FrameType::kPredictRequest, 9, body);
  ASSERT_TRUE(conn.WriteAll(frame.data(), frame.size()).ok());

  uint8_t header_bytes[net::kFrameHeaderBytes];
  ASSERT_TRUE(conn.ReadFull(header_bytes, sizeof(header_bytes)).ok());
  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(header_bytes, &header).ok());
  EXPECT_EQ(header.type, static_cast<uint8_t>(FrameType::kError));
  EXPECT_EQ(header.request_id, 9u);
  std::vector<uint8_t> payload(header.payload_bytes);
  ASSERT_TRUE(conn.ReadFull(payload.data(), payload.size()).ok());
  ASSERT_TRUE(
      net::CheckFramePayload(header, payload.data(), payload.size()).ok());
  ByteReader reader(payload.data(), payload.size());
  Status remote;
  ASSERT_TRUE(net::DecodeStatusBody(&reader, &remote).ok());
  EXPECT_FALSE(remote.ok());

  // Same connection, now a well-formed request: it serves.
  WirePredictRequest request;
  request.model = "m";
  request.graph = "g";
  request.node_ids = {0};
  ByteWriter good_body;
  EncodePredictRequest(request, &good_body);
  frame = net::BuildFrame(FrameType::kPredictRequest, 10, good_body);
  ASSERT_TRUE(conn.WriteAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(conn.ReadFull(header_bytes, sizeof(header_bytes)).ok());
  ASSERT_TRUE(net::DecodeFrameHeader(header_bytes, &header).ok());
  EXPECT_EQ(header.type, static_cast<uint8_t>(FrameType::kPredictResponse));
  std::vector<uint8_t> rows(header.payload_bytes);
  ASSERT_TRUE(conn.ReadFull(rows.data(), rows.size()).ok());
}

// Satellite 1, live half: byte-flipped and truncated frames against a real
// server. Every mutated connection ends in a typed reply or a clean close —
// and the server serves an honest client afterwards.
TEST_F(NetTest, LiveByteFlipFramesNeverWedgeTheServer) {
  StartServer();
  WirePredictRequest request;
  request.model = "m";
  request.graph = "g";
  request.node_ids = {3};
  ByteWriter body;
  EncodePredictRequest(request, &body);
  const auto frame = net::BuildFrame(FrameType::kPredictRequest, 1, body);

  auto drive = [&](const std::vector<uint8_t>& bytes) {
    auto raw = net::TcpConnect("127.0.0.1", server_->port(),
                               std::chrono::milliseconds(2000), TestIo(500));
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    net::TcpConnection conn = raw.MoveValueOrDie();
    if (!bytes.empty()) {
      ASSERT_TRUE(conn.WriteAll(bytes.data(), bytes.size()).ok());
    }
    conn.ShutdownWrite();  // our whole stream; the server sees EOF after it
    // Drain whatever the server answers (typed frames) until it closes.
    // The 500 ms stall budget turns "server wedged" into a test failure.
    uint8_t header_bytes[net::kFrameHeaderBytes];
    for (int replies = 0; replies < 4; ++replies) {
      const Status status = conn.ReadFull(header_bytes, sizeof(header_bytes));
      if (!status.ok()) {
        EXPECT_NE(status.code(), StatusCode::kDeadlineExceeded)
            << "server went silent instead of answering or closing";
        return;
      }
      FrameHeader header;
      ASSERT_TRUE(net::DecodeFrameHeader(header_bytes, &header).ok())
          << "server emitted an invalid frame";
      std::vector<uint8_t> payload(header.payload_bytes);
      if (!payload.empty()) {
        ASSERT_TRUE(conn.ReadFull(payload.data(), payload.size()).ok());
      }
      ASSERT_TRUE(
          net::CheckFramePayload(header, payload.data(), payload.size()).ok());
    }
  };

  // One bit flipped, at every byte of the header and a stride of the body.
  for (size_t i = 0; i < frame.size();
       i += (i < net::kFrameHeaderBytes ? 1 : 3)) {
    auto mutated = frame;
    mutated[i] ^= static_cast<uint8_t>(1u << (i % 8));
    drive(mutated);
  }
  // Truncations, including an empty connection.
  for (size_t len : {size_t(0), size_t(1), size_t(12), size_t(23), size_t(24),
                     net::kFrameHeaderBytes + 2}) {
    drive(std::vector<uint8_t>(frame.begin(), frame.begin() + len));
  }
  // Pure garbage.
  drive(std::vector<uint8_t>(64, 0xab));

  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Predict(Remote({0})).ok());
  EXPECT_GT(server_->GetStats().protocol_errors, 0);
}

// A header may claim up to the 256 MiB cap before a single payload byte is
// sent. The server must grow the payload as bytes arrive, not commit (and
// zero-fill) the claimed size first: a 200 MiB claim followed by 10 bytes
// and EOF gets the close at once, not after a 200 MiB fill.
TEST_F(NetTest, OversizedClaimThenEofClosesAtOnce) {
  StartServer();
  ByteWriter body;
  body.PutU64(7);
  auto frame = net::BuildFrame(FrameType::kPing, 1, body);
  const uint32_t claimed = 200u << 20;
  ASSERT_LT(net::kFrameHeaderBytes, frame.size());
  for (int i = 0; i < 4; ++i) {  // payload_bytes, little-endian at offset 16
    frame[static_cast<size_t>(16 + i)] = static_cast<uint8_t>(claimed >> (8 * i));
  }
  FrameHeader decoded;
  ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &decoded).ok());
  ASSERT_EQ(decoded.payload_bytes, claimed);
  frame.resize(net::kFrameHeaderBytes);
  frame.insert(frame.end(), 10, 0x5a);

  auto peak_rss_kib = [] {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_maxrss);
  };
  const int64_t peak_before = peak_rss_kib();
  auto raw = net::TcpConnect("127.0.0.1", server_->port(),
                             std::chrono::milliseconds(2000), TestIo(2000));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  net::TcpConnection conn = raw.MoveValueOrDie();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(conn.WriteAll(frame.data(), frame.size()).ok());
  conn.ShutdownWrite();
  uint8_t header_bytes[net::kFrameHeaderBytes];
  const Status status = conn.ReadFull(header_bytes, sizeof(header_bytes));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // A truncated payload ends the stream without a reply: a clean close.
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
  EXPECT_LT(elapsed.count(), 250) << "the server committed the claimed size";
  // The server runs in this process: a zero-filled 200 MiB buffer would
  // raise the peak resident set by about that much.
  EXPECT_LT(peak_rss_kib() - peak_before, 64 << 10);

  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();
  EXPECT_TRUE(client.Ping().ok());
}

// Satellite 2: a seeded fault storm on the socket sites. Both sides of the
// loopback hit net.read / net.write (and the acceptor net.accept), so calls
// die in many places — but every one returns TYPED, and when the storm
// stops the same server serves again.
TEST_F(NetTest, SocketFaultStormLeavesServerServing) {
  BatcherOptions options;
  options.enable_cache = false;
  StartServer(options);

  for (const uint64_t seed : {uint64_t(1), uint64_t(2), uint64_t(3)}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fault::FaultInjector::Global().Arm(seed, 0.0);  // seed set, sites clean
    fault::FaultInjector::Global().ArmSite("net.read",
                                           fault::SiteSchedule{0.02, -1, 0});
    fault::FaultInjector::Global().ArmSite("net.write",
                                           fault::SiteSchedule{0.02, -1, 0});
    fault::FaultInjector::Global().ArmSite("net.accept",
                                           fault::SiteSchedule{0.2, -1, 0});

    int served = 0, failed = 0;
    for (int round = 0; round < 6; ++round) {
      auto connected = Connect(1000);
      if (!connected.ok()) {
        EXPECT_FALSE(connected.status().message().empty());
        ++failed;
        continue;
      }
      MixqClient client = connected.MoveValueOrDie();
      for (int i = 0; i < 8; ++i) {
        auto result = client.Predict(Remote({(round * 8 + i) % 160}));
        if (result.ok()) {
          ++served;
        } else {
          // The invariant: typed, never a hang (the stall budget above
          // bounds every read) and never a crash.
          EXPECT_NE(result.status().code(), StatusCode::kOk);
          EXPECT_FALSE(result.status().message().empty());
          ++failed;
        }
        if (client.broken()) break;
      }
    }
    EXPECT_GT(served + failed, 0);

    // Storm over: the SAME server process serves a fresh client.
    fault::FaultInjector::Global().Disarm();
    ASSERT_TRUE(WaitFor([&] {
      auto connected = Connect();
      if (!connected.ok()) return false;
      MixqClient client = connected.MoveValueOrDie();
      return client.Predict(Remote({0})).ok();
    }));
  }
}

// Tentpole rollout path: bundles dropped into the watched directory are
// served under their file stem with zero downtime; a corrupt drop is
// counted and ignored; an overwrite hot-swaps (registry version bump).
TEST_F(NetTest, WatchedBundleDirectoryHotReloads) {
  StartServer();
  char dir_template[] = "/tmp/mixq_net_watch_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  CompiledModelPtr qat = CompileModel(*Qat8Artifact()).ValueOrDie();
  ASSERT_TRUE(engine::SaveBundle(*qat, dir + "/hot.mqb").ok());
  ASSERT_TRUE(engine::SaveGraph(Qat8Artifact()->features, Qat8Artifact()->op,
                                dir + "/hotgraph.mqb")
                  .ok());
  {
    std::ofstream bad(dir + "/corrupt.mqb", std::ios::binary);
    bad << "this is not a bundle";
  }

  ASSERT_TRUE(
      server_->StartWatching(dir, std::chrono::milliseconds(50)).ok());
  ASSERT_TRUE(WaitFor([&] {
    const auto models = engine_->ListModels();
    return models.count("hot") == 1 && engine_->ListGraphs().count("hotgraph");
  }));
  const uint64_t version_before = engine_->ListModels().at("hot").version;
  EXPECT_GE(server_->GetStats().watcher_failures, 1);

  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();
  RemoteRequest request;
  request.model = "hot";
  request.graph = "hotgraph";
  ASSERT_TRUE(client.Predict(request).ok());

  // Roll out a replacement under the same name: swapped in place, serving
  // uninterrupted, version bumped (so caches cannot serve stale logits).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CompiledModelPtr fp32 = CompileModel(*Fp32Artifact()).ValueOrDie();
  ASSERT_TRUE(engine::SaveBundle(*fp32, dir + "/hot.mqb").ok());
  ASSERT_TRUE(WaitFor([&] {
    return engine_->ListModels().at("hot").version > version_before;
  }));
  auto after = client.Predict(request);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(BitwiseEqual(
      after.ValueOrDie().rows,
      fp32->Predict(Qat8Artifact()->features, Qat8Artifact()->op)
          .ValueOrDie()));
}

// Shutdown is announced: a client with a request in flight gets a typed
// goodbye (or its owed response), never a silent hang.
TEST_F(NetTest, ShutdownIsTypedNeverSilent) {
  StartServer();
  auto connected = Connect();
  ASSERT_TRUE(connected.ok());
  MixqClient client = connected.MoveValueOrDie();
  ASSERT_TRUE(client.Predict(Remote({0})).ok());

  server_->Shutdown();
  const Status status = client.Ping();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(status.message().empty());
  EXPECT_TRUE(client.broken());
}

}  // namespace
}  // namespace mixq
