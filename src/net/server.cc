// Copyright 2026 MixQ-GNN Authors
#include "net/server.h"

#include <utility>

#include "common/json_util.h"
#include "engine/stats_json.h"

namespace mixq {
namespace net {

namespace {

std::vector<uint8_t> StatusFrame(FrameType type, uint64_t request_id,
                                 const Status& status) {
  ByteWriter body;
  EncodeStatusBody(status, &body);
  return BuildFrame(type, request_id, body);
}

}  // namespace

MixqServer::MixqServer(engine::InferenceEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

MixqServer::~MixqServer() { Shutdown(); }

Status MixqServer::Start() {
  if (started_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("server already started");
  }
  auto listener = TcpListener::Listen(options_.host, options_.port);
  MIXQ_RETURN_NOT_OK(listener.status());
  listener_ = listener.MoveValueOrDie();
  port_ = listener_.port();
  started_.store(true, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  return Status::OK();
}

Status MixqServer::StartWatching(const std::string& dir,
                                 std::chrono::milliseconds poll_interval) {
  if (watcher_ != nullptr) {
    return Status::InvalidArgument("already watching a bundle directory");
  }
  auto watcher = std::make_unique<BundleWatcher>(engine_, dir, poll_interval);
  MIXQ_RETURN_NOT_OK(watcher->Start());
  watcher_ = std::move(watcher);
  return Status::OK();
}

void MixqServer::Shutdown() {
  if (!started_.load(std::memory_order_relaxed)) return;
  stop_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  if (watcher_ != nullptr) watcher_->Stop();
  // Stop every reader; writers drain the responses already owed (their
  // futures resolve — the engine serves or expires everything admitted),
  // send a terminal kGoodbye, and shut the socket down.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& connection : connections_) {
      connection->stop.store(true, std::memory_order_relaxed);
      connection->cv.notify_all();
    }
  }
  Reap(/*all=*/true);
  started_.store(false, std::memory_order_relaxed);
}

void MixqServer::AcceptorLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket accepted;
    const Status status = listener_.Accept(&accepted, options_.accept_poll);
    if (!status.ok()) {
      // Accept failed (possibly an injected "net.accept" fault) before any
      // connection was taken off the queue: the pending peer — if any — is
      // picked up on the next loop, so serving continues.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!accepted.valid()) {  // timeout slice
      Reap(/*all=*/false);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections_active_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Typed rejection, not a dropped connection: the peer learns WHY.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      TcpConnection reject(std::move(accepted), options_.io);
      const auto frame = StatusFrame(
          FrameType::kGoodbye, 0,
          Status::ResourceExhausted(
              "server at its connection limit (" +
              std::to_string(options_.max_connections) + ")"));
      reject.WriteAll(frame.data(), frame.size(), &stop_);
      frames_written_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->conn = TcpConnection(std::move(accepted), options_.io);
    Connection* raw = connection.get();
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    connection->reader = std::thread([this, raw] { ReaderLoop(raw); });
    connection->writer = std::thread([this, raw] { WriterLoop(raw); });
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections_.push_back(std::move(connection));
  }
}

void MixqServer::ReaderLoop(Connection* connection) {
  while (!connection->stop.load(std::memory_order_relaxed) &&
         !stop_.load(std::memory_order_relaxed)) {
    uint8_t header_bytes[kFrameHeaderBytes];
    Status status = connection->conn.ReadFull(
        header_bytes, kFrameHeaderBytes, &connection->stop);
    if (!status.ok()) break;  // clean close, reset, stall, or stop — done
    FrameHeader header;
    status = DecodeFrameHeader(header_bytes, &header);
    if (!status.ok()) {
      // Framing cannot be trusted: announce why, then close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      QueueGoodbye(connection, status);
      break;
    }
    // Grown as bytes arrive: the header's claim alone commits no memory.
    std::vector<uint8_t> payload;
    status = connection->conn.ReadInto(&payload, header.payload_bytes,
                                       &connection->stop);
    if (!status.ok()) break;
    status = CheckFramePayload(header, payload.data(), payload.size());
    if (!status.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      QueueGoodbye(connection, status);
      break;
    }
    frames_read_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleFrame(connection, header, payload)) break;
  }
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->reader_done = true;
  }
  connection->cv.notify_all();
}

bool MixqServer::HandleFrame(Connection* connection, const FrameHeader& header,
                             const std::vector<uint8_t>& payload) {
  ByteReader reader(payload.data(), payload.size());
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kPredictRequest: {
      predict_requests_.fetch_add(1, std::memory_order_relaxed);
      WirePredictRequest wire;
      const Status status = DecodePredictRequest(&reader, &wire);
      if (!status.ok()) {
        // The frame itself was intact (CRC passed) — a malformed BODY is a
        // per-request failure, the stream stays up.
        Connection::OutItem item;
        item.request_id = header.request_id;
        item.frame = StatusFrame(FrameType::kError, header.request_id, status);
        Enqueue(connection, std::move(item));
        return true;
      }
      engine::PredictRequest request;
      request.model = std::move(wire.model);
      request.graph = std::move(wire.graph);
      request.node_ids = std::move(wire.node_ids);
      request.precision = wire.precision;
      if (wire.deadline_us > 0) {
        // Relative on the wire (no shared clocks); absolute from receipt.
        request.deadline = engine::ServingClock::now() +
                           std::chrono::microseconds(wire.deadline_us);
      }
      Connection::OutItem item;
      item.request_id = header.request_id;
      item.is_predict = true;
      item.received = std::chrono::steady_clock::now();
      // Submit NOW, before the previous response was even written: every
      // pipelined request from every connection sits in the admission queue
      // together, which is what lets the dispatcher coalesce them.
      item.future = engine_->Submit(std::move(request));
      Enqueue(connection, std::move(item));
      return true;
    }
    case FrameType::kStatsRequest: {
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      ByteWriter body;
      EncodeStatsBody(StatsEndpointJson(), &body);
      Connection::OutItem item;
      item.request_id = header.request_id;
      item.frame = BuildFrame(FrameType::kStatsResponse, header.request_id,
                              body);
      Enqueue(connection, std::move(item));
      return true;
    }
    case FrameType::kPing: {
      Connection::OutItem item;
      item.request_id = header.request_id;
      item.frame = BuildFrame(FrameType::kPong, header.request_id,
                              ByteWriter());
      Enqueue(connection, std::move(item));
      return true;
    }
    case FrameType::kGoodbye:
      // The peer is leaving; stop reading, let the writer drain what is owed.
      return false;
    default: {
      // Unknown frame type: typed kError, connection stays up (a future
      // minor may add types an old server answers this way).
      Connection::OutItem item;
      item.request_id = header.request_id;
      item.frame = StatusFrame(
          FrameType::kError, header.request_id,
          Status::NotImplemented("unknown frame type " +
                                 std::to_string(header.type)));
      Enqueue(connection, std::move(item));
      return true;
    }
  }
}

void MixqServer::Enqueue(Connection* connection, Connection::OutItem item) {
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->out.push_back(std::move(item));
  }
  connection->cv.notify_all();
}

void MixqServer::QueueGoodbye(Connection* connection, const Status& status) {
  Connection::OutItem item;
  item.frame = StatusFrame(FrameType::kGoodbye, 0, status);
  item.goodbye_after = true;
  Enqueue(connection, std::move(item));
}

void MixqServer::WriterLoop(Connection* connection) {
  bool sent_goodbye = false;
  bool write_ok = true;
  while (write_ok) {
    Connection::OutItem item;
    {
      std::unique_lock<std::mutex> lock(connection->mu);
      connection->cv.wait(lock, [&] {
        return !connection->out.empty() || connection->reader_done ||
               connection->stop.load(std::memory_order_relaxed);
      });
      if (connection->out.empty()) {
        // Nothing owed. Exit once no more can arrive (reader finished) or
        // shutdown was requested — owed items above are always drained first.
        if (connection->reader_done ||
            connection->stop.load(std::memory_order_relaxed)) {
          break;
        }
        continue;
      }
      item = std::move(connection->out.front());
      connection->out.pop_front();
    }
    std::vector<uint8_t> frame;
    if (item.is_predict) {
      auto result = item.future.get();  // resolves: the engine guarantees it
      const double server_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - item.received)
              .count();
      if (result.ok()) {
        const engine::PredictResponse& response = result.ValueOrDie();
        WirePredictResponse wire;
        wire.rows = response.rows.rows();
        wire.cols = response.rows.cols();
        wire.data = response.rows.data();
        wire.node_ids = response.node_ids;
        wire.precision = response.precision;
        wire.cache_hit = response.cache_hit;
        wire.pruned = response.pruned;
        wire.batch_size = response.batch_size;
        wire.frontier_rows = response.frontier_rows;
        wire.queue_us = response.queue_us;
        wire.forward_us = response.forward_us;
        wire.total_us = response.total_us;
        wire.server_us = server_us;
        ByteWriter body;
        EncodePredictResponse(wire, &body);
        frame = BuildFrame(FrameType::kPredictResponse, item.request_id, body);
      } else {
        // THE overload path: queue overflow, deadline expiry, breaker shed —
        // each becomes one cheap typed frame on a healthy connection.
        frame = StatusFrame(FrameType::kError, item.request_id,
                            result.status());
      }
    } else {
      frame = std::move(item.frame);
    }
    // No stop flag here: responses owed are written even during shutdown
    // (the stall budget bounds a wedged peer).
    write_ok = connection->conn.WriteAll(frame.data(), frame.size()).ok();
    if (write_ok) {
      frames_written_.fetch_add(1, std::memory_order_relaxed);
    }
    if (item.goodbye_after) {
      sent_goodbye = true;
      break;
    }
  }
  if (write_ok && !sent_goodbye &&
      stop_.load(std::memory_order_relaxed)) {
    // Server-initiated shutdown: announce it instead of going silent.
    const auto frame =
        StatusFrame(FrameType::kGoodbye, 0, Status::OK());
    if (connection->conn.WriteAll(frame.data(), frame.size()).ok()) {
      frames_written_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Unblocks a reader still parked in ReadFull; it exits within one slice.
  connection->conn.ShutdownBoth();
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  connection->finished.store(true, std::memory_order_relaxed);
}

void MixqServer::Reap(bool all) {
  std::list<std::unique_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || (*it)->finished.load(std::memory_order_relaxed)) {
        done.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : done) {
    if (connection->writer.joinable()) connection->writer.join();
    if (connection->reader.joinable()) connection->reader.join();
    connection->conn.Close();
  }
}

MixqServer::Stats MixqServer::GetStats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  stats.frames_read = frames_read_.load(std::memory_order_relaxed);
  stats.frames_written = frames_written_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.predict_requests = predict_requests_.load(std::memory_order_relaxed);
  stats.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  if (watcher_ != nullptr) {
    stats.watcher_loads = watcher_->loads();
    stats.watcher_failures = watcher_->failures();
  }
  return stats;
}

std::string MixqServer::StatsEndpointJson() const {
  const Stats stats = GetStats();
  std::string out = "{\"engine\": ";
  out += engine::FormatStatsJson(engine_->GetStats());
  out += ", \"server\": {";
  const auto field = [&out](const char* name, int64_t value, bool last = false) {
    out += '"';
    out += name;
    out += "\": ";
    out += std::to_string(value);
    if (!last) out += ", ";
  };
  field("connections_accepted", stats.connections_accepted);
  field("connections_rejected", stats.connections_rejected);
  field("connections_active", stats.connections_active);
  field("frames_read", stats.frames_read);
  field("frames_written", stats.frames_written);
  field("protocol_errors", stats.protocol_errors);
  field("predict_requests", stats.predict_requests);
  field("stats_requests", stats.stats_requests);
  field("watcher_loads", stats.watcher_loads);
  field("watcher_failures", stats.watcher_failures, /*last=*/true);
  out += "}}";
  return out;
}

}  // namespace net
}  // namespace mixq
