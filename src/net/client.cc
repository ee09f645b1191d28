// Copyright 2026 MixQ-GNN Authors
#include "net/client.h"

#include <utility>

namespace mixq {
namespace net {

Result<MixqClient> MixqClient::Connect(const std::string& host, int port,
                                       ClientOptions options) {
  auto conn = TcpConnect(host, port, options.connect_timeout, options.io);
  MIXQ_RETURN_NOT_OK(conn.status());
  return MixqClient(conn.MoveValueOrDie());
}

void MixqClient::Close() {
  if (closed_) return;
  closed_ = true;
  if (conn_.valid() && !broken()) {
    // Best effort: tell the server we are leaving so its reader sees a
    // protocol-level close instead of a bare EOF.
    ByteWriter body;
    EncodeStatusBody(Status::OK(), &body);
    const auto frame = BuildFrame(FrameType::kGoodbye, 0, body);
    conn_.WriteAll(frame.data(), frame.size());
  }
  conn_.Close();
}

Status MixqClient::Break(Status status) {
  if (!broken()) broken_status_ = std::move(status);
  conn_.ShutdownBoth();
  return broken_status_;
}

Status MixqClient::WriteFrame(const std::vector<uint8_t>& frame) {
  return conn_.WriteAll(frame.data(), frame.size());
}

Status MixqClient::ReadFrame(FrameHeader* header,
                             std::vector<uint8_t>* payload) {
  uint8_t bytes[kFrameHeaderBytes];
  Status status = conn_.ReadFull(bytes, kFrameHeaderBytes);
  if (status.code() == StatusCode::kNotFound) {
    // EOF without a goodbye frame: the server vanished.
    return Status::Unavailable("connection closed without a goodbye");
  }
  MIXQ_RETURN_NOT_OK(status);
  MIXQ_RETURN_NOT_OK(DecodeFrameHeader(bytes, header));
  MIXQ_RETURN_NOT_OK(conn_.ReadInto(payload, header->payload_bytes));
  return CheckFramePayload(*header, payload->data(), payload->size());
}

Status MixqClient::Send(const RemoteRequest& request, uint64_t* request_id) {
  if (broken()) return broken_status_;
  WirePredictRequest wire;
  wire.model = request.model;
  wire.graph = request.graph;
  wire.node_ids = request.node_ids;
  wire.precision = request.precision;
  wire.deadline_us = request.deadline_us;
  ByteWriter body;
  EncodePredictRequest(wire, &body);
  const uint64_t id = next_request_id_++;
  const auto frame = BuildFrame(FrameType::kPredictRequest, id, body);
  Status status = WriteFrame(frame);
  if (!status.ok()) return Break(std::move(status));
  ++outstanding_;
  *request_id = id;
  return Status::OK();
}

Result<RemoteReply> MixqClient::Receive() {
  if (broken()) return broken_status_;
  if (outstanding_ == 0) {
    return Status::InvalidArgument(
        "Receive with no outstanding request (Send first)");
  }
  FrameHeader header;
  std::vector<uint8_t> payload;
  Status status = ReadFrame(&header, &payload);
  if (!status.ok()) return Break(std::move(status));

  ByteReader reader(payload.data(), payload.size());
  switch (static_cast<FrameType>(header.type)) {
    case FrameType::kPredictResponse: {
      WirePredictResponse wire;
      status = DecodePredictResponse(&reader, &wire);
      if (!status.ok()) {
        return Break(Status::Internal("undecodable response from server: " +
                                      status.message()));
      }
      --outstanding_;
      RemoteReply reply;
      reply.request_id = header.request_id;
      reply.response.rows = Tensor::FromVector(
          Shape(wire.rows, wire.cols), std::move(wire.data));
      reply.response.node_ids = std::move(wire.node_ids);
      reply.response.precision = wire.precision;
      reply.response.cache_hit = wire.cache_hit;
      reply.response.pruned = wire.pruned;
      reply.response.batch_size = wire.batch_size;
      reply.response.frontier_rows = wire.frontier_rows;
      reply.response.queue_us = wire.queue_us;
      reply.response.forward_us = wire.forward_us;
      reply.response.total_us = wire.total_us;
      reply.response.server_us = wire.server_us;
      return reply;
    }
    case FrameType::kError: {
      Status remote;
      status = DecodeStatusBody(&reader, &remote);
      if (!status.ok()) {
        return Break(Status::Internal("undecodable error from server: " +
                                      status.message()));
      }
      --outstanding_;
      RemoteReply reply;
      reply.request_id = header.request_id;
      reply.status = std::move(remote);
      return reply;
    }
    case FrameType::kGoodbye: {
      Status remote;
      if (!DecodeStatusBody(&reader, &remote).ok()) {
        remote = Status::Unavailable("server said goodbye");
      }
      // A goodbye is connection-fatal by protocol; the pending requests die
      // with the typed reason the server gave.
      if (remote.ok()) {
        remote = Status::Unavailable("server closed the connection");
      }
      return Break(std::move(remote));
    }
    default:
      return Break(Status::Internal("unexpected frame type " +
                                    std::to_string(header.type) +
                                    " while awaiting a prediction"));
  }
}

Result<RemoteResponse> MixqClient::Predict(const RemoteRequest& request) {
  if (outstanding_ != 0) {
    return Status::InvalidArgument(
        "Predict while pipelined requests are outstanding");
  }
  uint64_t id = 0;
  MIXQ_RETURN_NOT_OK(Send(request, &id));
  auto reply = Receive();
  MIXQ_RETURN_NOT_OK(reply.status());
  RemoteReply value = reply.MoveValueOrDie();
  if (value.request_id != id) {
    return Break(Status::Internal(
        "reply id " + std::to_string(value.request_id) +
        " does not match request id " + std::to_string(id)));
  }
  MIXQ_RETURN_NOT_OK(value.status);
  return std::move(value.response);
}

Status MixqClient::Ping() {
  if (broken()) return broken_status_;
  if (outstanding_ != 0) {
    return Status::InvalidArgument(
        "Ping while pipelined requests are outstanding");
  }
  const uint64_t id = next_request_id_++;
  const auto frame = BuildFrame(FrameType::kPing, id, ByteWriter());
  Status status = WriteFrame(frame);
  if (!status.ok()) return Break(std::move(status));
  FrameHeader header;
  std::vector<uint8_t> payload;
  status = ReadFrame(&header, &payload);
  if (!status.ok()) return Break(std::move(status));
  if (static_cast<FrameType>(header.type) == FrameType::kGoodbye) {
    ByteReader reader(payload.data(), payload.size());
    Status remote;
    if (!DecodeStatusBody(&reader, &remote).ok() || remote.ok()) {
      remote = Status::Unavailable("server closed the connection");
    }
    return Break(std::move(remote));
  }
  if (static_cast<FrameType>(header.type) != FrameType::kPong ||
      header.request_id != id) {
    return Break(Status::Internal("unexpected reply to ping"));
  }
  return Status::OK();
}

Result<std::string> MixqClient::StatsJson() {
  if (broken()) return broken_status_;
  if (outstanding_ != 0) {
    return Status::InvalidArgument(
        "StatsJson while pipelined requests are outstanding");
  }
  const uint64_t id = next_request_id_++;
  const auto frame = BuildFrame(FrameType::kStatsRequest, id, ByteWriter());
  Status status = WriteFrame(frame);
  if (!status.ok()) return Break(std::move(status));
  FrameHeader header;
  std::vector<uint8_t> payload;
  status = ReadFrame(&header, &payload);
  if (!status.ok()) return Break(std::move(status));
  ByteReader reader(payload.data(), payload.size());
  if (static_cast<FrameType>(header.type) == FrameType::kGoodbye) {
    Status remote;
    if (!DecodeStatusBody(&reader, &remote).ok() || remote.ok()) {
      remote = Status::Unavailable("server closed the connection");
    }
    return Break(std::move(remote));
  }
  if (static_cast<FrameType>(header.type) != FrameType::kStatsResponse ||
      header.request_id != id) {
    return Break(Status::Internal("unexpected reply to stats request"));
  }
  std::string json;
  status = DecodeStatsBody(&reader, &json);
  if (!status.ok()) {
    return Break(Status::Internal("undecodable stats from server: " +
                                  status.message()));
  }
  return json;
}

}  // namespace net
}  // namespace mixq
