// Copyright 2026 MixQ-GNN Authors
// RAII POSIX TCP primitives for the network front door (src/net/server.h,
// src/net/client.h). Everything fallible returns a typed Status — a peer
// reset, a timeout, or an injected fault surfaces as an error the framing
// layer can translate, never as UB or a hang:
//
//   kNotFound          peer closed cleanly before any byte of the read
//   kUnavailable       connection reset / closed mid-transfer
//   kDeadlineExceeded  no progress within the configured stall budget
//   kInternal          unexpected errno, or an injected fault
//
// Fault-injection sites (common/fault_injection.h): every ReadFull hit asks
// "net.read", every WriteAll hit asks "net.write"; a fire fails the call
// with a typed kInternal exactly like a syscall error. The server layers
// "net.accept" over Accept. The chaos suite (tests/net_test.cpp) storms
// these sites and asserts the serving invariant holds on the wire.
//
// Blocking discipline: reads poll() in `poll_interval` slices and consult an
// optional stop flag between slices, so a server connection thread can be
// shut down without closing its socket out from under it; `stall_timeout`
// bounds how long a transfer may sit with NO progress (a trickling or wedged
// peer), which is what keeps the frame fuzz tests hang-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mixq {
namespace net {

/// Movable owner of one file descriptor; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();
  /// Releases ownership without closing.
  int Release();

 private:
  int fd_ = -1;
};

/// Transfer pacing for TcpConnection reads/writes.
struct IoOptions {
  /// poll() slice between stop-flag checks.
  std::chrono::milliseconds poll_interval{100};
  /// Longest a transfer may make zero progress before kDeadlineExceeded.
  std::chrono::milliseconds stall_timeout{10000};
};

/// One established stream connection. Not thread-safe per direction pair —
/// the intended shape is one reader thread and one writer thread (reads and
/// writes never block each other on a socket).
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(Socket socket, IoOptions options = IoOptions())
      : socket_(std::move(socket)), options_(options) {}

  bool valid() const { return socket_.valid(); }

  /// Reads exactly `size` bytes. kNotFound when the peer closed cleanly
  /// before the first byte (a frame boundary — the caller decides whether
  /// that is normal); kUnavailable when the stream ends mid-transfer. When
  /// `stop` is non-null and becomes true between poll slices, returns
  /// kUnavailable("stopped").
  Status ReadFull(void* buffer, size_t size,
                  const std::atomic<bool>* stop = nullptr);

  /// Reads exactly `size` bytes into `out`, which ends up holding them. The
  /// bytes are read in chunks of at most 64 KiB and `out` grows only as they
  /// arrive, so a header that claims a large payload commits memory only for
  /// what the peer really sends; up to 64 KiB is one ReadFull. Same status
  /// semantics as one ReadFull of `size` bytes.
  Status ReadInto(std::vector<uint8_t>* out, size_t size,
                  const std::atomic<bool>* stop = nullptr);

  /// Writes exactly `size` bytes; same stop/stall semantics as ReadFull.
  Status WriteAll(const void* buffer, size_t size,
                  const std::atomic<bool>* stop = nullptr);

  /// shutdown(2) both directions — unblocks a peer (or our own reader
  /// thread) without racing the fd's lifetime.
  void ShutdownBoth();
  /// shutdown(2) the write side only: the peer sees EOF after everything
  /// already sent, while this side can still read its replies (how a fuzz
  /// client says "that was my whole frame" without hanging either end).
  void ShutdownWrite();
  void Close() { socket_.Close(); }

 private:
  Socket socket_;
  IoOptions options_;
};

/// Connects to host:port (numeric IPv4 or a resolvable name) with a bounded
/// connect timeout. The returned connection uses `io` pacing.
Result<TcpConnection> TcpConnect(const std::string& host, int port,
                                 std::chrono::milliseconds connect_timeout,
                                 IoOptions io = IoOptions());

/// Listening socket bound to host:port (port 0 = ephemeral; port() reports
/// the bound value).
class TcpListener {
 public:
  TcpListener() = default;

  static Result<TcpListener> Listen(const std::string& host, int port,
                                    int backlog = 64);

  int port() const { return port_; }
  bool valid() const { return socket_.valid(); }

  /// Waits up to `timeout` for a connection. On success sets `*accepted`;
  /// on timeout returns OK with `*accepted` left invalid — callers loop and
  /// check a stop flag between calls. kInternal on accept errors (including
  /// a fired "net.accept" fault site).
  Status Accept(Socket* accepted, std::chrono::milliseconds timeout);

  void Close() { socket_.Close(); }

 private:
  TcpListener(Socket socket, int port) : socket_(std::move(socket)), port_(port) {}
  Socket socket_;
  int port_ = 0;
};

}  // namespace net
}  // namespace mixq
