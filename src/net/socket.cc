// Copyright 2026 MixQ-GNN Authors
#include "net/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fault_injection.h"

namespace mixq {
namespace net {

namespace {

std::string ErrnoString(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Waits for `events` on `fd` for up to `timeout`. Returns +1 ready,
/// 0 timeout, -1 error (errno set). EINTR counts as a timeout slice.
int PollFd(int fd, short events, std::chrono::milliseconds timeout) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  const int r = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (r < 0 && errno == EINTR) return 0;
  if (r <= 0) return r;
  // POLLERR/POLLHUP surface through the subsequent read/write returning an
  // error or EOF, which is where they get their typed Status.
  return 1;
}

Status ResolveAddr(const std::string& host, int port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1) {
    return Status::OK();
  }
  // Not a numeric address: resolve (IPv4 only — the serving deployments
  // this targets sit behind loopback or a load balancer's v4 VIP).
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + gai_strerror(rc));
  }
  addr->sin_addr =
      reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return Status::OK();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

Status TcpConnection::ReadInto(std::vector<uint8_t>* out, size_t size,
                               const std::atomic<bool>* stop) {
  constexpr size_t kChunkBytes = size_t{64} << 10;
  out->clear();
  while (out->size() < size) {
    const size_t got = out->size();
    const size_t chunk = std::min(size - got, kChunkBytes);
    out->resize(got + chunk);
    Status status = ReadFull(out->data() + got, chunk, stop);
    if (status.code() == StatusCode::kNotFound && got > 0) {
      return Status::Unavailable("connection closed mid-transfer after " +
                                 std::to_string(got) + " of " +
                                 std::to_string(size) + " bytes");
    }
    MIXQ_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

Status TcpConnection::ReadFull(void* buffer, size_t size,
                               const std::atomic<bool>* stop) {
  if (!socket_.valid()) return Status::Unavailable("connection is closed");
  uint8_t* out = static_cast<uint8_t*>(buffer);
  size_t got = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (got < size) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::Unavailable("stopped");
    }
    MIXQ_RETURN_NOT_OK(fault::CheckPoint("net.read"));
    const int ready = PollFd(socket_.fd(), POLLIN, options_.poll_interval);
    if (ready < 0) return Status::Internal(ErrnoString("poll"));
    if (ready == 0) {
      if (std::chrono::steady_clock::now() - last_progress >
          options_.stall_timeout) {
        return Status::DeadlineExceeded("read stalled past " +
                                        std::to_string(options_.stall_timeout.count()) +
                                        " ms");
      }
      continue;
    }
    const ssize_t r = ::recv(socket_.fd(), out + got, size - got, 0);
    if (r == 0) {
      if (got == 0) return Status::NotFound("connection closed by peer");
      return Status::Unavailable("connection closed mid-transfer after " +
                                 std::to_string(got) + " of " +
                                 std::to_string(size) + " bytes");
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET || errno == EPIPE) {
        return Status::Unavailable(ErrnoString("recv"));
      }
      return Status::Internal(ErrnoString("recv"));
    }
    got += static_cast<size_t>(r);
    last_progress = std::chrono::steady_clock::now();
  }
  return Status::OK();
}

Status TcpConnection::WriteAll(const void* buffer, size_t size,
                               const std::atomic<bool>* stop) {
  if (!socket_.valid()) return Status::Unavailable("connection is closed");
  const uint8_t* in = static_cast<const uint8_t*>(buffer);
  size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < size) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::Unavailable("stopped");
    }
    MIXQ_RETURN_NOT_OK(fault::CheckPoint("net.write"));
    const int ready = PollFd(socket_.fd(), POLLOUT, options_.poll_interval);
    if (ready < 0) return Status::Internal(ErrnoString("poll"));
    if (ready == 0) {
      if (std::chrono::steady_clock::now() - last_progress >
          options_.stall_timeout) {
        return Status::DeadlineExceeded("write stalled past " +
                                        std::to_string(options_.stall_timeout.count()) +
                                        " ms");
      }
      continue;
    }
    // MSG_NOSIGNAL: a peer that closed mid-write must come back as a typed
    // Status, not SIGPIPE taking the process down.
    const ssize_t r =
        ::send(socket_.fd(), in + sent, size - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET || errno == EPIPE) {
        return Status::Unavailable(ErrnoString("send"));
      }
      return Status::Internal(ErrnoString("send"));
    }
    sent += static_cast<size_t>(r);
    last_progress = std::chrono::steady_clock::now();
  }
  return Status::OK();
}

void TcpConnection::ShutdownBoth() {
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_RDWR);
}

void TcpConnection::ShutdownWrite() {
  if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_WR);
}

Result<TcpConnection> TcpConnect(const std::string& host, int port,
                                 std::chrono::milliseconds connect_timeout,
                                 IoOptions io) {
  sockaddr_in addr;
  MIXQ_RETURN_NOT_OK(ResolveAddr(host, port, &addr));
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Status::Internal(ErrnoString("socket"));

  // Non-blocking connect so the timeout is enforceable.
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  ::fcntl(socket.fd(), F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed: " +
                               std::strerror(errno));
  }
  if (rc != 0) {
    const int ready = PollFd(socket.fd(), POLLOUT, connect_timeout);
    if (ready < 0) return Status::Internal(ErrnoString("poll"));
    if (ready == 0) {
      return Status::DeadlineExceeded("connect to " + host + ":" +
                                      std::to_string(port) + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return Status::Unavailable("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  ::fcntl(socket.fd(), F_SETFL, flags);  // back to blocking; IO paces via poll

  const int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(std::move(socket), io);
}

Result<TcpListener> TcpListener::Listen(const std::string& host, int port,
                                        int backlog) {
  sockaddr_in addr;
  MIXQ_RETURN_NOT_OK(ResolveAddr(host, port, &addr));
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Status::Internal(ErrnoString("socket"));
  const int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(socket.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable("bind to " + host + ":" + std::to_string(port) +
                               " failed: " + std::strerror(errno));
  }
  if (::listen(socket.fd(), backlog) != 0) {
    return Status::Internal(ErrnoString("listen"));
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal(ErrnoString("getsockname"));
  }
  return TcpListener(std::move(socket), ntohs(bound.sin_port));
}

Status TcpListener::Accept(Socket* accepted, std::chrono::milliseconds timeout) {
  if (!socket_.valid()) return Status::Unavailable("listener is closed");
  const int ready = PollFd(socket_.fd(), POLLIN, timeout);
  if (ready < 0) return Status::Internal(ErrnoString("poll"));
  if (ready == 0) return Status::OK();  // timeout: *accepted stays invalid
  MIXQ_RETURN_NOT_OK(fault::CheckPoint("net.accept"));
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return Status::OK();  // transient: treat like a timeout slice
    }
    return Status::Internal(ErrnoString("accept"));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *accepted = Socket(fd);
  return Status::OK();
}

}  // namespace net
}  // namespace mixq
