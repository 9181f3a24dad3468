#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace anacin::net {

namespace {

using Clock = std::chrono::steady_clock;

void ignore_sigpipe() {
  // A peer can vanish between our liveness check and our write; without
  // this the resulting EPIPE would kill the process instead of surfacing
  // as a failed send. Process-wide and idempotent (worker pool does the
  // same for pipes).
  ::signal(SIGPIPE, SIG_IGN);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// poll() one fd for `events`, retrying EINTR against a fixed deadline so
/// a signal delivered mid-wait (the EINTR regression test does exactly
/// this) consumes budget instead of resetting or aborting it. Returns
/// poll()'s result: >0 ready, 0 timeout, <0 non-EINTR error.
int poll_deadline(int fd, short events, int timeout_ms) {
  Clock::time_point deadline{};
  if (timeout_ms >= 0) {
    deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  for (;;) {
    int budget = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      budget = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    }
    pollfd pfd{fd, events, 0};
    const int ready = ::poll(&pfd, 1, budget);
    if (ready < 0 && errno == EINTR) {
      if (timeout_ms >= 0 && Clock::now() >= deadline) return 0;
      continue;
    }
    return ready;
  }
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) { ignore_sigpipe(); }

TcpConnection::~TcpConnection() { close(); }

std::unique_ptr<TcpConnection> TcpConnection::connect(const std::string& host,
                                                      std::uint16_t port,
                                                      int timeout_ms) {
  ignore_sigpipe();
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string port_text = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                                   &found);
      rc != 0) {
    throw IoError("cannot resolve " + host + ":" + port_text + ": " +
                  ::gai_strerror(rc));
  }

  int fd = -1;
  std::string error = "no addresses";
  for (const addrinfo* info = found; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype | SOCK_CLOEXEC,
                  info->ai_protocol);
    if (fd < 0) {
      error = std::strerror(errno);
      continue;
    }
    // Non-blocking connect so the timeout is ours, not the kernel's
    // (which can be minutes for an unreachable host).
    const int flags = ::fcntl(fd, F_GETFL);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, info->ai_addr, info->ai_addrlen);
    if (rc < 0 && errno == EINTR) {
      // POSIX: an interrupted connect() proceeds asynchronously, exactly
      // like EINPROGRESS — fall through to the poll below.
      errno = EINPROGRESS;
    }
    if (rc < 0 && errno == EINPROGRESS) {
      rc = poll_deadline(fd, POLLOUT, timeout_ms);
      if (rc > 0) {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
        rc = so_error == 0 ? 0 : -1;
        errno = so_error;
      } else if (rc == 0) {
        rc = -1;
        errno = ETIMEDOUT;
      }
    }
    if (rc == 0) {
      ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
      break;
    }
    error = std::strerror(errno);
    close_fd(fd);
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    throw IoError("cannot connect to " + host + ":" + port_text + ": " +
                  error);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConnection>(fd);
}

void TcpConnection::close() {
  // exchange() so exactly one closer wins when close() races itself (the
  // destructor vs an explicit close from another thread).
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // shutdown() first: another thread blocked in recv_frame wakes with a
  // clean EOF instead of reading from a closed (possibly recycled) fd.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

bool TcpConnection::send_frame(proc::FrameType type,
                               std::string_view payload) {
  const int fd = fd_.load();
  if (fd < 0) return false;
  static obs::Counter& frames = obs::counter("net.frames_sent");
  static obs::Counter& bytes = obs::counter("net.bytes_sent");
  const std::lock_guard<std::mutex> lock(write_mutex_);
  if (!proc::write_frame(fd, type, payload, version_)) return false;
  frames.add(1);
  bytes.add(proc::frame_overhead(version_) + payload.size());
  return true;
}

bool TcpConnection::send_raw(std::string_view bytes) {
  const int fd = fd_.load();
  if (fd < 0) return false;
  static obs::Counter& frames = obs::counter("net.frames_sent");
  static obs::Counter& sent = obs::counter("net.bytes_sent");
  const std::lock_guard<std::mutex> lock(write_mutex_);
  const char* cursor = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t written = ::write(fd, cursor, left);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += written;
    left -= static_cast<std::size_t>(written);
  }
  frames.add(1);
  sent.add(bytes.size());
  return true;
}

proc::ReadResult TcpConnection::recv_frame(int timeout_ms) {
  const int fd = fd_.load();
  if (fd < 0) {
    proc::ReadResult result;
    result.status = proc::ReadStatus::kEof;
    return result;
  }
  proc::ReadResult result = proc::read_frame(fd, timeout_ms, version_);
  if (result) {
    obs::counter("net.frames_received").add(1);
    obs::counter("net.bytes_received")
        .add(proc::frame_overhead(version_) + result.frame.payload.size());
  } else if (result.status == proc::ReadStatus::kCorrupt) {
    obs::counter("net.frames_corrupt").add(1);
  }
  return result;
}

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
  ignore_sigpipe();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw IoError(std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    throw IoError("listener bind address must be an IPv4 literal, got '" +
                  host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = std::strerror(errno);
    close_fd(fd);
    throw IoError("cannot bind " + host + ":" + std::to_string(port) + ": " +
                  error);
  }
  if (::listen(fd, 64) < 0) {
    const std::string error = std::strerror(errno);
    close_fd(fd);
    throw IoError("listen failed: " + error);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  fd_.store(fd);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpConnection> TcpListener::accept(int timeout_ms) {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) return nullptr;
  const int ready = poll_deadline(listen_fd, POLLIN, timeout_ms);
  if (ready <= 0) return nullptr;
  int fd = -1;
  for (;;) {
    fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) break;
    // ECONNABORTED: the peer gave up between poll and accept — the
    // listener itself is fine, so report "nothing arrived" not "broken".
    if (errno == EINTR) continue;
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConnection>(fd);
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd < 0) return;
  // On Linux close() alone does not wake another thread's poll() on this
  // fd; shutdown() does, so a blocked accept() returns now instead of at
  // its timeout.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

}  // namespace anacin::net
