#include "mec/net/socket.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "mec/common/error.hpp"

namespace mec::net {

namespace {

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

struct ResolvedAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  int family = AF_INET;
};

ResolvedAddr resolve(const Address& address, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_INET;  // the wire dialect tests pin v4 loopback
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string port = std::to_string(address.port);
  addrinfo* result = nullptr;
  const int rc =
      ::getaddrinfo(address.host.c_str(), port.c_str(), &hints, &result);
  if (rc != 0)
    throw RuntimeError("cannot resolve worker address " + address.str() +
                       ": " + ::gai_strerror(rc));
  ResolvedAddr out;
  out.family = result->ai_family;
  out.len = static_cast<socklen_t>(result->ai_addrlen);
  std::memcpy(&out.storage, result->ai_addr, result->ai_addrlen);
  ::freeaddrinfo(result);
  return out;
}

/// One non-blocking connect attempt bounded by `budget_ms`.  Returns the
/// connected fd, or an invalid ScopedFd on a retryable failure (refused,
/// unreachable, timed out); throws only on setup errors that retrying
/// cannot fix.
ScopedFd try_connect(const ResolvedAddr& addr, long budget_ms, int& err) {
  ScopedFd fd(::socket(addr.family, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid())
    throw RuntimeError(std::string("tcp socket creation failed: ") +
                       std::strerror(errno));
  const int rc = ::connect(
      fd.get(), reinterpret_cast<const sockaddr*>(&addr.storage), addr.len);
  if (rc != 0 && errno != EINPROGRESS) {
    err = errno;
    return {};
  }
  if (rc != 0) {
    struct pollfd pfd{fd.get(), POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max(budget_ms, 1L)));
    if (ready <= 0) {
      err = ready == 0 ? ETIMEDOUT : errno;
      return {};
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      err = so_error;
      return {};
    }
  }
  // Back to blocking: the transport's reads are deadline-bounded by poll,
  // and writes may block on the kernel buffer like the socketpair path.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK);
  set_nodelay(fd.get());
  return fd;
}

}  // namespace

ScopedFd connect_with_backoff(const Address& address, long timeout_ms) {
  const ResolvedAddr addr = resolve(address, /*passive=*/false);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  long backoff_ms = 50;
  int last_err = ECONNREFUSED;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    const long remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (remaining <= 0) break;
    ScopedFd fd = try_connect(addr, std::min(remaining, 2000L), last_err);
    if (fd.valid()) return fd;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(backoff_ms, remaining)));
    backoff_ms = std::min(backoff_ms * 2, 1600L);
  }
  throw RuntimeError("tcp transport could not connect to worker at " +
                     address.str() + " within " + std::to_string(timeout_ms) +
                     " ms (last error: " + std::strerror(last_err) + ")");
}

ScopedFd listen_on(const Address& address, int backlog) {
  const ResolvedAddr addr = resolve(address, /*passive=*/true);
  ScopedFd fd(::socket(addr.family, SOCK_STREAM, 0));
  if (!fd.valid())
    throw RuntimeError(std::string("tcp socket creation failed: ") +
                       std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr.storage),
             addr.len) != 0)
    throw RuntimeError("mec worker cannot bind " + address.str() + ": " +
                       std::strerror(errno));
  if (::listen(fd.get(), backlog) != 0)
    throw RuntimeError("mec worker cannot listen on " + address.str() + ": " +
                       std::strerror(errno));
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_storage storage{};
  socklen_t len = sizeof storage;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&storage), &len) != 0)
    throw RuntimeError(std::string("getsockname failed: ") +
                       std::strerror(errno));
  if (storage.ss_family == AF_INET)
    return ntohs(reinterpret_cast<const sockaddr_in&>(storage).sin_port);
  return ntohs(reinterpret_cast<const sockaddr_in6&>(storage).sin6_port);
}

ScopedFd accept_connection(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return ScopedFd(fd);
    }
    if (errno == EINTR) continue;
    throw RuntimeError(std::string("mec worker accept failed: ") +
                       std::strerror(errno));
  }
}

}  // namespace mec::net
