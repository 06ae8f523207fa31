// Thin TCP socket helpers for the net transport: resolve + connect with
// bounded exponential backoff (daemons may still be starting when the
// coordinator launches) and listen/accept for the worker daemon.  Every
// socket is a parallel::ScopedFd, so every error path closes it.
//
// All sockets get TCP_NODELAY — barrier frames are small and
// latency-sensitive, and the transport never streams partial frames that
// would benefit from coalescing.
#pragma once

#include <cstdint>

#include "mec/net/address.hpp"
#include "mec/parallel/transport.hpp"

namespace mec::net {

using parallel::ScopedFd;

/// Connects to `address` within `timeout_ms` total, retrying refused or
/// timed-out attempts with exponential backoff (50 ms doubling to 1.6 s) so
/// a coordinator started moments before its daemons still comes up.  Each
/// attempt is a non-blocking connect bounded by the remaining budget.
/// Throws mec::RuntimeError naming the address, the timeout, and the last
/// OS error once the budget is spent.
ScopedFd connect_with_backoff(const Address& address, long timeout_ms);

/// Binds and listens on `address` (port 0 binds an ephemeral port; recover
/// it with bound_port).  Sets SO_REUSEADDR so restarted daemons do not trip
/// over TIME_WAIT.  Throws mec::RuntimeError naming the address on failure.
ScopedFd listen_on(const Address& address, int backlog = 8);

/// The local port a bound socket ended up on (resolves ephemeral binds).
std::uint16_t bound_port(int fd);

/// Blocking accept (EINTR-retrying); returns the connected fd with
/// TCP_NODELAY applied.  Throws mec::RuntimeError on accept failure —
/// including EBADF/EINVAL after another thread shut the listener down,
/// which WorkerDaemon::serve treats as a clean shutdown.
ScopedFd accept_connection(int listen_fd);

}  // namespace mec::net
