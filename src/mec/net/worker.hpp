// The `mec worker` daemon: one TCP rank endpoint.
//
// A daemon binds HOST:PORT (port 0 = ephemeral, for tests), accepts one
// coordinator connection at a time, and serves one full run per connection:
// the versioned handshake, then serve_rank — population decode, rebuild of
// the rank's scenario slice, the serve_worker barrier loop — which is the
// whole life of a forked ProcessTransport rank too, over a socketpair
// instead of a TCP fd.  After finalize (or any error) it goes back to
// accepting, so one daemon can serve many runs back to back.
//
// Handshake reads are deadline-bounded (MEC_TRANSPORT_TIMEOUT_MS), so a
// port-scanning or garbage client cannot wedge the daemon: a bad magic,
// oversized length, or CRC mismatch kills that connection with a best-effort
// error frame and the daemon survives to serve the next one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "mec/net/address.hpp"
#include "mec/net/socket.hpp"

namespace mec::net {

/// The rank entry of both fd backends: reads rank `rank`'s population frame
/// from `fd` within `timeout_ms`, rebuilds the rank's slice, answers with a
/// ready frame and serves the barrier loop until the final totals are
/// sent.  `log`, when non-null, gets a one-line summary of the slice before
/// the run starts.  Throws mec::RuntimeError on a wire error or a
/// population frame that is malformed or for another rank.
void serve_rank(int fd, std::uint32_t rank, long timeout_ms,
                std::FILE* log = nullptr);

class WorkerDaemon {
 public:
  struct Options {
    Address listen;          ///< port 0 binds an ephemeral port
    std::size_t max_runs = 0;  ///< serve() returns after this many (0 = forever)
    bool quiet = false;        ///< suppress the per-run log lines
  };

  /// Binds and listens immediately (throws mec::RuntimeError on failure) so
  /// the caller can read port() — and a test can bind before forking —
  /// before any coordinator connects.
  explicit WorkerDaemon(const Options& options);

  /// The resolved listen port (meaningful after an ephemeral bind).
  std::uint16_t port() const;

  /// Accept loop: serves one run per connection until max_runs complete
  /// runs (failed connections do not count) or shutdown().  Returns 0 on a
  /// clean exit; connection-level errors are logged and answered with an
  /// error frame, never fatal to the daemon.
  int serve();

  /// Wakes a blocked serve() and makes it return (callable from another
  /// thread; used by the in-process test harness).
  void shutdown();

 private:
  void serve_connection(int fd);

  Options options_;
  ScopedFd listen_fd_;
  std::atomic<bool> stopping_{false};
};

}  // namespace mec::net
