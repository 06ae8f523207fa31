// Coordinator side of the multi-host backend: one rank per `mec worker`
// daemon, reached over TCP.
//
// Same wire dialect, barrier protocol and framed core as
// parallel::ProcessTransport — the coordinator loop cannot tell them
// apart — plus what a machine boundary adds: connect retry with bounded
// exponential backoff, the versioned handshake, and explicit population
// distribution (protocol.hpp).
// Every read is bounded by the MEC_TRANSPORT_TIMEOUT_MS poll deadline, and
// a worker that dies or stalls raises mec::RuntimeError naming the rank,
// the peer address, the last completed barrier, and the pending frame kind
// — never a hang.
//
// Determinism contract #8 extends unchanged: ranks own ascending contiguous
// shard slices and payloads merge in rank order, so any worker placement
// streams the exact inproc bytes (pinned by tests/test_net.cpp and the CI
// cmp step).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mec/net/address.hpp"
#include "mec/parallel/transport.hpp"

namespace mec::net {

class TcpTransport final : public parallel::FramedTransport {
 public:
  struct Config {
    /// One rank per address, rank order; duplicate-free (checked, the
    /// error names both ranks) and no longer than shard_count.
    std::vector<Address> workers;
    std::size_t shard_count = 1;
    std::uint32_t n_devices = 0;
    /// Total connect budget per worker; -1 uses the read deadline
    /// (MEC_TRANSPORT_TIMEOUT_MS or its default).
    long connect_timeout_ms = -1;
  };

  /// Connects and handshakes every rank, ships populations[r] to rank r
  /// (freeing each once sent), waits for every rank's ready frame, then
  /// pushes `initial_thresholds`.
  /// Throws mec::RuntimeError (naming rank + peer address) on any refusal:
  /// unreachable daemon, schema-revision mismatch (both revisions named),
  /// wrong rank echo, or a worker-side build failure.
  TcpTransport(const Config& config,
               std::vector<std::vector<std::uint8_t>> populations,
               std::span<const double> initial_thresholds);

 private:
  std::string describe_peer(std::size_t rank) override;

  std::vector<Address> addresses_;
};

}  // namespace mec::net
