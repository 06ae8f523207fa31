// TCP-transport wire protocol: the versioned handshake and the population
// frame.
//
// Both payloads ride the PR 9 transport envelope (u32 kind | u32 len |
// payload | u32 CRC32(payload), little-endian — parallel::wire) with the
// kFrameHello / kFrameHelloAck / kFramePopulation / kFrameReady kinds.
//
// Handshake (per connection, coordinator -> worker first):
//   hello      magic "MECT" | schema revision | rank | ranks
//   hello ack  magic | worker's schema revision | rank echo
// A revision mismatch is rejected by whichever side is newer with an error
// naming both revisions (same shape as the .meclog v1/v2 reader); garbage
// bytes on connect die in the envelope decode (oversize length or CRC) and
// the daemon survives to serve the next connection.
//
// The population frame carries everything a remote rank needs to rebuild
// its slice of the run: scenario scalars, sampler specs, the owned slice of
// user parameters, and the full resolved fault plan (outage/capacity state
// is global; see apply_shard_fault).  Per-device RNG streams are not
// shipped: the worker derives its slice's pre-init streams from (seed,
// device_lo) with random::split_streams, re-runs init_shard, and reproduces
// the coordinator's draws bit-for-bit.  Layouts are pinned with static_asserts
// in protocol.cpp and golden bytes in tests/test_wire_format.cpp, mirroring
// the barrier-payload conventions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/user.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::net::wire {

/// Handshake magic: the bytes "MECT" on the wire (u32 0x5443454D, LE).
inline constexpr std::uint32_t kHelloMagic = 0x5443454D;

/// Wire schema revision.  Bump whenever any transport payload layout
/// changes; the handshake rejects mismatched peers by name.  Revision 2
/// dropped the per-device RNG states from the population frame.
inline constexpr std::uint32_t kSchemaRevision = 2;

/// Wire sizes pinned by the golden-vector tests.
inline constexpr std::size_t kHelloWireSize = 16;
inline constexpr std::size_t kHelloAckWireSize = 12;
inline constexpr std::size_t kUserParamsWireSize = 48;
inline constexpr std::size_t kResolvedActionWireSize = 29;

struct Hello {
  std::uint32_t revision = kSchemaRevision;
  std::uint32_t rank = 0;
  std::uint32_t ranks = 0;
};

struct HelloAck {
  std::uint32_t revision = kSchemaRevision;
  std::uint32_t rank = 0;
};

std::vector<std::uint8_t> encode_hello(const Hello& hello);
/// Throws mec::RuntimeError on a bad magic or a truncated payload; a
/// revision mismatch is NOT rejected here (the caller needs the value to
/// name both revisions in its error).
Hello decode_hello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack);
HelloAck decode_hello_ack(std::span<const std::uint8_t> payload);

/// One rank's scenario slice, as shipped in the population frame.
struct WorkerPopulation {
  std::uint32_t rank = 0;
  std::uint32_t ranks = 0;
  std::uint64_t seed = 0;
  /// Full population incl. churn users; n_initial is the pre-churn count.
  std::uint32_t n_devices = 0;
  std::uint32_t n_initial = 0;
  std::uint32_t n_clusters = 0;
  /// Global shard count K; this rank owns shards [shard_lo, shard_hi) and
  /// devices [device_lo, device_hi).
  std::uint32_t shard_count = 0;
  std::uint32_t shard_lo = 0;
  std::uint32_t shard_hi = 0;
  std::uint32_t device_lo = 0;
  std::uint32_t device_hi = 0;
  double warmup = 0.0;
  double t_end = 0.0;
  bool has_fixed_gamma = false;
  /// g(fixed_gamma), precomputed — the worker never needs the EdgeDelay.
  double fixed_delay = 0.0;
  bool with_faults = false;
  sim::SamplerSpec service;
  sim::SamplerSpec latency;
  /// Owned slice only (device_hi - device_lo entries): per-worker network
  /// stays O(slice) even though the worker materializes full-size arrays
  /// for global indexing.
  std::vector<core::UserParams> users;
  /// Full resolved schedule — every rank replays the global outage/capacity
  /// timeline (apply_shard_fault touches only owned devices).
  std::vector<fault::ResolvedAction> actions;
};

std::vector<std::uint8_t> encode_population(const WorkerPopulation& pop);
/// Validates every range (rank < ranks, shard/device bounds, enum values,
/// slice sizes, trailing bytes); throws mec::RuntimeError on any violation.
WorkerPopulation decode_population(std::span<const std::uint8_t> payload);

}  // namespace mec::net::wire
