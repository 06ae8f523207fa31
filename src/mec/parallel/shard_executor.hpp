// Shard executor: partitions one simulation run's device population across
// K shards, each with its own future-event list and its slice of the
// per-device RNG streams, synchronized at the run's observation-grid
// barriers (see mec/sim/observer.hpp).
//
// Why this is exact (not just statistically equivalent): device dynamics
// are gamma-independent — an offload decision reads only the device's own
// queue, threshold, and RNG stream — so between barriers each shard can
// process its devices' events with no knowledge of the others.  Everything
// cross-cutting is either replayed serially in global time order (the
// EWMA/g(gamma) coupling, see sim/coupling.hpp), precomputed from the
// fault schedule (membership, see fault/fault_plan.hpp), or an
// order-invariant merge (integer counters, latency sketches).  The result
// is bit-identical for every shard count, including K = 1, which is the
// engine's only code path — there is no separate serial engine to drift
// from.
//
// Shard views of the fault schedule: a shard's event queue carries the
// outage toggles (they gate every device's offloads) plus the resolved,
// effective membership actions targeting its own device range.  Capacity
// scaling and ineffective actions never enter a shard — they are accounted
// centrally off the fault plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mec/fault/fault_plan.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/des.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::parallel {

/// Autotuning heuristic: the shard count for an `n_devices` run on
/// `hardware_threads` cores when nothing was requested.  Pure so the
/// heuristic table is unit-testable:
///   - K = 1 below the measured break-even population (~10^4 devices;
///     barrier overhead dominates the parallel win under it) or on a
///     single-core box;
///   - otherwise min(hardware_threads, n_devices / 5000) clamped to
///     [1, 16] — each shard keeps >= ~5000 devices so its event queue
///     amortizes the per-leg synchronization.
/// Sharding is bit-identical for every K, so the pick trades only
/// wall-clock, never results.
std::size_t auto_shard_count(std::size_t n_devices,
                             std::size_t hardware_threads) noexcept;

/// Largest shard count MEC_SHARDS may request.  Counter frames identify a
/// shard in a u16 with 0xFFFF reserved for global values, and no machine
/// this targets benefits past a few thousand shards.
inline constexpr std::size_t kMaxEnvShardCount = 4096;

/// Shard count for a run: an explicit request wins; 0 defers to the
/// MEC_SHARDS environment variable (so a whole test suite can be forced
/// onto a shard count without touching call sites); with neither set, the
/// auto_shard_count heuristic picks from the population size and
/// std::thread::hardware_concurrency().
///
/// MEC_SHARDS is validated eagerly: a non-numeric or out-of-range value
/// throws mec::RuntimeError naming the variable and the accepted range
/// [1, kMaxEnvShardCount] instead of being silently ignored.
std::size_t resolve_shard_count(std::size_t requested,
                                std::size_t n_devices);

/// Lower bound of shard `s` of `shards` over `n` devices (contiguous
/// partition; shard s owns [bound(s), bound(s+1))).
inline std::uint32_t shard_bound(std::uint32_t n, std::size_t shards,
                                 std::size_t s) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(n) * s /
                                    shards);
}

/// Shard slice [first, second) of rank `r` of `ranks` over `shards` shards.
/// Slices are ascending and contiguous, so assembling rank payloads in rank
/// order reproduces global shard order.
inline std::pair<std::size_t, std::size_t> rank_shard_range(
    std::size_t shards, std::size_t ranks, std::size_t r) noexcept {
  return {shards * r / ranks, shards * (r + 1) / ranks};
}

/// One shard's mutable run state: its event queue, offload log, partial
/// sketches, and integer counters.  Device states and RNG streams stay in
/// the workspace's global arrays (shards touch disjoint ranges; the
/// 128-byte aligned DeviceState rules out false sharing).  All floating
/// aggregates that are *not* integer-valued stay per-device or central —
/// only order-invariant quantities are summed across shards.
struct ShardContext {
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};

  std::uint32_t lo = 0;  ///< first owned device
  std::uint32_t hi = 0;  ///< one past the last owned device
  sim::EventQueue queue;
  /// Offloads of the current leg, in time order (EWMA mode only; cleared
  /// after each barrier's replay so memory stays bounded by leg length).
  std::vector<sim::OffloadRecord> log;
  stats::LatencySketch local_sojourns;
  stats::LatencySketch offload_delays;  ///< fixed-gamma mode only
  std::uint64_t events = 0;  ///< task-event pops (fault pops count centrally)
  std::uint64_t offloads_in_window = 0;
  /// Measured offloads per edge cluster (sized by the engine when the run's
  /// topology has clusters; summed across shards at barriers — integer
  /// sums are order-invariant).  Invariant: sums to offloads_in_window.
  std::vector<std::uint64_t> cluster_offloads;
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  bool measuring = false;
  bool flipped = false;  ///< this shard's own pop opened the window
  // Outage runtime (every shard tracks the global outage toggles).
  bool outage = false;
  fault::OutageMode outage_mode = fault::OutageMode::kReject;
  double outage_penalty = 0.0;
  /// This shard's slice of the fault plan; kFault events carry an index
  /// into this vector.
  std::vector<fault::ResolvedAction> view;
  /// Live event chains for lazy cancellation, indexed by (device - lo).
  /// Sequence numbers are shard-queue-local; only equality with the
  /// remembered value matters, exactly as in the single-queue engine.
  std::vector<std::uint64_t> arrival_seq;
  std::vector<std::uint64_t> departure_seq;

  /// Rebinds the shard to a device range and resets all per-run state,
  /// keeping allocations (queues and logs reach a steady footprint across
  /// workspace-reused runs).
  void reset(std::uint32_t lo_device, std::uint32_t hi_device,
             bool measuring_from_start);
};

}  // namespace mec::parallel
