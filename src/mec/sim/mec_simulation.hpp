// Full-system discrete-event simulator of the heterogeneous MEC model.
//
// N devices receive Poisson task streams; an admission policy (TRO, DPO, ...)
// routes each arrival to the local FCFS queue or to the edge.  Local service
// times come from a pluggable sampler (exponential by default; resampled
// measured datasets for the practical settings).  Offloaded tasks pay a
// wireless latency sample plus the edge processing delay g(gamma), where
// gamma is either held fixed (quasi-stationary evaluation, mirroring the
// theory) or tracked online with an exponentially-weighted rate estimator.
//
// The simulator is the library's ground truth: tests validate the closed
// forms (Eq. 7-8) against it, and the practical-settings experiments use it
// to measure utilization and cost under non-exponential service.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mec/core/dtu.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/metrics.hpp"
#include "mec/sim/policies.hpp"
#include "mec/sim/samplers.hpp"

namespace mec::sim {

/// How a run's shard legs execute relative to the coordinating process.
/// Either way the coordinator/worker split goes through the same
/// parallel::Transport seam and results are bit-identical — the transport
/// trades nothing but wall-clock and isolation (determinism contract #8,
/// docs/ARCHITECTURE.md).
enum class TransportKind {
  /// Workers are plain objects in this process sharing the workspace
  /// (today's default; zero-copy barrier views).
  kInProcess,
  /// The run forks worker processes, each owning a contiguous slice of the
  /// shards; barrier payloads travel over length-prefixed CRC-checked
  /// socket frames.  Each rank rebuilds its slice from a population frame,
  /// exactly like a kTcp rank.  Requires a decision provider with
  /// per-device TRO thresholds (threshold_value(n) >= 0 for every device) —
  /// virtual non-TRO policies cannot be mirrored across a process boundary.
  kProcess,
  /// Ranks live in `mec worker` daemons reached over TCP
  /// (RunOptions::worker_addresses, one rank per address); the same
  /// wire dialect, population frames and rank entry as kProcess, plus a
  /// versioned handshake.  Requires per-device TRO thresholds like
  /// kProcess.
  kTcp,
};

/// The settings every run takes from its caller, whichever policy drives
/// it.  SimulationOptions and the closed-loop, price-based and minority-game
/// driver options all derive from this block, so each setting is declared
/// once and a driver hands it to the engine whole, as one base-slice copy.
struct RunOptions {
  double horizon = 200.0;  ///< measurement window length
  std::uint64_t seed = 1;
  /// Local service and wireless latency samplers (exponential by default;
  /// see samplers.hpp).  Specs are data, so every transport runs the same
  /// recipe: ranks behind a wire rebuild them from their population frame.
  SamplerSpec service;
  SamplerSpec latency;
  /// Time constant of the online EWMA utilization estimate that drives the
  /// edge delay (unless SimulationOptions::fixed_gamma pins it).
  double utilization_ewma_tau = 10.0;
  /// Edge-cluster layout (defaults to one cluster covering the whole
  /// capacity — the scalar-gamma engine, bit-for-bit).  Devices route to
  /// cluster `device % clusters`; cluster k owns capacity
  /// `initial_devices * capacity * share(k)`.
  ClusterTopology topology;
  /// Optional deterministic fault/churn schedule (see mec/fault/).  Fault
  /// actions are injected as first-class events into the future-event list,
  /// so a schedule replays bit-identically for any thread count.  A null or
  /// empty schedule leaves the engine on the fault-free fast path with
  /// bit-identical results to a build without this feature.
  ///
  /// Semantics under faults:
  ///   - Capacity scaling rescales the *denominator* of the utilization
  ///     estimate (the EWMA path); a pinned `fixed_gamma` stays pinned.
  ///   - During an outage window, offload decisions are rerouted to the
  ///     local queue (kReject) or pay extra latency (kPenalty).
  ///   - Crashes drop the device's local queue (counted in
  ///     FaultStats::tasks_lost) and stop its arrivals until a restart.
  ///   - Churn joins append devices after the initial population, in
  ///     schedule order; policy/threshold spans must cover them (see
  ///     total_devices() and with_churn()).  Departures retire an active
  ///     device for good.
  std::shared_ptr<const fault::FaultSchedule> faults;
  /// Shard count for the run's device partition: an explicit value >= 1
  /// wins; 0 (default) defers to the MEC_SHARDS environment variable, and
  /// with neither set the count is autotuned from the population size and
  /// hardware_concurrency() (parallel::auto_shard_count — K = 1 below
  /// ~10^4 devices).  Either way the count is capped at the population
  /// size.  Results are bit-identical for every shard count — sharding
  /// trades nothing but wall-clock (see parallel/shard_executor.hpp and
  /// docs/ARCHITECTURE.md for the exactness argument).
  std::size_t shards = 0;
  /// Execution transport for the shard legs (see TransportKind).  Results
  /// are bit-identical across transports for any shard/worker split.
  TransportKind transport = TransportKind::kInProcess;
  /// Worker-process count for TransportKind::kProcess: 0 (default) picks 2;
  /// any value is capped at the run's shard count.  Ignored by kInProcess.
  /// Worker rank r owns the contiguous shard slice [K*r/W, K*(r+1)/W).
  std::size_t workers = 0;
  /// Worker daemon addresses ("host:port") for TransportKind::kTcp, one
  /// rank per entry in rank order.  The list must be duplicate-free and no
  /// longer than the run's shard count (every rank needs at least one
  /// shard).  Shard slices follow the same [K*r/W, K*(r+1)/W) rule, so any
  /// placement streams the exact inproc bytes.
  std::vector<std::string> worker_addresses;
  /// When > 0, the run records a TimelinePoint every `sample_interval`
  /// simulated seconds (from time 0 through warm-up and measurement).
  double sample_interval = 0.0;
  /// When non-empty, the run streams windowed telemetry to this .meclog
  /// path: one fixed-size window record per sample instant, flushed at the
  /// observation-grid barrier (see src/mec/obs/ and docs/OBSERVABILITY.md).
  /// Requires sample_interval > 0.  Window records are bit-identical to
  /// the in-memory timeline for every shard count.
  std::string stream_log;
  /// Emit engine-counter frames (events/s per shard, queue depth, barrier
  /// wait, replay backlog, ...) into the stream log.  Counter frames are
  /// wall-clock diagnostics — useful, but not deterministic.  No effect
  /// without stream_log, or when the build has the MEC_OBS_COUNTERS CMake
  /// option off.
  bool stream_counters = true;
  /// Record the in-memory SimulationResult::timeline.  Default on; long
  /// streamed runs turn it off so telemetry memory stays O(devices + one
  /// window) instead of O(samples).
  bool record_timeline = true;
};

/// A directly-configured run: the shared block plus the warm-up, the
/// utilization model's fixed point or seed, and the epoch hooks a policy
/// driver installs.
struct SimulationOptions : RunOptions {
  double warmup = 20.0;  ///< discarded transient, in simulated seconds
  /// If set, the edge delay uses this constant utilization (quasi-stationary
  /// evaluation); otherwise the online EWMA estimate is used, seeded from
  /// `initial_gamma`.
  std::optional<double> fixed_gamma;
  double initial_gamma = 0.0;
  /// When > 0 and on_epoch is set, the engine invokes on_epoch(now, gamma)
  /// every `epoch_period` simulated seconds, where gamma is the engine's
  /// current utilization estimate.  The callback may retune
  /// MutableTroPolicy thresholds — this is how the closed-loop DTU runs
  /// *inside* the simulator (see mec/sim/closed_loop.hpp).
  double epoch_period = 0.0;
  std::function<void(double now, double gamma_estimate)> on_epoch;
  /// Per-cluster epoch hook: invoked at every epoch instant with the
  /// per-cluster utilization estimates (one entry per topology cluster;
  /// the fixed_gamma value replicated per cluster in quasi-stationary
  /// mode).  Controllers mutating policy-visible state (prices, cluster
  /// activation flags) must do so only here — epoch instants are shard
  /// barriers, which is what keeps the new policy families bit-identical
  /// across shard counts.  May be combined with on_epoch (it fires after).
  std::function<void(double now, std::span<const double> cluster_gammas)>
      on_cluster_epoch;
};

/// The initial population followed by the churn joiners of `faults` in
/// schedule order — the device order of every run (policy and threshold
/// spans must cover it).
std::vector<core::UserParams> with_churn(
    std::span<const core::UserParams> users,
    const std::shared_ptr<const fault::FaultSchedule>& faults);

/// Reusable per-run simulation state (device states, RNG streams, the
/// future-event list).  A default-constructed workspace is empty; the first
/// run sizes it, and reusing it across runs of same-sized populations makes
/// steady-state simulation allocation-free — the replication engine and the
/// DTU's utilization oracle both run thousands of same-shape simulations.
/// Results are bit-identical whether or not a workspace is reused.  A
/// workspace must not be shared between concurrent runs.
class SimWorkspace {
 public:
  SimWorkspace();
  ~SimWorkspace();
  SimWorkspace(SimWorkspace&&) noexcept;
  SimWorkspace& operator=(SimWorkspace&&) noexcept;

  /// Opaque buffer block (defined in sim/workspace.hpp; the engine layers
  /// take it by reference, which is why it cannot be private).
  struct Impl;

 private:
  friend class MecSimulation;
  std::unique_ptr<Impl> impl_;
};

/// One reusable simulator bound to a population and an edge configuration.
class MecSimulation {
 public:
  /// Copies the population. Requires non-empty users, capacity > 0, valid
  /// delay, warmup >= 0, horizon > 0.  When the options carry a fault
  /// schedule with churn, the joining users are appended to the population
  /// at construction (in schedule order): policy/threshold spans passed to
  /// run()/run_tro() must then have total_devices() entries.  The nominal
  /// edge capacity stays `initial_devices() * capacity` — churn moves load,
  /// not infrastructure.
  MecSimulation(std::span<const core::UserParams> users, double capacity,
                core::EdgeDelay delay, SimulationOptions options = {});

  /// Runs with per-device policies (size must match total_devices()).  When
  /// every policy exposes tro_threshold(), the arrival decision runs on a
  /// sealed non-virtual fast path (bit-identical to the virtual dispatch).
  SimulationResult run(
      std::span<const std::unique_ptr<OffloadPolicy>> policies) const;
  SimulationResult run(std::span<const std::unique_ptr<OffloadPolicy>> policies,
                       SimWorkspace& workspace) const;

  /// Runs the TRO policy with per-device thresholds (x_n >= 0) without
  /// materializing policy objects (always on the fast path).
  SimulationResult run_tro(std::span<const double> thresholds) const;
  SimulationResult run_tro(std::span<const double> thresholds,
                           SimWorkspace& workspace) const;

  /// Runs the DPO policy with per-device offload probabilities.
  SimulationResult run_dpo(std::span<const double> rhos) const;

  /// Initial population plus any churn users from the fault schedule.
  std::size_t total_devices() const noexcept { return users_.size(); }
  /// The population passed to the constructor (pre-churn).
  std::size_t initial_devices() const noexcept { return n_initial_; }

 private:
  std::vector<core::UserParams> users_;  ///< initial population + churn users
  std::size_t n_initial_ = 0;
  double capacity_;
  core::EdgeDelay delay_;
  SimulationOptions options_;
};

/// Adapts the simulator to Algorithm 1's gamma_t oracle: each call runs one
/// simulation with the supplied thresholds and returns the measured
/// utilization.  Successive calls use decorrelated seeds.
class DesUtilizationSource final : public core::UtilizationSource {
 public:
  DesUtilizationSource(std::span<const core::UserParams> users,
                       double capacity, core::EdgeDelay delay,
                       SimulationOptions options = {});

  double utilization(std::span<const double> thresholds) override;

  /// Result of the most recent run (for cost reporting). Requires at least
  /// one utilization() call.
  const SimulationResult& last_result() const;

 private:
  std::vector<core::UserParams> users_;
  double capacity_;
  core::EdgeDelay delay_;
  SimulationOptions options_;
  SimWorkspace workspace_;  ///< reused across utilization() calls
  std::optional<SimulationResult> last_;
  std::uint64_t call_count_ = 0;
};

}  // namespace mec::sim
