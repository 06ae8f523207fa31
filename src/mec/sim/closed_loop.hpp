// Closed-loop operation: Algorithm 1 running *inside* the discrete-event
// simulator.
//
// The iteration-level DTU (mec/core/dtu.hpp) evaluates gamma_t with an
// oracle between iterations.  In a deployed system the two time scales of
// the paper's quasi-stationary argument coexist in real time: tasks flow
// continuously (fast scale) while every `update_period` seconds the edge
// broadcasts its *measured* utilization estimate and devices best-respond
// (slow scale).  This module runs exactly that: one continuous simulation in
// which an epoch callback executes Algorithm 1's estimate/step/halving logic
// against the engine's EWMA utilization and retunes per-device
// MutableTroPolicy thresholds in place — queues are never reset, stragglers
// can skip updates, and convergence happens under genuine measurement noise.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mec/core/dtu.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {

struct ClosedLoopOptions {
  double update_period = 5.0;   ///< seconds between broadcast epochs, > 0
  double horizon = 400.0;       ///< total simulated seconds, > 0
  double eta0 = 0.1;            ///< Algorithm 1 step, (0, 1]
  double epsilon = 0.01;        ///< Algorithm 1 accuracy, (0, 1)
  double oscillation_tol = 1e-12;
  std::uint64_t seed = 1;
  core::UpdateGate update_gate;   ///< null => every device updates
  SamplerSpec service;            ///< forwarded to SimulationOptions
  SamplerSpec latency;
  double utilization_ewma_tau = 10.0;
  /// Optional fault/churn schedule forwarded to the simulator.  With churn,
  /// joining devices get their own MutableTroPolicy (threshold 0 until the
  /// first post-join broadcast), like any late joiner in Algorithm 1.
  std::shared_ptr<const fault::FaultSchedule> faults;
  /// Algorithm 1 freezes thresholds once |ghat_t - ghat_{t-1}| <= epsilon —
  /// correct in a stationary environment, blind in a faulty one.  With
  /// resume_on_drift, a settled loop whose *measured* utilization strays
  /// more than `drift_margin` from the settled estimate restarts the
  /// step/halving schedule (eta back to eta0), re-converging to the shifted
  /// fixed point.  Off by default: the stationary runs keep Algorithm 1's
  /// exact stopping rule.
  bool resume_on_drift = false;
  double drift_margin = 0.05;
  /// Shard count forwarded to SimulationOptions::shards (0 = explicit
  /// MEC_SHARDS, else autotuned).  Thresholds mutate only at epoch
  /// barriers, so the closed loop is bit-identical for every shard count.
  std::size_t shards = 0;
  /// Transport + worker count forwarded to SimulationOptions.  The loop's
  /// MutableTroPolicy thresholds are TRO by construction, so the process
  /// transport's mirrored-threshold requirement always holds here.
  TransportKind transport = TransportKind::kInProcess;
  std::size_t workers = 0;
  /// host:port per rank, forwarded to SimulationOptions (tcp only).
  std::vector<std::string> worker_addresses;
  /// Edge cluster topology forwarded to the simulator.  Algorithm 1 keeps
  /// broadcasting the scalar aggregate utilization; the per-cluster gamma
  /// trajectories still land in the telemetry stream.
  ClusterTopology topology;
  /// Observation-grid spacing forwarded to the simulator; > 0 records a
  /// timeline and (with stream_log) cuts streamed windows.
  double sample_interval = 0.0;
  /// Streamed-telemetry passthrough (see SimulationOptions): the closed
  /// loop's epoch retunes land between grid instants, so the streamed
  /// gamma trajectory shows each broadcast taking effect.
  std::string stream_log;
  bool stream_counters = true;
  bool record_timeline = true;
};

/// One broadcast epoch of the in-simulator algorithm.
struct ClosedLoopEpoch {
  double time = 0.0;          ///< simulated seconds of the broadcast
  double gamma_measured = 0.0;///< EWMA utilization the edge observed
  double gamma_hat = 0.0;     ///< estimate broadcast this epoch
  double eta = 0.0;           ///< step size after the halving rule
  double mean_threshold = 0.0;
};

struct ClosedLoopResult {
  std::vector<ClosedLoopEpoch> epochs;
  std::vector<double> thresholds;   ///< final per-device thresholds
  double final_gamma_hat = 0.0;
  bool estimate_settled = false;    ///< |step| fell below epsilon in-run
  /// Times the settled loop was re-opened by resume_on_drift (faults).
  std::uint32_t drift_resumes = 0;
  SimulationResult run;             ///< whole-run measurements
};

/// Runs the closed loop. Requires non-empty users, capacity > 0, valid
/// delay, and well-formed options.
ClosedLoopResult run_closed_loop(std::span<const core::UserParams> users,
                                 double capacity, const core::EdgeDelay& delay,
                                 const ClosedLoopOptions& options = {});

}  // namespace mec::sim
