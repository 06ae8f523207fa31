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

/// The shared run block plus Algorithm 1's controls.  The whole run is the
/// experiment (no warm-up).  Thresholds mutate only at epoch barriers, so
/// the loop is bit-identical for every shard count, and its
/// MutableTroPolicy thresholds are TRO by construction, so the process and
/// tcp transports' mirrored-threshold requirement always holds.  With
/// churn, joining devices get their own MutableTroPolicy (threshold 0 until
/// the first post-join broadcast), like any late joiner in Algorithm 1.
/// Algorithm 1 keeps broadcasting the scalar aggregate utilization under a
/// multi-cluster topology; the per-cluster gamma trajectories still land in
/// the telemetry stream, where the epoch retunes show between grid
/// instants.
struct ClosedLoopOptions : RunOptions {
  /// Long enough by default for Algorithm 1 to settle.
  ClosedLoopOptions() { horizon = 400.0; }

  double update_period = 5.0;   ///< seconds between broadcast epochs, > 0
  double eta0 = 0.1;            ///< Algorithm 1 step, (0, 1]
  double epsilon = 0.01;        ///< Algorithm 1 accuracy, (0, 1)
  double oscillation_tol = 1e-12;
  core::UpdateGate update_gate;  ///< null => every device updates
  /// Algorithm 1 freezes thresholds once |ghat_t - ghat_{t-1}| <= epsilon —
  /// correct in a stationary environment, blind in a faulty one.  With
  /// resume_on_drift, a settled loop whose *measured* utilization strays
  /// more than `drift_margin` from the settled estimate restarts the
  /// step/halving schedule (eta back to eta0), re-converging to the shifted
  /// fixed point.  Off by default: the stationary runs keep Algorithm 1's
  /// exact stopping rule.
  bool resume_on_drift = false;
  double drift_margin = 0.05;
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
