#include "mec/sim/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"

namespace mec::sim {

ClosedLoopResult run_closed_loop(std::span<const core::UserParams> users,
                                 double capacity, const core::EdgeDelay& delay,
                                 const ClosedLoopOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(delay.valid());
  MEC_EXPECTS(options.update_period > 0.0);
  MEC_EXPECTS(options.horizon > options.update_period);
  MEC_EXPECTS(options.eta0 > 0.0 && options.eta0 <= 1.0);
  MEC_EXPECTS(options.epsilon > 0.0 && options.epsilon < 1.0);
  MEC_EXPECTS(options.drift_margin > 0.0);

  // With churn, joining devices get their own policy.
  const std::vector<core::UserParams> all_users =
      with_churn(users, options.faults);

  // Devices start at threshold 0 (offload everything), as in Algorithm 1.
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  std::vector<MutableTroPolicy*> tunable;
  policies.reserve(all_users.size());
  tunable.reserve(all_users.size());
  for (std::size_t n = 0; n < all_users.size(); ++n) {
    auto policy = std::make_unique<MutableTroPolicy>(0.0);
    tunable.push_back(policy.get());
    policies.push_back(std::move(policy));
  }

  // Algorithm 1 state, updated by the epoch callback.
  struct LoopState {
    double ghat_prev2 = 1.0;  // gamma_hat_{-1}
    double ghat_prev = 0.0;   // gamma_hat_0
    double eta;
    int counter_l = 1;
    int t = 0;
    bool settled = false;
  } state;
  state.eta = options.eta0;

  ClosedLoopResult result;

  SimulationOptions sim_options;
  static_cast<RunOptions&>(sim_options) = options;
  sim_options.warmup = 0.0;  // the whole run *is* the experiment
  sim_options.epoch_period = options.update_period;
  sim_options.on_epoch = [&](double now, double gamma_measured) {
    ++state.t;
    if (state.settled && options.resume_on_drift &&
        std::abs(gamma_measured - state.ghat_prev) > options.drift_margin) {
      // The environment moved under a settled estimate (capacity shock,
      // churn wave): restart the step/halving schedule.  ghat_prev2 gets a
      // far sentinel so the settling test cannot re-fire before two fresh
      // updates (mirroring the cold-start state), and the sentinel is
      // unreachable by ghat so the oscillation rule stays quiet.
      state.settled = false;
      state.eta = options.eta0;
      state.counter_l = 1;
      state.ghat_prev2 = 2.0;
      ++result.drift_resumes;
    } else if (std::abs(state.ghat_prev - state.ghat_prev2) <= options.epsilon) {
      state.settled = true;  // estimate pinned; devices hold thresholds
    }

    double ghat = state.ghat_prev;
    if (!state.settled) {
      double step = 0.0;
      if (gamma_measured > state.ghat_prev)
        step = state.eta;
      else if (gamma_measured < state.ghat_prev)
        step = -state.eta;
      ghat = std::clamp(state.ghat_prev + step, 0.0, 1.0);

      const double g_value = delay(ghat);
      for (std::size_t n = 0; n < all_users.size(); ++n) {
        if (options.update_gate && !options.update_gate(n, state.t)) continue;
        tunable[n]->set_threshold(
            static_cast<double>(core::best_threshold(all_users[n], g_value)));
      }
      if (state.t >= 2 &&
          std::abs(ghat - state.ghat_prev2) <= options.oscillation_tol) {
        ++state.counter_l;
        state.eta = options.eta0 / state.counter_l;
      }
      state.ghat_prev2 = state.ghat_prev;
      state.ghat_prev = ghat;
    }

    double mean_x = 0.0;
    for (const MutableTroPolicy* p : tunable) mean_x += p->threshold();
    mean_x /= static_cast<double>(tunable.size());
    result.epochs.push_back(
        ClosedLoopEpoch{now, gamma_measured, ghat, state.eta, mean_x});
  };

  MecSimulation simulation(users, capacity, delay, std::move(sim_options));
  result.run = simulation.run(policies);

  result.thresholds.reserve(tunable.size());
  for (const MutableTroPolicy* p : tunable)
    result.thresholds.push_back(p->threshold());
  result.final_gamma_hat = state.ghat_prev;
  result.estimate_settled = state.settled;
  return result;
}

}  // namespace mec::sim
