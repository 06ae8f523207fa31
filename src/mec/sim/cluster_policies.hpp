// Cluster-aware policy families layered on the multi-cluster edge topology:
//
//   price-based offloading  — each cluster posts a congestion price, updated
//       by dual ascent toward a target utilization at epoch barriers
//       (cf. Liu & Liu, price-based distributed offloading).  A device
//       compares its marginal local cost w*p_L + (q+1)/s against the priced
//       offload cost w*p_E + tau + price and offloads when the edge is
//       cheaper — which is exactly a TRO threshold rule with threshold
//       x_n(price) = max(0, s_n*(tau_n + w_n*(p_E - p_L) + price) - 1), so
//       the policy rides the sealed TRO fast path with a price-modulated
//       live threshold.
//
//   minority-game activation — each cluster is an agent of a deterministic
//       minority game (see minority_game.hpp); clusters on the minority
//       side stay active for the next epoch (Ranadheera et al., server
//       activation via minority games).  Devices of an inactive cluster
//       keep everything local; devices of an active one apply their TRO
//       threshold.
//
// Determinism contract (both families): policy-visible state — prices,
// thresholds, activation flags — mutates only inside on_cluster_epoch,
// i.e. at observation-grid barriers where all shards are parked, so runs
// are bit-identical for every shard count.  Decisions consume exactly the
// RNG draws the TRO rule would (price-based always, minority-game only
// while the cluster is active), keeping per-device streams aligned.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/minority_game.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim {

/// TRO-family policy whose threshold is derived from the device parameters
/// and its cluster's current price.  refresh(price) must be called only at
/// epoch barriers (see the determinism contract above).
class PriceBasedPolicy final : public OffloadPolicy {
 public:
  PriceBasedPolicy(const core::UserParams& user, double initial_price);

  bool offload(std::uint64_t queue_length,
               random::Xoshiro256& rng) const override {
    return tro_offload(threshold_, queue_length, rng);
  }
  std::string describe() const override;
  const double* tro_threshold() const noexcept override { return &threshold_; }

  /// Recomputes the threshold for a new cluster price (epoch barriers only).
  void refresh(double price);
  double threshold() const noexcept { return threshold_; }

 private:
  double service_rate_;
  double base_cost_;  ///< tau + w*(p_E - p_L): priceless offload handicap
  double threshold_;
};

/// Gates a TRO threshold behind the device's cluster activation flag (the
/// pointed-to byte is owned by the minority-game driver and flips only at
/// epoch barriers).  Not a threshold rule — inactive clusters skip the
/// boundary Bernoulli draw — so it dispatches through the virtual path.
class MinorityGatedPolicy final : public OffloadPolicy {
 public:
  MinorityGatedPolicy(double threshold, const std::uint8_t* active);

  bool offload(std::uint64_t queue_length,
               random::Xoshiro256& rng) const override {
    if (*active_ == 0) return false;
    return tro_offload(threshold_, queue_length, rng);
  }
  std::string describe() const override;

 private:
  double threshold_;
  const std::uint8_t* active_;
};

// --- price-based driver ----------------------------------------------------

/// The shared run block plus the dual ascent's controls.  Initial prices
/// come from topology.prices.  The price controller runs only in-process:
/// a transport other than kInProcess is rejected at entry, since no
/// byte-equality check covers it across a wire.
struct PriceBasedOptions : RunOptions {
  /// Per-cluster utilization target of the dual ascent; the equilibrium
  /// gamma_star of the scenario is the natural choice.
  double gamma_target = 0.5;
  double price_step = 2.0;   ///< ascent step per unit utilization error
  double max_price = 50.0;   ///< clamp ceiling (floor is 0)
  double update_period = 5.0;
  double warmup = 0.0;
  double initial_gamma = 0.0;
};

struct PriceBasedResult {
  std::vector<double> final_prices;            ///< one per cluster
  std::vector<std::vector<double>> price_epochs;  ///< per epoch, per cluster
  std::vector<std::vector<double>> gamma_epochs;  ///< observed at each epoch
  SimulationResult run;
};

/// Runs one simulation under the price-based policy family: devices hold
/// price-modulated TRO thresholds, and every cluster's price moves by
/// price_step * (gamma_k - gamma_target) (clamped to [0, max_price]) at
/// each epoch barrier.
PriceBasedResult run_price_based(std::span<const core::UserParams> users,
                                 double capacity,
                                 const core::EdgeDelay& delay,
                                 const PriceBasedOptions& options);

// --- minority-game driver --------------------------------------------------

/// The shared run block plus the game and the gated thresholds.  Gated
/// policies are not threshold rules, so a transport other than kInProcess
/// is rejected before any rank starts (engine::mirror_thresholds).
struct MinorityGameRunOptions : RunOptions {
  MinorityGameConfig game;  ///< agents is overwritten with topology.clusters
  /// Per-device TRO thresholds applied while the device's cluster is
  /// active; must cover the population incl. churn joiners.
  std::vector<double> thresholds;
  double update_period = 5.0;
  double warmup = 0.0;
  double initial_gamma = 0.0;
};

struct MinorityGameRunResult {
  std::vector<std::size_t> attendance;  ///< active clusters per epoch
  double mean_attendance = 0.0;
  SimulationResult run;
};

/// Runs one simulation under minority-game server activation: the game is
/// stepped at every epoch barrier and each cluster's activation flag is set
/// to its agent's chosen side.
MinorityGameRunResult run_minority_game(
    std::span<const core::UserParams> users, double capacity,
    const core::EdgeDelay& delay, const MinorityGameRunOptions& options);

}  // namespace mec::sim
