#include "mec/sim/cluster_policies.hpp"

#include <algorithm>
#include <sstream>

#include "mec/common/error.hpp"

namespace mec::sim {

PriceBasedPolicy::PriceBasedPolicy(const core::UserParams& user,
                                   double initial_price)
    : service_rate_(user.service_rate),
      base_cost_(user.offload_latency +
                 user.weight * (user.energy_offload - user.energy_local)),
      threshold_(0.0) {
  refresh(initial_price);
}

void PriceBasedPolicy::refresh(double price) {
  // Offload iff w*p_E + tau + price < w*p_L + (q+1)/s, i.e. iff the local
  // queue exceeds x = s*(base + price) - 1.  The max keeps a deeply
  // subsidized edge at "offload everything" instead of a negative
  // threshold.
  threshold_ = std::max(0.0, service_rate_ * (base_cost_ + price) - 1.0);
}

std::string PriceBasedPolicy::describe() const {
  std::ostringstream os;
  os << "price-based TRO(x=" << threshold_ << ")";
  return os.str();
}

MinorityGatedPolicy::MinorityGatedPolicy(double threshold,
                                         const std::uint8_t* active)
    : threshold_(threshold), active_(active) {
  MEC_EXPECTS(threshold >= 0.0);
  MEC_EXPECTS(active != nullptr);
}

std::string MinorityGatedPolicy::describe() const {
  std::ostringstream os;
  os << "minority-gated TRO(x=" << threshold_ << ")";
  return os.str();
}

namespace {

/// The driver's SimulationOptions: the caller's whole run block, plus the
/// warm-up, the EWMA seed and the epoch cadence the cluster controllers
/// share.
template <class DriverOptions>
SimulationOptions driver_sim_options(const DriverOptions& options) {
  SimulationOptions so;
  static_cast<RunOptions&>(so) = options;
  so.warmup = options.warmup;
  so.initial_gamma = options.initial_gamma;
  so.epoch_period = options.update_period;
  return so;
}

}  // namespace

PriceBasedResult run_price_based(std::span<const core::UserParams> users,
                                 double capacity,
                                 const core::EdgeDelay& delay,
                                 const PriceBasedOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(options.update_period > 0.0);
  MEC_EXPECTS(options.gamma_target > 0.0 && options.gamma_target <= 1.0);
  MEC_EXPECTS(options.price_step >= 0.0);
  MEC_EXPECTS(options.max_price >= 0.0);
  if (options.transport != TransportKind::kInProcess)
    throw RuntimeError(
        "run_price_based: transport must be kInProcess (the price "
        "controller has no byte-equality coverage across a process or "
        "machine boundary)");
  options.topology.check();

  const std::vector<core::UserParams> all_users =
      with_churn(users, options.faults);
  const std::size_t clusters = options.topology.clusters;

  std::vector<double> prices = options.topology.prices;
  if (prices.empty()) prices.assign(clusters, 0.0);

  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  std::vector<PriceBasedPolicy*> tunable;
  policies.reserve(all_users.size());
  tunable.reserve(all_users.size());
  for (std::size_t n = 0; n < all_users.size(); ++n) {
    auto policy = std::make_unique<PriceBasedPolicy>(
        all_users[n],
        prices[options.topology.route(static_cast<std::uint32_t>(n))]);
    tunable.push_back(policy.get());
    policies.push_back(std::move(policy));
  }

  PriceBasedResult result;

  SimulationOptions so = driver_sim_options(options);
  so.on_cluster_epoch = [&](double /*now*/,
                            std::span<const double> cluster_gammas) {
    // Dual ascent on the per-cluster congestion prices, then one threshold
    // refresh per device — all inside the barrier, so every shard count
    // sees the same thresholds on the next leg.
    for (std::size_t k = 0; k < clusters; ++k)
      prices[k] = std::clamp(
          prices[k] + options.price_step *
                          (cluster_gammas[k] - options.gamma_target),
          0.0, options.max_price);
    for (std::size_t n = 0; n < tunable.size(); ++n)
      tunable[n]->refresh(
          prices[options.topology.route(static_cast<std::uint32_t>(n))]);
    result.price_epochs.push_back(prices);
    result.gamma_epochs.emplace_back(cluster_gammas.begin(),
                                     cluster_gammas.end());
  };

  MecSimulation simulation(users, capacity, delay, std::move(so));
  result.run = simulation.run(policies);
  result.final_prices = std::move(prices);
  return result;
}

MinorityGameRunResult run_minority_game(
    std::span<const core::UserParams> users, double capacity,
    const core::EdgeDelay& delay, const MinorityGameRunOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(options.update_period > 0.0);
  options.topology.check();

  const std::vector<core::UserParams> all_users =
      with_churn(users, options.faults);
  MEC_EXPECTS_MSG(options.thresholds.size() == all_users.size(),
                  "minority-game run needs one threshold per device "
                  "(incl. churn joiners)");
  const std::size_t clusters = options.topology.clusters;

  MinorityGameConfig game_config = options.game;
  game_config.agents = clusters;
  MinorityGame game(game_config);

  // Activation flags live here; the policies hold stable pointers into the
  // vector, and flips happen only in the epoch callback.
  std::vector<std::uint8_t> active(clusters, 1);

  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  policies.reserve(all_users.size());
  for (std::size_t n = 0; n < all_users.size(); ++n) {
    const std::size_t k =
        options.topology.route(static_cast<std::uint32_t>(n));
    policies.push_back(std::make_unique<MinorityGatedPolicy>(
        options.thresholds[n], &active[k]));
  }

  MinorityGameRunResult result;

  SimulationOptions so = driver_sim_options(options);
  so.on_cluster_epoch = [&](double /*now*/,
                            std::span<const double> /*cluster_gammas*/) {
    const std::size_t attendance = game.step();
    const std::vector<std::uint8_t>& actions = game.actions();
    for (std::size_t k = 0; k < clusters; ++k) active[k] = actions[k];
    result.attendance.push_back(attendance);
  };

  MecSimulation simulation(users, capacity, delay, std::move(so));
  result.run = simulation.run(policies);

  if (!result.attendance.empty()) {
    double acc = 0.0;
    for (const std::size_t a : result.attendance)
      acc += static_cast<double>(a);
    result.mean_attendance = acc / static_cast<double>(result.attendance.size());
  }
  return result;
}

}  // namespace mec::sim
