// Policy-family comparison on a multi-cluster edge: the paper's TRO/DTU
// threshold policies against the two cluster-aware families layered on the
// vector-gamma coupling (src/mec/sim/cluster_policies.hpp):
//
//   tro       MFNE thresholds, tracked utilization (static equilibrium);
//   dtu       Algorithm 1 running closed-loop inside the simulator;
//   price     per-cluster congestion prices, dual ascent toward the MFNE
//             utilization (Liu & Liu style price-based offloading);
//   minority  minority-game server activation: each cluster is one agent,
//             only minority-side clusters serve each epoch (Ranadheera
//             et al.).
//
// All four arms share one population, one seed, and one K-cluster topology,
// so the table isolates the policy family.  Expected shape: tro and dtu land
// near the MFNE cost; price tracks the same utilization without knowing the
// MFNE thresholds (its prices encode them); minority pays a cost premium for
// running half the clusters dark but keeps attendance near K/2.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/io/csv.hpp"
#include "mec/io/table.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

using namespace mec;

struct Arm {
  std::string name;
  double mean_cost = 0.0;
  double gamma = 0.0;
  double offload_fraction = 0.0;
  std::vector<double> cluster_gamma;
  std::string note;
};

std::string cluster_cell(const std::vector<double>& gammas) {
  std::string out;
  for (const double g : gammas) {
    if (!out.empty()) out += " ";
    out += io::TextTable::fmt(g, 3);
  }
  return out;
}

int run(mec::bench::Context& ctx) {
  const bool smoke = ctx.smoke();
  const long n_flag = ctx.get_long("n");
  const std::size_t n_users =
      static_cast<std::size_t>(n_flag > 0 ? n_flag : (smoke ? 96 : 400));
  const double horizon_flag = ctx.get_double("horizon");
  const double horizon = horizon_flag > 0.0 ? horizon_flag
                                            : (smoke ? 30.0 : 150.0);
  const auto clusters =
      static_cast<std::size_t>(std::max(1L, ctx.get_long("clusters")));
  const auto seed = static_cast<std::uint64_t>(ctx.get_long("seed"));
  const auto shards = static_cast<std::size_t>(ctx.get_long("shards"));
  const double update_period = ctx.get_double("update-period");
  MEC_EXPECTS_MSG(update_period > 0.0, "--update-period must be > 0");
  const double warmup = smoke ? 2.0 : 10.0;

  const population::ScenarioConfig cfg = population::theoretical_scenario(
      population::LoadRegime::kAtService, n_users);
  const population::Population pop = population::sample_population(cfg, seed);
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  const std::vector<double> xs(mfne.thresholds.begin(),
                               mfne.thresholds.end());

  // One run block handed to every arm; each arm adds only its own
  // controller settings.
  sim::RunOptions run;
  run.horizon = horizon;
  run.seed = seed;
  run.shards = shards;
  run.topology.clusters = clusters;

  std::vector<Arm> arms;

  {
    sim::SimulationOptions so;
    static_cast<sim::RunOptions&>(so) = run;
    so.warmup = warmup;
    const sim::MecSimulation sim(pop.users, cfg.capacity, cfg.delay, so);
    const sim::SimulationResult r = sim.run_tro(xs);
    arms.push_back({"tro", r.mean_cost, r.measured_utilization,
                    r.mean_offload_fraction, r.cluster_utilization,
                    "MFNE thresholds, static"});
  }
  {
    sim::ClosedLoopOptions co;
    static_cast<sim::RunOptions&>(co) = run;
    co.update_period = update_period;
    const sim::ClosedLoopResult r =
        sim::run_closed_loop(pop.users, cfg.capacity, cfg.delay, co);
    arms.push_back({"dtu", r.run.mean_cost, r.run.measured_utilization,
                    r.run.mean_offload_fraction, r.run.cluster_utilization,
                    r.estimate_settled ? "Algorithm 1, settled"
                                       : "Algorithm 1, not settled"});
  }
  {
    sim::PriceBasedOptions po;
    static_cast<sim::RunOptions&>(po) = run;
    po.gamma_target = mfne.gamma_star;
    po.update_period = update_period;
    po.warmup = warmup;
    const sim::PriceBasedResult r =
        sim::run_price_based(pop.users, cfg.capacity, cfg.delay, po);
    std::string note = "final prices:";
    for (const double p : r.final_prices)
      note += " " + io::TextTable::fmt(p, 2);
    arms.push_back({"price", r.run.mean_cost, r.run.measured_utilization,
                    r.run.mean_offload_fraction, r.run.cluster_utilization,
                    note});
  }
  {
    sim::MinorityGameRunOptions mo;
    static_cast<sim::RunOptions&>(mo) = run;
    mo.game.seed = seed;
    mo.thresholds = xs;
    mo.update_period = update_period;
    mo.warmup = warmup;
    const sim::MinorityGameRunResult r =
        sim::run_minority_game(pop.users, cfg.capacity, cfg.delay, mo);
    arms.push_back({"minority", r.run.mean_cost, r.run.measured_utilization,
                    r.run.mean_offload_fraction, r.run.cluster_utilization,
                    "mean attendance " +
                        io::TextTable::fmt(r.mean_attendance, 2) + "/" +
                        std::to_string(clusters)});
  }

  io::TextTable table("policy families on " + cfg.name + ", " +
                      std::to_string(clusters) + " clusters (gamma* = " +
                      io::TextTable::fmt(mfne.gamma_star, 4) + ")");
  table.set_header({"policy", "mean cost", "gamma", "offload frac",
                    "per-cluster gamma", "notes"});
  for (const Arm& arm : arms)
    table.add_row({arm.name, io::TextTable::fmt(arm.mean_cost, 4),
                   io::TextTable::fmt(arm.gamma, 4),
                   io::TextTable::fmt(arm.offload_fraction, 4),
                   cluster_cell(arm.cluster_gamma), arm.note});
  std::printf("%s\n", table.to_string().c_str());

  for (const Arm& arm : arms)
    if (!std::isfinite(arm.mean_cost) || arm.mean_cost <= 0.0)
      throw std::runtime_error("policy_comparison: arm '" + arm.name +
                               "' produced a degenerate mean cost");

  if (ctx.has("csv")) {
    std::vector<double> idx, cost, gamma, frac;
    for (std::size_t i = 0; i < arms.size(); ++i) {
      idx.push_back(static_cast<double>(i));
      cost.push_back(arms[i].mean_cost);
      gamma.push_back(arms[i].gamma);
      frac.push_back(arms[i].offload_fraction);
    }
    const std::string path = ctx.output_path(ctx.get_path("csv"));
    io::write_csv(path, {"arm", "mean_cost", "gamma", "offload_fraction"},
                  {idx, cost, gamma, frac});
    std::printf("arm metrics written to %s\n", path.c_str());
  }

  ctx.emit_bench({
      {"clusters", io::Json::integer(static_cast<long long>(clusters))},
      {"gamma_star", io::Json::number(mfne.gamma_star)},
      {"tro_cost", io::Json::number(arms[0].mean_cost)},
      {"dtu_cost", io::Json::number(arms[1].mean_cost)},
      {"price_cost", io::Json::number(arms[2].mean_cost)},
      {"minority_cost", io::Json::number(arms[3].mean_cost)},
  });
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"policy_comparison",
     "TRO/DTU vs price-based & minority-game policies on a K-cluster edge",
     {{"n", mec::bench::FlagKind::kLong, "0",
       "population size (0 = 96 smoke / 400 full)"},
      {"clusters", mec::bench::FlagKind::kLong, "2", "edge cluster count"},
      {"horizon", mec::bench::FlagKind::kDouble, "0",
       "simulated seconds (0 = 30 smoke / 150 full)"},
      {"seed", mec::bench::FlagKind::kLong, "42", "population + engine seed"},
      {"shards", mec::bench::FlagKind::kLong, "1", "event-queue shards"},
      {"update-period", mec::bench::FlagKind::kDouble, "5",
       "epoch spacing for dtu/price/minority, seconds"},
      {"csv", mec::bench::FlagKind::kPath, "", "per-arm metrics CSV"}},
     run});

}  // namespace
