// Theorem 1: existence and uniqueness of the Mean-Field Nash Equilibrium.
#include "mec/core/mfne.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/cost_model.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::core {
namespace {

std::vector<UserParams> sampled(population::LoadRegime regime, std::size_t n,
                                std::uint64_t seed) {
  return population::sample_population(
             population::theoretical_scenario(regime, n), seed)
      .users;
}

TEST(Mfne, FixedPointPropertyHolds) {
  const auto users = sampled(population::LoadRegime::kAtService, 2000, 5);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  // gamma* = V(gamma*) up to the finite-population step granularity plus the
  // bisection tolerance.
  EXPECT_NEAR(r.best_response_value, r.gamma_star, 2e-3);
  EXPECT_GT(r.gamma_star, 0.0);
  EXPECT_LT(r.gamma_star, 1.0);
}

TEST(Mfne, EquilibriumLiesInThePaperBandForAllThreeRegimes) {
  // Table I reports 0.13 / 0.21 / 0.28; a 2000-user draw should land within
  // a few hundredths.
  const EdgeDelay delay = make_reciprocal_delay();
  const double lo = solve_mfne(sampled(population::LoadRegime::kBelowService,
                                       2000, 6),
                               delay, 10.0)
                        .gamma_star;
  const double mid = solve_mfne(sampled(population::LoadRegime::kAtService,
                                        2000, 6),
                                delay, 10.0)
                         .gamma_star;
  const double hi = solve_mfne(sampled(population::LoadRegime::kAboveService,
                                       2000, 6),
                               delay, 10.0)
                        .gamma_star;
  EXPECT_NEAR(lo, 0.13, 0.03);
  EXPECT_NEAR(mid, 0.21, 0.03);
  EXPECT_NEAR(hi, 0.28, 0.03);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(Mfne, NoOtherCrossingExists) {
  // Uniqueness: V(gamma) - gamma changes sign exactly once on a scan.
  const auto users = sampled(population::LoadRegime::kBelowService, 1000, 7);
  const EdgeDelay delay = make_reciprocal_delay();
  int sign_changes = 0;
  double prev = best_response(users, delay, 10.0, 0.0).utilization - 0.0;
  for (double gamma = 0.01; gamma <= 1.0; gamma += 0.01) {
    const double h =
        best_response(users, delay, 10.0, gamma).utilization - gamma;
    if ((h > 0) != (prev > 0)) ++sign_changes;
    prev = h;
  }
  EXPECT_EQ(sign_changes, 1);
}

TEST(Mfne, EquilibriumThresholdsReproduceTheEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1500, 8);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  std::vector<double> xs(r.thresholds.begin(), r.thresholds.end());
  EXPECT_NEAR(utilization_of_thresholds(users, xs, 10.0), r.gamma_star, 2e-3);
}

TEST(Mfne, NoUserBenefitsFromUnilateralDeviation) {
  // The Nash property, checked directly on a sample of users: at gamma*,
  // deviating from the Lemma-1 threshold cannot lower a user's own cost.
  const auto users = sampled(population::LoadRegime::kAboveService, 400, 9);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  const double g = delay(r.gamma_star);
  for (std::size_t n = 0; n < users.size(); n += 37) {
    const double own = tro_cost(users[n],
                                static_cast<double>(r.thresholds[n]), g);
    for (const double dev : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      EXPECT_LE(own, tro_cost(users[n], dev, g) + 1e-9)
          << "user " << n << " deviation " << dev;
    }
  }
}

TEST(Mfne, HigherCapacityLowersEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1000, 10);
  const EdgeDelay delay = make_reciprocal_delay();
  const double g10 = solve_mfne(users, delay, 10.0).gamma_star;
  const double g20 = solve_mfne(users, delay, 20.0).gamma_star;
  EXPECT_GT(g10, g20);
}

TEST(Mfne, SteeperEdgeDelayLowersEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1000, 11);
  const double flat =
      solve_mfne(users, make_linear_delay(0.5, 0.1), 10.0).gamma_star;
  const double steep =
      solve_mfne(users, make_linear_delay(0.5, 20.0), 10.0).gamma_star;
  EXPECT_GE(flat, steep);
}

TEST(Mfne, DegeneratePopulationThatNeverOffloadsYieldsZero) {
  // Offloading is strictly dominated: enormous latency, tiny arrival rate.
  std::vector<UserParams> users(50);
  for (auto& u : users) {
    u.arrival_rate = 0.05;
    u.service_rate = 5.0;  // theta = 0.01
    u.offload_latency = 1000.0;
    u.energy_local = 0.0;
    u.energy_offload = 1.0;
  }
  const MfneResult r =
      solve_mfne(users, make_constant_delay(0.0), 10.0);
  // f(1|theta) = 0.01 > beta is false here (beta = 0.05*1001 = 50), so the
  // threshold is large but alpha is *tiny*; gamma* ~ 0.
  EXPECT_LT(r.gamma_star, 1e-3);
}

TEST(Mfne, ThrowsWhenCapacityCannotAbsorbTheLoad) {
  std::vector<UserParams> users(10);
  for (auto& u : users) {
    u.arrival_rate = 5.0;
    u.service_rate = 1.0;
    u.offload_latency = 0.0;
    u.energy_local = 3.0;
    u.energy_offload = 0.0;
  }
  // V(0) = mean(a)/c = 5/2 > 1.
  EXPECT_THROW(solve_mfne(users, make_constant_delay(0.0), 2.0),
               ContractViolation);
}

TEST(Mfne, RespectsToleranceOption) {
  const auto users = sampled(population::LoadRegime::kBelowService, 500, 12);
  const EdgeDelay delay = make_reciprocal_delay();
  MfneOptions opt;
  opt.tolerance = 1e-4;
  const MfneResult coarse = solve_mfne(users, delay, 10.0, opt);
  opt.tolerance = 1e-12;
  const MfneResult fine = solve_mfne(users, delay, 10.0, opt);
  EXPECT_NEAR(coarse.gamma_star, fine.gamma_star, 2e-4);
  EXPECT_LT(coarse.iterations, fine.iterations);
}

TEST(Mfne, ReportsConvergenceAtNormalTolerances) {
  const auto users = sampled(population::LoadRegime::kAtService, 500, 13);
  const MfneResult r = solve_mfne(users, make_reciprocal_delay(), 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, MfneOptions{}.max_iterations);
}

TEST(Mfne, FlagsNonConvergenceWhenTheIterationGuardCutsOff) {
  // A tolerance far below one ulp of gamma* can never be met: the bracket
  // stops shrinking and the max_iterations guard must end the bisection
  // with converged == false rather than spin forever.
  const auto users = sampled(population::LoadRegime::kAtService, 500, 13);
  MfneOptions opt;
  opt.tolerance = 1e-30;
  opt.max_iterations = 40;
  const MfneResult r = solve_mfne(users, make_reciprocal_delay(), 10.0, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, opt.max_iterations);
  // The midpoint of the last bracket is still a usable estimate.
  EXPECT_GT(r.gamma_star, 0.0);
  EXPECT_LT(r.gamma_star, 1.0);
}

/// Theorem-1 bisection written out against the serial best_response
/// overload only: the reference the (possibly threaded) solver must match.
MfneResult serial_reference_mfne(std::span<const UserParams> users,
                                 const EdgeDelay& delay, double capacity) {
  const MfneOptions opt;
  double lo = 0.0, hi = 1.0;
  int iters = 0;
  while (hi - lo > opt.tolerance && iters < opt.max_iterations) {
    const double mid = 0.5 * (lo + hi);
    if (best_response(users, delay, capacity, mid).utilization > mid)
      lo = mid;
    else
      hi = mid;
    ++iters;
  }
  MfneResult r;
  r.gamma_star = 0.5 * (lo + hi);
  BestResponse br = best_response(users, delay, capacity, r.gamma_star);
  r.best_response_value = br.utilization;
  r.thresholds = std::move(br.thresholds);
  r.iterations = iters;
  return r;
}

// 70 000 users is above solve_mfne's 2^16-user parallel floor, so these
// exercise the threaded bisection.
constexpr std::size_t kAboveParallelFloor = 70000;

TEST(Mfne, ParallelBisectionIsBitIdenticalToTheSerialReference) {
  const auto users =
      sampled(population::LoadRegime::kAtService, kAboveParallelFloor, 21);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult parallel = solve_mfne(users, delay, 10.0);
  const MfneResult serial = serial_reference_mfne(users, delay, 10.0);
  EXPECT_EQ(parallel.gamma_star, serial.gamma_star);
  EXPECT_EQ(parallel.best_response_value, serial.best_response_value);
  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_EQ(parallel.thresholds, serial.thresholds);
  EXPECT_TRUE(parallel.converged);
}

/// The plain Theorem-1 bisection with a full best-response sweep at every
/// step, written against the serial best_response overload only: the
/// reference the settled-user solver must reproduce bit for bit, including
/// the degenerate V(0) = 0 exit and the iteration guard.
MfneResult full_sweep_mfne(std::span<const UserParams> users,
                           const EdgeDelay& delay, double capacity,
                           const MfneOptions& opt) {
  MfneResult r;
  if (best_response(users, delay, capacity, 0.0).utilization == 0.0) {
    r.thresholds = best_response(users, delay, capacity, 0.0).thresholds;
    r.converged = true;
    return r;
  }
  double lo = 0.0, hi = 1.0;
  int iters = 0;
  while (hi - lo > opt.tolerance && iters < opt.max_iterations) {
    const double mid = 0.5 * (lo + hi);
    if (best_response(users, delay, capacity, mid).utilization > mid)
      lo = mid;
    else
      hi = mid;
    ++iters;
  }
  r.gamma_star = 0.5 * (lo + hi);
  BestResponse br = best_response(users, delay, capacity, r.gamma_star);
  r.best_response_value = br.utilization;
  r.thresholds = std::move(br.thresholds);
  r.iterations = iters;
  r.converged = hi - lo <= opt.tolerance;
  return r;
}

void expect_bit_identical(const MfneResult& got, const MfneResult& want) {
  EXPECT_EQ(got.gamma_star, want.gamma_star);
  EXPECT_EQ(got.best_response_value, want.best_response_value);
  EXPECT_EQ(got.thresholds, want.thresholds);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

/// Every EdgeDelay factory, with parameters that keep V(0) < 1 at c = 10.
std::vector<EdgeDelay> every_delay_shape() {
  return {make_reciprocal_delay(),        make_reciprocal_delay(1.01),
          make_linear_delay(0.2, 3.0),    make_power_delay(8.0, 0.5),
          make_power_delay(4.0, 3.0),     make_constant_delay(1.5),
          make_erlang_c_delay(4, 2.0),    make_erlang_c_delay(1, 5.0, 0.9)};
}

TEST(Mfne, BestThresholdIsNonDecreasingInGammaInFloatingPoint) {
  // The settled-user bisection relies on it: a user whose threshold agrees
  // at both ends of the bracket keeps it inside.  Checked on a coarse grid
  // over [0, 1] and on runs of consecutive doubles, where rounding in g
  // would show.
  std::vector<UserParams> users;
  for (const auto regime :
       {population::LoadRegime::kBelowService,
        population::LoadRegime::kAtService,
        population::LoadRegime::kAboveService}) {
    const auto drawn = sampled(regime, 40, 31);
    users.insert(users.end(), drawn.begin(), drawn.end());
  }
  std::vector<double> gammas;
  for (int i = 0; i <= 512; ++i) gammas.push_back(i / 512.0);
  for (const double start : {0.0, 0.13, 0.21, 0.2857, 0.5, 0.9}) {
    double gamma = start;
    for (int k = 0; k < 300; ++k, gamma = std::nextafter(gamma, 1.0))
      gammas.push_back(gamma);
  }
  std::sort(gammas.begin(), gammas.end());
  for (const EdgeDelay& delay : every_delay_shape()) {
    for (const UserParams& u : users) {
      std::int64_t prev = best_threshold(u, delay(gammas.front()));
      for (const double gamma : gammas) {
        const std::int64_t x = best_threshold(u, delay(gamma));
        ASSERT_GE(x, prev) << delay.description() << " gamma=" << gamma;
        prev = x;
      }
    }
  }
}

TEST(Mfne, SettledUserBisectionIsBitIdenticalToAFullSweepBisection) {
  MfneOptions capped;  // the iteration guard ends this one
  capped.tolerance = 1e-30;
  capped.max_iterations = 40;
  MfneOptions coarse;
  coarse.tolerance = 1e-3;
  MfneOptions none;  // no step at all: gamma* is the first midpoint
  none.max_iterations = 0;
  for (const MfneOptions& opt : {MfneOptions{}, capped, coarse, none}) {
    for (const EdgeDelay& delay : every_delay_shape()) {
      for (const auto regime : {population::LoadRegime::kBelowService,
                                population::LoadRegime::kAboveService}) {
        const auto users = sampled(regime, 600, 41);
        SCOPED_TRACE(delay.description());
        expect_bit_identical(solve_mfne(users, delay, 10.0, opt),
                             full_sweep_mfne(users, delay, 10.0, opt));
      }
    }
  }
}

TEST(Mfne, PooledSettledUserBisectionIsBitIdenticalToAFullSweepBisection) {
  const auto users =
      sampled(population::LoadRegime::kAboveService, kAboveParallelFloor, 23);
  MfneOptions capped;
  capped.tolerance = 1e-30;
  capped.max_iterations = 40;
  for (const MfneOptions& opt : {MfneOptions{}, capped}) {
    for (const EdgeDelay& delay :
         {make_linear_delay(0.2, 3.0), make_erlang_c_delay(4, 2.0)}) {
      SCOPED_TRACE(delay.description());
      expect_bit_identical(solve_mfne(users, delay, 10.0, opt),
                           full_sweep_mfne(users, delay, 10.0, opt));
    }
  }
}

TEST(Mfne, NonMonotoneDelayReopensSettledUsersAndStaysBitIdentical) {
  // EdgeDelay only spot-checks monotonicity at gamma = i/10; this g passes
  // that check but dips between the grid points, so some midpoints land
  // outside [g(lo), g(hi)] and every user must be re-run there.
  const EdgeDelay wavy(
      [](double gamma) {
        const double s = std::sin(20.0 * 3.141592653589793 * gamma);
        return 1.0 + 2.0 * gamma + 0.3 * s * s;
      },
      "wavy");
  const auto users = sampled(population::LoadRegime::kAtService, 600, 43);
  expect_bit_identical(solve_mfne(users, wavy, 10.0),
                       full_sweep_mfne(users, wavy, 10.0, {}));
}

TEST(Mfne, ZeroUtilizationAtZeroDelayMatchesTheFullSweepOnBothPaths) {
  // Offloading is so dominated that every rate underflows (theta = 0.01,
  // threshold ~200): V(0) == 0 and the solver returns gamma* = 0 without a
  // single step.
  for (const std::size_t n : {std::size_t{50}, kAboveParallelFloor}) {
    std::vector<UserParams> users(n);
    for (auto& u : users) {
      u.arrival_rate = 0.05;
      u.service_rate = 5.0;
      u.offload_latency = 40.0;
      u.energy_local = 0.0;
      u.energy_offload = 1.0;
    }
    const EdgeDelay delay = make_constant_delay(0.0);
    const MfneResult r = solve_mfne(users, delay, 10.0);
    EXPECT_EQ(r.gamma_star, 0.0);
    EXPECT_EQ(r.iterations, 0);
    expect_bit_identical(r, full_sweep_mfne(users, delay, 10.0, {}));
  }
}

TEST(Mfne, ProcessTransportRightAfterAParallelSolveMatchesInProcess) {
  // The solver's pool must be joined before it returns: a fork right after
  // it (transport=process) must still reproduce the in-process run.
  const auto users =
      sampled(population::LoadRegime::kAtService, kAboveParallelFloor, 22);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult mfne = solve_mfne(users, delay, 10.0);
  const std::vector<double> thresholds(mfne.thresholds.begin(),
                                       mfne.thresholds.end());
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 0.5;
  o.seed = 5;
  o.shards = 2;
  o.fixed_gamma = mfne.gamma_star;
  const sim::SimulationResult inproc =
      sim::MecSimulation(users, 10.0, delay, o).run_tro(thresholds);
  o.transport = sim::TransportKind::kProcess;
  o.workers = 2;
  const sim::SimulationResult forked =
      sim::MecSimulation(users, 10.0, delay, o).run_tro(thresholds);
  EXPECT_GT(inproc.total_events, 0u);
  EXPECT_EQ(forked.total_events, inproc.total_events);
  EXPECT_EQ(forked.measured_utilization, inproc.measured_utilization);
  EXPECT_EQ(forked.mean_cost, inproc.mean_cost);
  EXPECT_EQ(forked.mean_queue_length, inproc.mean_queue_length);
}

}  // namespace
}  // namespace mec::core
