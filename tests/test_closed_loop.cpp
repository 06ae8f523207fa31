// Closed-loop operation: Algorithm 1 driven by live EWMA measurements
// inside one continuous simulation.
#include "mec/sim/closed_loop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {
namespace {

population::Population sampled(std::size_t n, std::uint64_t seed = 91) {
  return population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, n),
      seed);
}

TEST(ClosedLoop, ConvergesToTheMfneUnderMeasurementNoise) {
  const auto pop = sampled(500);
  const auto& cfg = pop.config;
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;

  ClosedLoopOptions opt;
  opt.horizon = 600.0;
  opt.update_period = 5.0;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_NEAR(r.final_gamma_hat, star, 0.05);
  // The realized offload rate over the run's tail should be near gamma*;
  // the run-wide measurement includes the transient, so allow more slack.
  EXPECT_NEAR(r.run.measured_utilization, star, 0.1);
}

TEST(ClosedLoop, EpochTraceFollowsAlgorithmOneStructure) {
  const auto pop = sampled(300);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 300.0;
  opt.update_period = 4.0;
  opt.eta0 = 0.2;
  // Telemetry settings reach the engine: a streamed run with counter frames
  // and the in-memory timeline both turned off.
  opt.sample_interval = 4.0;
  opt.stream_log =
      (std::filesystem::temp_directory_path() / "mec_closed_loop_trace.meclog")
          .string();
  opt.stream_counters = false;
  opt.record_timeline = false;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.run.timeline.empty());
  const obs::LogScan scan = obs::scan_log(opt.stream_log);
  EXPECT_TRUE(scan.complete()) << scan.error;
  EXPECT_FALSE(scan.windows.empty());
  EXPECT_TRUE(scan.counters.empty());
  std::filesystem::remove(opt.stream_log);
  ASSERT_GE(r.epochs.size(), 10u);
  // Epochs land on the broadcast grid.
  EXPECT_DOUBLE_EQ(r.epochs[0].time, 4.0);
  EXPECT_DOUBLE_EQ(r.epochs[1].time, 8.0);
  // Step sizes never grow, and estimates move by at most the current step.
  double prev_eta = opt.eta0;
  double prev_hat = 0.0;
  for (const ClosedLoopEpoch& e : r.epochs) {
    EXPECT_LE(e.eta, prev_eta + 1e-15);
    EXPECT_LE(std::abs(e.gamma_hat - prev_hat), prev_eta + 1e-12);
    EXPECT_GE(e.gamma_measured, 0.0);
    EXPECT_LE(e.gamma_measured, 1.0);
    prev_eta = e.eta;
    prev_hat = e.gamma_hat;
  }
}

TEST(ClosedLoop, AsynchronousGateStillSettles) {
  const auto pop = sampled(400, 92);
  const auto& cfg = pop.config;
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;
  ClosedLoopOptions opt;
  opt.horizon = 600.0;
  opt.update_gate = core::make_bernoulli_gate(0.8, 3);
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_NEAR(r.final_gamma_hat, star, 0.06);
}

TEST(ClosedLoop, WorksWithEmpiricalServiceTimes) {
  // The practical story: measured (non-exponential) service, live loop.
  auto pop = population::sample_population(
      population::practical_scenario(population::LoadRegime::kBelowService,
                                     300),
      93);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 400.0;
  opt.service = {.kind = SamplerSpec::Kind::kEmpirical,
                 .data = random::synthetic_yolo_processing_times().samples()};
  opt.latency = {.kind = SamplerSpec::Kind::kEmpirical,
                 .data = random::synthetic_wifi_offload_latencies().samples()};
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_GT(r.final_gamma_hat, 0.2);
  EXPECT_LT(r.final_gamma_hat, 0.8);
}

TEST(ClosedLoop, ThresholdsFreezeOnceSettled) {
  const auto pop = sampled(200, 94);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 800.0;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  ASSERT_TRUE(r.estimate_settled);
  // Once the estimate settles, devices stop retuning: the tail of the epoch
  // trace must show a constant mean threshold (the horizon is long enough
  // that settling happens well before the end).
  ASSERT_GE(r.epochs.size(), 10u);
  const double settled_mean = r.epochs.back().mean_threshold;
  for (std::size_t i = r.epochs.size() - 5; i < r.epochs.size(); ++i)
    EXPECT_DOUBLE_EQ(r.epochs[i].mean_threshold, settled_mean);
}

TEST(ClosedLoop, RejectsBadOptions) {
  const auto pop = sampled(10, 95);
  ClosedLoopOptions opt;
  opt.update_period = 0.0;
  EXPECT_THROW(run_closed_loop(pop.users, 10.0, pop.config.delay, opt),
               ContractViolation);
  opt = {};
  opt.horizon = 1.0;  // below the update period
  EXPECT_THROW(run_closed_loop(pop.users, 10.0, pop.config.delay, opt),
               ContractViolation);
}

TEST(EpochFlush, TrailingEpochsFireThroughTheEndOfTheHorizon) {
  // Regression for the dropped end-of-horizon epochs: callbacks were only
  // fired from inside the event loop, so every broadcast epoch between the
  // last event <= t_end and t_end itself was silently skipped.  With sparse
  // arrivals (mean inter-arrival 20 s vs a 10 s horizon) most epochs — and
  // always the one at exactly t_end, which no continuous arrival time can
  // trigger — fall in that gap.
  std::vector<core::UserParams> users(2);
  for (auto& u : users) {
    u.arrival_rate = 0.05;
    u.service_rate = 1.0;
    u.offload_latency = 0.1;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 10.0;
  o.seed = 123;
  o.fixed_gamma = 0.1;
  o.epoch_period = 2.5;
  std::vector<double> fired;
  o.on_epoch = [&](double now, double gamma) {
    EXPECT_GE(gamma, 0.0);
    fired.push_back(now);
  };
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  sim.run_tro(std::vector<double>(users.size(), 1.0));
  // floor(horizon / epoch_period) epochs: 2.5, 5, 7.5, and 10 (= t_end).
  ASSERT_EQ(fired.size(), 4u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_DOUBLE_EQ(fired[i], 2.5 * static_cast<double>(i + 1));
}

TEST(EpochFlush, EpochCountMatchesTheGridForAnActivePopulation) {
  // Same property under a dense event stream: epochs land exactly on the
  // broadcast grid over warm-up plus horizon, never more, never fewer.
  const auto pop = sampled(50, 96);
  SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 21.0;
  o.seed = 321;
  o.fixed_gamma = 0.2;
  o.epoch_period = 4.0;
  std::vector<double> fired;
  o.on_epoch = [&](double now, double) { fired.push_back(now); };
  MecSimulation sim(pop.users, pop.config.capacity, pop.config.delay, o);
  sim.run_tro(std::vector<double>(pop.users.size(), 2.0));
  // t_end = 24: epochs at 4, 8, 12, 16, 20, 24.
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_DOUBLE_EQ(fired.back(), 24.0);
}

TEST(MutableTroPolicyTest, RetuningChangesDecisions) {
  random::Xoshiro256 rng(7);
  MutableTroPolicy policy(0.0);
  EXPECT_TRUE(policy.offload(0, rng));
  policy.set_threshold(3.0);
  EXPECT_FALSE(policy.offload(2, rng));
  EXPECT_TRUE(policy.offload(3, rng));
  EXPECT_DOUBLE_EQ(policy.threshold(), 3.0);
  EXPECT_THROW(policy.set_threshold(-1.0), ContractViolation);
  EXPECT_NE(policy.describe().find("3"), std::string::npos);
}

}  // namespace
}  // namespace mec::sim
