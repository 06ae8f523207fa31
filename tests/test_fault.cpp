// Fault-injection subsystem tests: schedule construction and validation,
// text parsing, the engine's degraded-mode semantics (crash queue loss,
// outage modes, churn identity), deterministic bit-identical replay across
// workspaces and thread counts, and the closed-loop DTU re-converging to
// the degraded equilibrium after a mid-horizon capacity drop.
#include "mec/fault/fault_schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/fault/fault_text.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::fault {
namespace {

std::vector<core::UserParams> homogeneous(std::size_t n, double a, double s,
                                          double tau = 0.5) {
  std::vector<core::UserParams> users(n);
  for (auto& u : users) {
    u.arrival_rate = a;
    u.service_rate = s;
    u.offload_latency = tau;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  return users;
}

sim::SimulationOptions base_options(std::uint64_t seed = 3) {
  sim::SimulationOptions o;
  o.warmup = 20.0;
  o.horizon = 300.0;
  o.seed = seed;
  o.fixed_gamma = 0.2;
  return o;
}

core::EdgeDelay delay() { return core::make_reciprocal_delay(1.1); }

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, SortsByTimeKeepingInsertionOrder) {
  FaultSchedule s;
  s.add_capacity_scale(10.0, 0.5);
  s.add_crash(5.0, 1);
  s.add_capacity_scale(10.0, 0.8);  // same time, inserted later
  s.add_restart(7.0, 1);
  const auto a = s.actions();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].kind, FaultKind::kDeviceCrash);
  EXPECT_EQ(a[1].kind, FaultKind::kDeviceRestart);
  EXPECT_DOUBLE_EQ(a[2].value, 0.5);  // first of the two t=10 actions
  EXPECT_DOUBLE_EQ(a[3].value, 0.8);
}

TEST(FaultSchedule, BuildersRejectInvalidArguments) {
  FaultSchedule s;
  EXPECT_THROW(s.add_capacity_scale(-1.0, 0.5), ContractViolation);
  EXPECT_THROW(s.add_capacity_scale(1.0, 0.0), ContractViolation);
  EXPECT_THROW(s.add_outage(5.0, 5.0), ContractViolation);
  EXPECT_THROW(s.add_outage(5.0, 4.0), ContractViolation);
  EXPECT_THROW(s.add_outage(0.0, 1.0, OutageMode::kPenalty, -0.1),
               ContractViolation);
  EXPECT_THROW(s.add_user_departure(1.0, 1.0), ContractViolation);
  EXPECT_THROW(s.add_user_departure(1.0, -0.1), ContractViolation);
}

TEST(FaultSchedule, CheckValidatesDeviceTargetsAndOutageNesting) {
  FaultSchedule ok;
  ok.add_outage(1.0, 2.0);
  ok.add_outage(3.0, 4.0);
  ok.add_crash(1.0, 4);
  EXPECT_NO_THROW(ok.check(5));
  EXPECT_THROW(ok.check(4), ContractViolation);  // crash target out of range

  FaultSchedule overlapping;
  overlapping.add_outage(1.0, 5.0);
  overlapping.add_outage(4.0, 6.0);
  EXPECT_THROW(overlapping.check(1), ContractViolation);
}

TEST(FaultSchedule, CapacityScaleAtWalksTheTrajectory) {
  FaultSchedule s;
  s.add_capacity_scale(10.0, 0.6);
  s.add_capacity_scale(20.0, 1.0);
  EXPECT_DOUBLE_EQ(s.capacity_scale_at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(s.capacity_scale_at(10.0), 0.6);
  EXPECT_DOUBLE_EQ(s.capacity_scale_at(15.0), 0.6);
  EXPECT_DOUBLE_EQ(s.capacity_scale_at(25.0), 1.0);
}

TEST(FaultSchedule, PoissonChurnIsDeterministicInItsSeed) {
  const auto scenario = population::theoretical_scenario(
      population::LoadRegime::kAtService, 100);
  FaultSchedule a, b, c;
  a.add_poisson_churn(scenario, 0.5, 0.3, 0.0, 200.0, 42);
  b.add_poisson_churn(scenario, 0.5, 0.3, 0.0, 200.0, 42);
  c.add_poisson_churn(scenario, 0.5, 0.3, 0.0, 200.0, 43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.actions()[i].time, b.actions()[i].time);
    EXPECT_EQ(a.actions()[i].kind, b.actions()[i].kind);
  }
  const auto ua = a.churn_users(), ub = b.churn_users();
  ASSERT_EQ(ua.size(), ub.size());
  for (std::size_t i = 0; i < ua.size(); ++i)
    EXPECT_DOUBLE_EQ(ua[i].arrival_rate, ub[i].arrival_rate);
  // A different seed materializes a different trajectory.
  EXPECT_TRUE(c.size() != a.size() ||
              c.actions()[0].time != a.actions()[0].time);
}

// ------------------------------------------------------------------ parser

TEST(FaultText, ParsesEveryVerbAndComments) {
  const auto scenario = population::theoretical_scenario(
      population::LoadRegime::kAtService, 100);
  const FaultSchedule s = parse_fault_schedule(
      "# header comment\n"
      "capacity 150 0.6\n"
      "outage 50 60 reject   # trailing comment\n"
      "outage 80 90 penalty 0.5\n"
      "\n"
      "crash 10 3\n"
      "restart 40 3\n"
      "churn 0 100 0.4 0.2 7\n",
      &scenario);
  EXPECT_NO_THROW(s.check(100));
  EXPECT_GE(s.size(), 7u);  // churn adds a stochastic number of actions
  EXPECT_DOUBLE_EQ(s.capacity_scale_at(200.0), 0.6);
}

TEST(FaultText, ReportsLineNumberedErrors) {
  const auto expect_fails = [](const std::string& text) {
    EXPECT_THROW(parse_fault_schedule(text), RuntimeError) << text;
  };
  expect_fails("capacity\n");                  // missing args
  expect_fails("capacity 10 0\n");             // invalid scale
  expect_fails("capacity ten 0.5\n");          // not a number
  expect_fails("outage 10 5 reject\n");        // end before begin
  expect_fails("outage 1 2 maybe\n");          // unknown mode
  expect_fails("warp 1 2\n");                  // unknown verb
  expect_fails("churn 0 10 0.5 0.5 7\n");      // churn without a scenario
  try {
    parse_fault_schedule("capacity 10 0.5\nbogus line\n");
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(FaultText, MissingFileThrows) {
  EXPECT_THROW(load_fault_schedule_file("/nonexistent/x.fault"),
               RuntimeError);
}

// ------------------------------------------------------------------ engine

TEST(FaultEngine, EmptyOrNullScheduleIsBitIdenticalToNone) {
  const auto users = homogeneous(32, 2.0, 2.0);
  const std::vector<double> xs(users.size(), 1.5);

  sim::SimulationOptions plain = base_options();
  const auto r_none =
      sim::MecSimulation(users, 10.0, delay(), plain).run_tro(xs);

  sim::SimulationOptions with_empty = base_options();
  with_empty.faults = std::make_shared<const FaultSchedule>();
  const auto r_empty =
      sim::MecSimulation(users, 10.0, delay(), with_empty).run_tro(xs);

  EXPECT_EQ(r_none.total_events, r_empty.total_events);
  EXPECT_DOUBLE_EQ(r_none.measured_utilization, r_empty.measured_utilization);
  EXPECT_DOUBLE_EQ(r_none.mean_cost, r_empty.mean_cost);
  EXPECT_DOUBLE_EQ(r_none.mean_queue_length, r_empty.mean_queue_length);
  EXPECT_FALSE(r_empty.faults.any());
}

TEST(FaultEngine, ReplaysBitIdenticallyAcrossWorkspacesAndRuns) {
  const auto users = homogeneous(24, 2.5, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_capacity_scale(100.0, 0.5);
  schedule->add_outage(50.0, 70.0, OutageMode::kPenalty, 0.4);
  schedule->add_crash(40.0, 3);
  schedule->add_restart(90.0, 3);
  const auto scenario = population::theoretical_scenario(
      population::LoadRegime::kAtService, 24);
  schedule->add_poisson_churn(scenario, 0.1, 0.05, 0.0, 300.0, 5);

  sim::SimulationOptions o = base_options(7);
  o.faults = schedule;
  sim::MecSimulation des(users, 10.0, delay(), o);
  std::vector<double> all_xs(des.total_devices(), 1.0);

  sim::SimWorkspace w;
  const auto r1 = des.run_tro(all_xs, w);
  const auto r2 = des.run_tro(all_xs, w);   // workspace reuse
  const auto r3 = des.run_tro(all_xs);      // fresh workspace
  for (const auto* r : {&r2, &r3}) {
    EXPECT_EQ(r1.total_events, r->total_events);
    EXPECT_DOUBLE_EQ(r1.measured_utilization, r->measured_utilization);
    EXPECT_DOUBLE_EQ(r1.mean_cost, r->mean_cost);
    EXPECT_EQ(r1.faults.tasks_lost, r->faults.tasks_lost);
    EXPECT_EQ(r1.faults.churn_joined, r->faults.churn_joined);
  }
}

TEST(FaultEngine, ReplicationAggregatesBitIdenticalForAnyThreadCount) {
  const auto users = homogeneous(20, 2.5, 2.0);
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_capacity_scale(120.0, 0.6);
  schedule->add_outage(60.0, 80.0, OutageMode::kReject);
  const auto scenario = population::theoretical_scenario(
      population::LoadRegime::kAtService, 20);
  schedule->add_poisson_churn(scenario, 0.08, 0.04, 0.0, 300.0, 9);

  sim::SimulationOptions o = base_options(13);
  o.faults = schedule;
  const std::vector<double> xs(users.size() + schedule->churn_arrivals(), 1.0);

  parallel::ReplicationOptions ro;
  ro.replications = 8;
  ro.confidence = 0.95;
  parallel::ReplicationResult by_threads[3];
  std::size_t i = 0;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ro.threads = threads;
    by_threads[i++] =
        parallel::run_replications(users, 10.0, delay(), o, xs, ro);
  }
  for (std::size_t k = 1; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(by_threads[0].mean_cost.mean(),
                     by_threads[k].mean_cost.mean());
    EXPECT_DOUBLE_EQ(by_threads[0].measured_utilization.mean(),
                     by_threads[k].measured_utilization.mean());
    EXPECT_DOUBLE_EQ(by_threads[0].mean_queue_length.ci.half_width,
                     by_threads[k].mean_queue_length.ci.half_width);
    EXPECT_EQ(by_threads[0].total_events, by_threads[k].total_events);
    EXPECT_EQ(by_threads[0].faults.tasks_lost, by_threads[k].faults.tasks_lost);
    EXPECT_EQ(by_threads[0].faults.offloads_rejected,
              by_threads[k].faults.offloads_rejected);
  }
  EXPECT_TRUE(by_threads[0].faults.any());
}

TEST(FaultEngine, CrashDropsQueueAndStopsArrivalsUntilRestart) {
  // Local-only devices (huge threshold): queues are never empty for long at
  // theta > 1, so a crash must lose tasks and silence the device.
  const auto users = homogeneous(4, 3.0, 2.0);
  const std::vector<double> xs(users.size(), 50.0);

  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_crash(100.0, 0);
  sim::SimulationOptions o = base_options();
  o.faults = schedule;
  const auto crashed = sim::MecSimulation(users, 10.0, delay(), o).run_tro(xs);
  EXPECT_EQ(crashed.faults.crashes, 1u);
  EXPECT_EQ(crashed.faults.restarts, 0u);
  EXPECT_GT(crashed.faults.tasks_lost, 0u);
  // Device 0 stopped at t=100 of [20, 320]; device 1 ran the whole window.
  EXPECT_LT(crashed.devices[0].arrivals, crashed.devices[1].arrivals / 2);

  auto restart_schedule = std::make_shared<FaultSchedule>();
  restart_schedule->add_crash(100.0, 0);
  restart_schedule->add_restart(150.0, 0);
  sim::SimulationOptions o2 = base_options();
  o2.faults = restart_schedule;
  const auto restarted =
      sim::MecSimulation(users, 10.0, delay(), o2).run_tro(xs);
  EXPECT_EQ(restarted.faults.restarts, 1u);
  EXPECT_GT(restarted.devices[0].arrivals, crashed.devices[0].arrivals);
}

TEST(FaultEngine, OutageRejectForcesLocalExecution) {
  // Threshold 0 offloads everything; a full-window reject outage must
  // reroute every arrival to the local queue.
  const auto users = homogeneous(8, 2.0, 2.0);
  const std::vector<double> xs(users.size(), 0.0);
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_outage(0.0, 1000.0, OutageMode::kReject);
  sim::SimulationOptions o = base_options();
  o.faults = schedule;
  const auto r = sim::MecSimulation(users, 10.0, delay(), o).run_tro(xs);
  EXPECT_DOUBLE_EQ(r.mean_offload_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.measured_utilization, 0.0);
  EXPECT_GT(r.faults.offloads_rejected, 0u);
  EXPECT_GT(r.mean_queue_length, 0.0);
}

TEST(FaultEngine, OutagePenaltyAddsExactLatency) {
  // Deterministic latency + fixed gamma: every offload delay is exactly
  // tau + g(gamma) + penalty during the outage.
  const auto users = homogeneous(4, 2.0, 2.0, 0.25);
  const std::vector<double> xs(users.size(), 0.0);
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_outage(0.0, 1000.0, OutageMode::kPenalty, 0.75);
  sim::SimulationOptions o = base_options();
  o.latency.kind = sim::SamplerSpec::Kind::kDeterministic;
  o.faults = schedule;
  const auto r = sim::MecSimulation(users, 10.0, delay(), o).run_tro(xs);
  const double expected = 0.25 + delay()(0.2) + 0.75;
  for (const auto& d : r.devices)
    EXPECT_NEAR(d.mean_offload_delay, expected, 1e-12);
  EXPECT_GT(r.faults.offloads_penalized, 0u);
}

TEST(FaultEngine, ChurnJoinsAndDeparturesAdjustThePopulation) {
  const auto users = homogeneous(10, 2.0, 2.0);
  auto schedule = std::make_shared<FaultSchedule>();
  core::UserParams joiner = users[0];
  joiner.arrival_rate = 4.0;
  schedule->add_user_arrival(50.0, joiner);
  schedule->add_user_arrival(60.0, joiner);
  schedule->add_user_departure(100.0, 0.0);
  sim::SimulationOptions o = base_options();
  o.faults = schedule;
  sim::MecSimulation des(users, 10.0, delay(), o);
  EXPECT_EQ(des.total_devices(), 12u);
  EXPECT_EQ(des.initial_devices(), 10u);

  // Thresholds must cover the joiners.
  const std::vector<double> too_short(10, 1.0);
  EXPECT_THROW(des.run_tro(too_short), ContractViolation);

  const std::vector<double> xs(12, 1.0);
  const auto r = des.run_tro(xs);
  EXPECT_EQ(r.faults.churn_joined, 2u);
  EXPECT_EQ(r.faults.churn_departed, 1u);
  EXPECT_EQ(r.faults.participating_devices, 12u);
  ASSERT_EQ(r.devices.size(), 12u);
  EXPECT_GT(r.devices[10].arrivals, 0u);  // joiner generated traffic
  EXPECT_GT(r.devices[11].arrivals, 0u);
}

TEST(FaultEngine, NeverJoinedChurnSlotsDoNotDiluteMeans) {
  const auto users = homogeneous(6, 2.0, 2.0);
  auto schedule = std::make_shared<FaultSchedule>();
  core::UserParams joiner = users[0];
  schedule->add_user_arrival(1e6, joiner);  // far beyond the horizon
  sim::SimulationOptions o = base_options();
  o.faults = schedule;
  sim::MecSimulation des(users, 10.0, delay(), o);
  const std::vector<double> xs(7, 1.0);
  const auto r = des.run_tro(xs);
  EXPECT_EQ(r.faults.churn_joined, 0u);
  EXPECT_EQ(r.faults.participating_devices, 6u);
  EXPECT_EQ(r.devices[6].arrivals, 0u);

  // Same population without the phantom slot: identical means.
  sim::SimulationOptions plain = base_options();
  const auto r_plain =
      sim::MecSimulation(users, 10.0, delay(), plain)
          .run_tro(std::vector<double>(6, 1.0));
  EXPECT_DOUBLE_EQ(r.mean_cost, r_plain.mean_cost);
  EXPECT_DOUBLE_EQ(r.mean_queue_length, r_plain.mean_queue_length);
}

TEST(FaultEngine, CapacityDropRaisesUtilizationEstimateAndTimeline) {
  const auto users = homogeneous(16, 3.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_capacity_scale(160.0, 0.5);
  sim::SimulationOptions o = base_options();
  o.fixed_gamma.reset();  // live EWMA: the estimate must react to the drop
  o.initial_gamma = 0.2;
  o.sample_interval = 5.0;
  o.faults = schedule;
  const auto r = sim::MecSimulation(users, 10.0, delay(), o).run_tro(xs);

  EXPECT_DOUBLE_EQ(r.faults.min_capacity_scale, 0.5);
  // Window [20, 320]: scale 1.0 for 140 s then 0.5 for 160 s.
  EXPECT_NEAR(r.faults.mean_capacity_scale, (140.0 + 80.0) / 300.0, 1e-9);
  EXPECT_NEAR(r.faults.degraded_time, 160.0, 1e-9);

  double before = 0.0, after = 0.0;
  for (const auto& p : r.timeline) {
    if (p.time < 160.0) before = p.utilization_estimate;
    if (p.time == 200.0) after = p.utilization_estimate;
    // The sample at exactly t=160 is drawn before the equal-time fault
    // applies, so it still reports the nominal scale.
    EXPECT_DOUBLE_EQ(p.capacity_scale, p.time <= 160.0 ? 1.0 : 0.5);
    EXPECT_EQ(p.active_devices, 16u);
  }
  // Halving the capacity roughly doubles the utilization estimate.
  EXPECT_GT(after, 1.5 * before);
}

// ------------------------------------------------- closed-loop reconvergence

TEST(FaultClosedLoop, DtuReconvergesToDegradedEquilibriumAfterBrownout) {
  const auto users = homogeneous(200, 2.5, 2.0, 0.4);
  const double capacity = 6.0;
  const auto g = delay();

  const double star_nominal =
      core::solve_mfne(users, g, capacity).gamma_star;
  const double star_degraded =
      core::solve_mfne(users, g, 0.6 * capacity).gamma_star;
  ASSERT_GT(std::abs(star_degraded - star_nominal), 0.05)
      << "brown-out too mild to distinguish the equilibria";

  auto schedule = std::make_shared<FaultSchedule>();
  schedule->add_capacity_scale(400.0, 0.6);

  sim::ClosedLoopOptions opt;
  opt.update_period = 5.0;
  opt.horizon = 900.0;
  opt.seed = 11;
  opt.faults = schedule;
  opt.resume_on_drift = true;
  const auto adaptive = run_closed_loop(users, capacity, g, opt);

  // The loop settled before the shock, re-opened, and tracked the degraded
  // equilibrium (regret-style check against the oracle on 0.6c).
  EXPECT_GE(adaptive.drift_resumes, 1u);
  EXPECT_NEAR(adaptive.final_gamma_hat, star_degraded, 0.06);

  // Without drift resumption Algorithm 1 stays frozen at the nominal
  // estimate and ends strictly farther from the degraded equilibrium.
  sim::ClosedLoopOptions frozen = opt;
  frozen.resume_on_drift = false;
  const auto stuck = run_closed_loop(users, capacity, g, frozen);
  EXPECT_EQ(stuck.drift_resumes, 0u);
  EXPECT_GT(std::abs(stuck.final_gamma_hat - star_degraded),
            std::abs(adaptive.final_gamma_hat - star_degraded));
}

}  // namespace
}  // namespace mec::fault
