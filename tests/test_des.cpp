// The discrete-event simulator is validated against exact queueing theory:
// M/M/1 (local-only), the TRO closed forms (Eq. 7-8), and the analytic
// utilization map used by the mean-field layer.
#include "mec/sim/mec_simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/queueing/mm1.hpp"
#include "mec/queueing/threshold_queue.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/des.hpp"

namespace mec::sim {
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

SimulationOptions long_run(std::uint64_t seed = 3) {
  SimulationOptions o;
  o.warmup = 50.0;
  o.horizon = 2000.0;
  o.seed = seed;
  o.fixed_gamma = 0.2;
  return o;
}

TEST(EventQueueTest, OrdersByTimeThenInsertion) {
  EventQueue q;
  q.push(2.0, EventKind::kArrival, 1);
  q.push(1.0, EventKind::kLocalDeparture, 2);
  q.push(1.0, EventKind::kArrival, 3);  // same time, inserted later
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().device, 2u);  // first inserted at t=1
  EXPECT_EQ(q.pop().device, 3u);
  EXPECT_EQ(q.pop().device, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RejectsNonFiniteTimes) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, EventKind::kArrival, 0), ContractViolation);
  EXPECT_THROW(q.push(std::nan(""), EventKind::kArrival, 0),
               ContractViolation);
}

TEST(Policies, TroDecidesByQueueLength) {
  random::Xoshiro256 rng(1);
  const auto policy = make_tro_policy(2.0);  // integer threshold
  EXPECT_FALSE(policy->offload(0, rng));
  EXPECT_FALSE(policy->offload(1, rng));
  EXPECT_TRUE(policy->offload(2, rng));  // frac = 0 => always offload at 2
  EXPECT_TRUE(policy->offload(5, rng));
}

TEST(Policies, TroRandomizesAtTheBoundaryState) {
  random::Xoshiro256 rng(2);
  const auto policy = make_tro_policy(2.25);  // local w.p. 0.25 at q=2
  int offloads = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) offloads += policy->offload(2, rng);
  EXPECT_NEAR(static_cast<double>(offloads) / trials, 0.75, 0.01);
  EXPECT_FALSE(policy->offload(1, rng));
  EXPECT_TRUE(policy->offload(3, rng));
}

TEST(Policies, DpoIgnoresQueueLength) {
  random::Xoshiro256 rng(3);
  const auto policy = make_dpo_policy(0.4);
  int offloads = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    offloads += policy->offload(static_cast<std::uint64_t>(i % 7), rng);
  EXPECT_NEAR(static_cast<double>(offloads) / trials, 0.4, 0.01);
}

TEST(Policies, DegenerateAndDescriptions) {
  random::Xoshiro256 rng(4);
  EXPECT_FALSE(make_local_only_policy()->offload(100, rng));
  EXPECT_TRUE(make_offload_all_policy()->offload(0, rng));
  EXPECT_NE(make_tro_policy(2.5)->describe().find("2.5"), std::string::npos);
  EXPECT_THROW(make_tro_policy(-1.0), ContractViolation);
  EXPECT_THROW(make_dpo_policy(1.5), ContractViolation);
}

TEST(Des, LocalOnlyReproducesMm1MeanQueue) {
  const auto users = homogeneous(200, 1.0, 2.0);
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), long_run());
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(make_local_only_policy());
  const SimulationResult r = sim.run(policies);
  const auto mm1 = queueing::mm1_metrics(1.0, 2.0);
  EXPECT_NEAR(r.mean_queue_length, mm1.mean_in_system, 0.03);
  EXPECT_DOUBLE_EQ(r.measured_utilization, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_offload_fraction, 0.0);
  // Mean sojourn ~ W = 1/(mu - lambda) = 1.
  double sojourn = r.device_mean(
      [](const DeviceStats& d) { return d.mean_local_sojourn; });
  EXPECT_NEAR(sojourn, mm1.mean_sojourn, 0.05);
}

TEST(Des, OffloadAllMatchesOfferedLoadOverCapacity) {
  const auto users = homogeneous(200, 2.0, 1.0);
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), long_run());
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(make_offload_all_policy());
  const SimulationResult r = sim.run(policies);
  EXPECT_NEAR(r.measured_utilization, 2.0 / 10.0, 0.01);
  EXPECT_DOUBLE_EQ(r.mean_offload_fraction, 1.0);
  EXPECT_NEAR(r.mean_queue_length, 0.0, 1e-12);
}

class DesTroValidationTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(DesTroValidationTest, MatchesClosedFormQueueAndAlpha) {
  const auto [a, s, x] = GetParam();
  const auto users = homogeneous(300, a, s);
  MecSimulation sim(users, 100.0, core::make_reciprocal_delay(), long_run(7));
  const std::vector<double> xs(users.size(), x);
  const SimulationResult r = sim.run_tro(xs);
  const auto exact = queueing::tro_metrics(a / s, x);
  EXPECT_NEAR(r.mean_queue_length, exact.mean_queue_length,
              0.02 + 0.02 * exact.mean_queue_length)
      << "a=" << a << " s=" << s << " x=" << x;
  EXPECT_NEAR(r.mean_offload_fraction, exact.offload_probability, 0.015)
      << "a=" << a << " s=" << s << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DesTroValidationTest,
    ::testing::Values(std::make_tuple(1.0, 2.0, 1.0),
                      std::make_tuple(1.0, 2.0, 2.5),
                      std::make_tuple(2.0, 2.0, 3.0),
                      std::make_tuple(4.0, 2.0, 2.25),
                      std::make_tuple(0.5, 3.0, 0.5),
                      std::make_tuple(3.0, 1.5, 5.0)));

TEST(Des, MatchesAnalyticUtilizationOnHeterogeneousThresholds) {
  // Mixed population with varied thresholds: DES utilization must agree
  // with the closed-form Eq.-(6) map.
  std::vector<core::UserParams> users;
  std::vector<double> xs;
  random::Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    core::UserParams u;
    u.arrival_rate = random::uniform(rng, 0.5, 5.0);
    u.service_rate = random::uniform(rng, 1.0, 5.0);
    u.offload_latency = random::uniform(rng, 0.0, 1.0);
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
    users.push_back(u);
    xs.push_back(std::floor(random::uniform(rng, 0.0, 6.0)));
  }
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), long_run(11));
  const SimulationResult r = sim.run_tro(xs);
  EXPECT_NEAR(r.measured_utilization,
              core::utilization_of_thresholds(users, xs, 10.0), 0.01);
}

TEST(Des, IsDeterministicPerSeed) {
  const auto users = homogeneous(50, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  SimulationOptions o;
  o.horizon = 100.0;
  o.seed = 42;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r1 = sim.run_tro(xs);
  const SimulationResult r2 = sim.run_tro(xs);
  EXPECT_EQ(r1.total_events, r2.total_events);
  EXPECT_DOUBLE_EQ(r1.mean_cost, r2.mean_cost);
  o.seed = 43;
  MecSimulation sim2(users, 10.0, core::make_reciprocal_delay(), o);
  EXPECT_NE(sim2.run_tro(xs).total_events, r1.total_events);
}

TEST(Des, EmpiricalServiceSamplerPreservesTheMeanRate) {
  // With the empirical sampler, each device's mean service time must still
  // be 1/s_n; M/M/1-style load then gives a similar (not identical) queue.
  const auto dataset = random::synthetic_yolo_processing_times();
  random::Xoshiro256 rng(6);
  core::UserParams u;
  u.service_rate = 4.0;
  const Sampler sampler(
      {.kind = SamplerSpec::Kind::kEmpirical, .data = dataset.samples()},
      Sampler::Role::kService);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += sampler(rng, u);
  EXPECT_NEAR(acc / n, 1.0 / u.service_rate, 2e-3);
}

TEST(Des, EmpiricalLatencySamplerPreservesTheMeanLatency) {
  const auto dataset = random::synthetic_wifi_offload_latencies();
  random::Xoshiro256 rng(7);
  core::UserParams u;
  u.offload_latency = 2.5;
  const Sampler sampler(
      {.kind = SamplerSpec::Kind::kEmpirical, .data = dataset.samples()},
      Sampler::Role::kLatency);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += sampler(rng, u);
  EXPECT_NEAR(acc / n, 2.5, 0.02);
}

TEST(Des, DeterministicSamplersAreExact) {
  random::Xoshiro256 rng(8);
  core::UserParams u;
  u.service_rate = 5.0;
  u.offload_latency = 1.25;
  SamplerSpec deterministic;
  deterministic.kind = SamplerSpec::Kind::kDeterministic;
  EXPECT_DOUBLE_EQ(Sampler(deterministic, Sampler::Role::kService)(rng, u),
                   0.2);
  EXPECT_DOUBLE_EQ(Sampler(deterministic, Sampler::Role::kLatency)(rng, u),
                   1.25);
}

TEST(Des, FixedGammaControlsTheEdgeDelaySeenByTasks) {
  const auto users = homogeneous(100, 2.0, 1.0, /*tau=*/0.0);
  const std::vector<double> zeros(users.size(), 0.0);  // offload everything
  SimulationOptions o;
  o.horizon = 300.0;
  o.warmup = 10.0;
  o.seed = 9;
  o.latency.kind = SamplerSpec::Kind::kDeterministic;
  o.fixed_gamma = 0.0;
  MecSimulation sim_lo(users, 10.0, core::make_reciprocal_delay(), o);
  o.fixed_gamma = 0.9;
  MecSimulation sim_hi(users, 10.0, core::make_reciprocal_delay(), o);
  const double d_lo = sim_lo.run_tro(zeros).device_mean(
      [](const DeviceStats& d) { return d.mean_offload_delay; });
  const double d_hi = sim_hi.run_tro(zeros).device_mean(
      [](const DeviceStats& d) { return d.mean_offload_delay; });
  EXPECT_NEAR(d_lo, 1.0 / 1.1, 1e-9);
  EXPECT_NEAR(d_hi, 1.0 / 0.2, 1e-9);
}

TEST(Des, EwmaFeedbackTracksTheOfferedLoad) {
  // Without fixed_gamma, the online estimate should settle near the true
  // offered utilization.
  const auto users = homogeneous(200, 2.0, 1.0, /*tau=*/0.1);
  const std::vector<double> zeros(users.size(), 0.0);
  SimulationOptions o;
  o.horizon = 500.0;
  o.warmup = 50.0;
  o.seed = 10;
  o.latency.kind = SamplerSpec::Kind::kDeterministic;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r = sim.run_tro(zeros);
  // gamma = 0.2 => g = 1/0.9; measured per-offload delay = tau + g(gamma_t)
  // with gamma_t fluctuating around 0.2.
  const double d = r.device_mean(
      [](const DeviceStats& dd) { return dd.mean_offload_delay; });
  EXPECT_NEAR(d, 0.1 + 1.0 / 0.9, 0.03);
}

TEST(Des, EmpiricalCostMatchesAnalyticCostForExponentialService) {
  const auto users = homogeneous(300, 1.5, 2.5, /*tau=*/0.5);
  const std::vector<double> xs(users.size(), 2.0);
  SimulationOptions o = long_run(12);
  o.fixed_gamma = 0.3;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r = sim.run_tro(xs);
  const double analytic = core::average_cost(
      users, xs, core::make_reciprocal_delay(), 0.3);
  EXPECT_NEAR(r.mean_cost, analytic, 0.05);
}

TEST(DesUtilizationSourceTest, ApproximatesTheAnalyticMap) {
  const auto users = homogeneous(200, 2.0, 2.0, /*tau=*/0.3);
  SimulationOptions o;
  o.horizon = 400.0;
  o.warmup = 40.0;
  DesUtilizationSource source(users, 10.0, core::make_reciprocal_delay(), o);
  const std::vector<double> xs(users.size(), 1.0);
  const double measured = source.utilization(xs);
  EXPECT_NEAR(measured, core::utilization_of_thresholds(users, xs, 10.0),
              0.01);
  EXPECT_GT(source.last_result().total_events, 0u);
}

TEST(DesUtilizationSourceTest, LastResultRequiresACall) {
  const auto users = homogeneous(10, 1.0, 2.0);
  DesUtilizationSource source(users, 10.0, core::make_reciprocal_delay());
  EXPECT_THROW(source.last_result(), ContractViolation);
}

TEST(Des, SojournPercentilesMatchMm1Theory) {
  // M/M/1 sojourn is Exp(mu - lambda): p50 = ln2/(mu-lambda),
  // p95 = ln20/(mu-lambda), p99 = ln100/(mu-lambda).
  const auto users = homogeneous(300, 1.0, 2.0);
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), long_run(21));
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(make_local_only_policy());
  const SimulationResult r = sim.run(policies);
  const double rate = 2.0 - 1.0;
  EXPECT_GT(r.local_sojourn_percentiles.count(), 100000u);
  EXPECT_NEAR(r.local_sojourn_percentiles.p50(), std::log(2.0) / rate, 0.03);
  EXPECT_NEAR(r.local_sojourn_percentiles.p95(), std::log(20.0) / rate, 0.12);
  EXPECT_NEAR(r.local_sojourn_percentiles.p99(), std::log(100.0) / rate, 0.3);
}

TEST(Des, OffloadDelayPercentilesReflectLatencyPlusEdge) {
  // Deterministic latency + fixed gamma: every offload delay is identical,
  // so all percentiles collapse to tau + g(gamma).
  const auto users = homogeneous(50, 2.0, 1.0, /*tau=*/0.7);
  SimulationOptions o;
  o.horizon = 100.0;
  o.warmup = 5.0;
  o.seed = 22;
  o.latency.kind = SamplerSpec::Kind::kDeterministic;
  o.fixed_gamma = 0.1;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r =
      sim.run_tro(std::vector<double>(users.size(), 0.0));
  const double expected = 0.7 + 1.0 / 1.0;  // tau + 1/(1.1-0.1)
  EXPECT_NEAR(r.offload_delay_percentiles.p50(), expected, 1e-9);
  EXPECT_NEAR(r.offload_delay_percentiles.p99(), expected, 1e-9);
}

TEST(Des, TimelineSamplingRecordsTheTrajectory) {
  const auto users = homogeneous(100, 1.0, 2.0, /*tau=*/0.2);
  SimulationOptions o;
  o.horizon = 90.0;
  o.warmup = 10.0;
  o.seed = 33;
  o.sample_interval = 1.0;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r =
      sim.run_tro(std::vector<double>(users.size(), 2.0));
  // Samples at t = 1..100 (warm-up + horizon).
  ASSERT_EQ(r.timeline.size(), 100u);
  EXPECT_DOUBLE_EQ(r.timeline.front().time, 1.0);
  EXPECT_DOUBLE_EQ(r.timeline.back().time, 100.0);
  // Queue lengths and estimates stay in sane ranges; offload counter is
  // non-decreasing once measuring starts.
  std::uint64_t prev = 0;
  for (const auto& p : r.timeline) {
    EXPECT_GE(p.mean_queue_length, 0.0);
    EXPECT_LE(p.mean_queue_length, 3.0);  // threshold 2 caps queue at 3
    EXPECT_GE(p.utilization_estimate, 0.0);
    EXPECT_LE(p.utilization_estimate, 1.0);
    EXPECT_GE(p.offloads_so_far, prev);
    prev = p.offloads_so_far;
  }
  // After warm-up the EWMA estimate should hover near the analytic value.
  const double expected = core::utilization_of_thresholds(
      users, std::vector<double>(users.size(), 2.0), 10.0);
  const auto& last = r.timeline.back();
  EXPECT_NEAR(last.utilization_estimate, expected, 0.1);
}

TEST(Des, WarmupSojournsAreClippedToTheMeasurementWindow) {
  // Regression for the warm-up measurement bias: with an overloaded local
  // queue (a=2, s=1) and a 100 s warm-up, the FIFO backlog at the window
  // start is ~100 tasks deep, so tasks departing inside a 10 s measurement
  // window arrived ~50 s before it.  Counting their full sojourn inflates
  // the mean to ~50; clipping at the window start bounds every recorded
  // sojourn (and hence the mean and all percentiles) by the horizon.
  const auto users = homogeneous(20, 2.0, 1.0);
  SimulationOptions o;
  o.warmup = 100.0;
  o.horizon = 10.0;
  o.seed = 99;
  o.fixed_gamma = 0.2;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(make_local_only_policy());
  const SimulationResult r = sim.run(policies);
  const double sojourn = r.device_mean(
      [](const DeviceStats& d) { return d.mean_local_sojourn; });
  EXPECT_GT(sojourn, 0.0);
  EXPECT_LE(sojourn, o.horizon);  // pre-fix: ~50 (warm-up backlog leaks in)
  EXPECT_LE(r.local_sojourn_percentiles.p99(), o.horizon);
}

TEST(Des, WarmupClipDoesNotDisturbSteadyStateMeasurements) {
  // In a stable queue the clip only touches the few tasks straddling the
  // window boundary; the M/M/1 sojourn must still come out right with a
  // long warm-up in front of the window.
  const auto users = homogeneous(200, 1.0, 2.0);
  SimulationOptions o = long_run();
  o.warmup = 200.0;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(make_local_only_policy());
  const SimulationResult r = sim.run(policies);
  const double sojourn = r.device_mean(
      [](const DeviceStats& d) { return d.mean_local_sojourn; });
  EXPECT_NEAR(sojourn, queueing::mm1_metrics(1.0, 2.0).mean_sojourn, 0.05);
}

TEST(Des, TimelineIsInvariantToTheSampleInterval) {
  // TimelinePoint records left limits at the scheduled sample time, so
  // sampling must neither perturb the event stream nor depend on which
  // event flushes the sample: the run sampled every 2 s must agree exactly
  // with the even-time points of the run sampled every 1 s.
  const auto users = homogeneous(80, 1.2, 2.0, /*tau=*/0.3);
  SimulationOptions o;
  o.warmup = 10.0;
  o.horizon = 70.0;
  o.seed = 44;
  o.sample_interval = 1.0;
  MecSimulation fine(users, 10.0, core::make_reciprocal_delay(), o);
  o.sample_interval = 2.0;
  MecSimulation coarse(users, 10.0, core::make_reciprocal_delay(), o);
  const std::vector<double> xs(users.size(), 2.0);
  const SimulationResult rf = fine.run_tro(xs);
  const SimulationResult rc = coarse.run_tro(xs);
  EXPECT_EQ(rf.total_events, rc.total_events);
  EXPECT_DOUBLE_EQ(rf.mean_cost, rc.mean_cost);
  ASSERT_EQ(rf.timeline.size(), 80u);
  ASSERT_EQ(rc.timeline.size(), 40u);
  for (std::size_t i = 0; i < rc.timeline.size(); ++i) {
    const TimelinePoint& c = rc.timeline[i];
    const TimelinePoint& f = rf.timeline[2 * i + 1];
    ASSERT_DOUBLE_EQ(c.time, f.time);
    EXPECT_DOUBLE_EQ(c.utilization_estimate, f.utilization_estimate);
    EXPECT_DOUBLE_EQ(c.mean_queue_length, f.mean_queue_length);
    EXPECT_EQ(c.offloads_so_far, f.offloads_so_far);
  }
}

TEST(Des, TimelineOffloadCounterStartsAtWarmupAndEndsAtTheTotal) {
  const auto users = homogeneous(60, 2.0, 1.5, /*tau=*/0.2);
  SimulationOptions o;
  o.warmup = 10.0;
  o.horizon = 50.0;
  o.seed = 55;
  o.sample_interval = 1.0;
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const SimulationResult r =
      sim.run_tro(std::vector<double>(users.size(), 1.0));
  std::uint64_t total_offloaded = 0;
  for (const DeviceStats& d : r.devices) total_offloaded += d.offloaded;
  ASSERT_FALSE(r.timeline.empty());
  for (const TimelinePoint& p : r.timeline) {
    if (p.time <= o.warmup) {
      EXPECT_EQ(p.offloads_so_far, 0u) << "t=" << p.time;
    }
  }
  // The final sample is the left limit at t_end; no event lands on the
  // sampled instant (arrival times are continuous), so it equals the total.
  EXPECT_EQ(r.timeline.back().offloads_so_far, total_offloaded);
  EXPECT_GT(total_offloaded, 0u);
}

TEST(Des, TimelineDisabledByDefault) {
  const auto users = homogeneous(20, 1.0, 2.0);
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay());
  const SimulationResult r =
      sim.run_tro(std::vector<double>(users.size(), 1.0));
  EXPECT_TRUE(r.timeline.empty());
}

TEST(Des, RejectsInvalidConfiguration) {
  const auto users = homogeneous(5, 1.0, 2.0);
  SimulationOptions o;
  o.horizon = -1.0;
  EXPECT_THROW(
      MecSimulation(users, 10.0, core::make_reciprocal_delay(), o),
      ContractViolation);
  o = {};
  EXPECT_THROW(MecSimulation({}, 10.0, core::make_reciprocal_delay(), o),
               ContractViolation);
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay());
  const std::vector<double> wrong(2, 1.0);
  EXPECT_THROW(sim.run_tro(wrong), ContractViolation);
}

TEST(Des, RejectsPopulationsAboveTheDeviceLimitAtEntry) {
  // The event queue packs device ids into 20 bits.  One device past
  // 2^20 = 1,048,576 must fail in the constructor with an error that names
  // the limit and the reason, for fault-free runs and churn alike.
  constexpr std::size_t kLimit = std::size_t{1} << 20;
  ASSERT_EQ(EventQueue::kMaxDevices, kLimit);
  std::vector<core::UserParams> users = homogeneous(kLimit + 1, 1.0, 2.0);
  SimulationOptions o;
  o.horizon = 0.01;
  try {
    MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
    FAIL() << "a 2^20 + 1 device population must be rejected";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1048577 devices"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 1048576 devices"), std::string::npos)
        << what;
    EXPECT_NE(what.find("packs device ids into 20 bits"), std::string::npos)
        << what;
  }

  users.pop_back();  // exactly at the limit: accepted
  EXPECT_NO_THROW(MecSimulation(users, 10.0, core::make_reciprocal_delay(), o));

  auto churn = std::make_shared<fault::FaultSchedule>();
  churn->add_user_arrival(0.005, users.front());
  o.faults = churn;
  EXPECT_THROW(MecSimulation(users, 10.0, core::make_reciprocal_delay(), o),
               RuntimeError);
}

}  // namespace
}  // namespace mec::sim
