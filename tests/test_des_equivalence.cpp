// Golden-trace equivalence for the DES hot-path overhaul.
//
// The two-gear event queue, the ring-buffer task FIFO, the sealed TRO
// arrival fast path, and workspace reuse are pure performance changes: the
// simulator must pop the identical event sequence and therefore produce
// bit-identical metrics.  The hexfloat constants below were captured from
// the pre-overhaul simulator (std::priority_queue + per-device deque,
// virtual dispatch on every arrival); every comparison is exact — no
// tolerances anywhere in this file.
#include "mec/sim/mec_simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/des.hpp"

namespace mec::sim {
namespace {

// The fixed heterogeneous population shared by all golden scenarios.
std::vector<core::UserParams> golden_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(424242);
  for (std::size_t i = 0; i < n; ++i) {
    core::UserParams u;
    u.arrival_rate = random::uniform(rng, 0.5, 3.0);
    u.service_rate = random::uniform(rng, 2.0, 5.0);
    u.offload_latency = random::uniform(rng, 0.05, 0.6);
    u.energy_local = random::uniform(rng, 0.8, 1.2);
    u.energy_offload = random::uniform(rng, 0.3, 0.7);
    users.push_back(u);
  }
  return users;
}

SimulationOptions scenario_a_options() {
  SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  return o;
}

std::vector<double> scenario_a_thresholds(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(0.5 * static_cast<double>(i % 7));
  return xs;
}

SimulationOptions scenario_b_options() {
  SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 80.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  return o;
}

void expect_bitwise_equal(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.mean_offload_fraction, b.mean_offload_fraction);
  EXPECT_EQ(a.local_sojourn_percentiles.count(),
            b.local_sojourn_percentiles.count());
  EXPECT_EQ(a.local_sojourn_percentiles.p50(),
            b.local_sojourn_percentiles.p50());
  EXPECT_EQ(a.offload_delay_percentiles.p99(),
            b.offload_delay_percentiles.p99());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].arrivals, b.devices[i].arrivals) << "device " << i;
    EXPECT_EQ(a.devices[i].offloaded, b.devices[i].offloaded) << "device " << i;
    EXPECT_EQ(a.devices[i].local_completed, b.devices[i].local_completed)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_queue_length, b.devices[i].mean_queue_length)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_local_sojourn, b.devices[i].mean_local_sojourn)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_offload_delay, b.devices[i].mean_offload_delay)
        << "device " << i;
    EXPECT_EQ(a.devices[i].empirical_cost, b.devices[i].empirical_cost)
        << "device " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate);
    EXPECT_EQ(a.timeline[i].mean_queue_length, b.timeline[i].mean_queue_length);
    EXPECT_EQ(a.timeline[i].offloads_so_far, b.timeline[i].offloads_so_far);
  }
}

TEST(GoldenTrace, FixedGammaMixedThresholdsWithSampling) {
  const auto users = golden_users(40);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_a_options());
  const SimulationResult r = s.run_tro(scenario_a_thresholds(users.size()));
  EXPECT_EQ(r.total_events, 8754u);
  EXPECT_EQ(r.measured_utilization, 0x1.551eb851eb852p-4);
  EXPECT_EQ(r.mean_cost, 0x1.a949dce689f98p+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.b6c7910db35f5p-2);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.7e7abbf6a030bp-2);
  const DeviceStats& d7 = r.devices[7];  // threshold 0: pure offloader
  EXPECT_EQ(d7.arrivals, 141u);
  EXPECT_EQ(d7.offloaded, 141u);
  EXPECT_EQ(d7.local_completed, 0u);
  EXPECT_EQ(d7.mean_queue_length, 0.0);
  EXPECT_EQ(d7.mean_local_sojourn, 0.0);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.b07bf525f70c1p+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.9c10b47aaa3ddp-2);
  EXPECT_EQ(d7.empirical_cost, 0x1.0bc0112250cd9p+1);
  ASSERT_EQ(r.timeline.size(), 26u);
  EXPECT_EQ(r.timeline.back().time, 0x1.04p+6);  // 65.0 = warmup + horizon
  EXPECT_EQ(r.timeline.back().utilization_estimate, 0x1p-2);
  EXPECT_EQ(r.timeline.back().mean_queue_length, 0x1.ccccccccccccdp-2);
  EXPECT_EQ(r.timeline.back().offloads_so_far, 1599u);
}

TEST(GoldenTrace, OnlineEwmaGammaHomogeneousFractionalThreshold) {
  const auto users = golden_users(40);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_b_options());
  const SimulationResult r = s.run_tro(std::vector<double>(users.size(), 1.75));
  EXPECT_EQ(r.total_events, 11497u);
  EXPECT_EQ(r.measured_utilization, 0x1.ab851eb851eb8p-5);
  EXPECT_EQ(r.mean_cost, 0x1.811e34317c14p+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.132c4df8412fep-1);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.a23b4b244b725p-3);
  const DeviceStats& d7 = r.devices[7];
  EXPECT_EQ(d7.arrivals, 205u);
  EXPECT_EQ(d7.offloaded, 55u);
  EXPECT_EQ(d7.local_completed, 151u);
  EXPECT_EQ(d7.mean_queue_length, 0x1.58ddb17af037ap-1);
  EXPECT_EQ(d7.mean_local_sojourn, 0x1.6d6bc1250551p-2);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.921d6ade446e8p+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.be8c9cde3bd54p-1);
  EXPECT_EQ(d7.empirical_cost, 0x1.93c78f57e91e3p+0);
}

TEST(GoldenTrace, DpoPoliciesOnTheGenericVirtualPath) {
  const auto users = golden_users(40);
  SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 50.0;
  o.seed = 5;
  o.latency.kind = SamplerSpec::Kind::kDeterministic;
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(), o);
  std::vector<double> rhos;
  for (std::size_t i = 0; i < users.size(); ++i)
    rhos.push_back(0.1 + 0.02 * static_cast<double>(i % 10));
  const SimulationResult r = s.run_dpo(rhos);
  EXPECT_EQ(r.total_events, 6622u);
  EXPECT_EQ(r.measured_utilization, 0x1.5916872b020c5p-5);
  EXPECT_EQ(r.mean_cost, 0x1.b54a91cbe50ap+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.03acf3fee5504p+0);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.8ef1ca8a2a9f5p-3);
  const DeviceStats& d7 = r.devices[7];
  EXPECT_EQ(d7.arrivals, 139u);
  EXPECT_EQ(d7.offloaded, 31u);
  EXPECT_EQ(d7.local_completed, 105u);
  EXPECT_EQ(d7.mean_queue_length, 0x1.1ea5532a93dd7p+0);
  EXPECT_EQ(d7.mean_local_sojourn, 0x1.076f1d6702d7ap-1);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.7791115f1ffadp+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.cd6e1e98a04d2p-1);
  EXPECT_EQ(d7.empirical_cost, 0x1.b332232937deap+0);
}

// Forwards to a real TRO policy but hides tro_threshold(), forcing the
// simulator onto the generic virtual-dispatch path.  The fast path promises
// to draw exactly the RNG sequence offload() draws, so the two paths must
// agree bit-for-bit.
class HiddenTroPolicy final : public OffloadPolicy {
 public:
  explicit HiddenTroPolicy(double threshold)
      : inner_(make_tro_policy(threshold)) {}
  bool offload(std::uint64_t queue_length,
               random::Xoshiro256& rng) const override {
    return inner_->offload(queue_length, rng);
  }
  std::string describe() const override { return "hidden-tro"; }

 private:
  std::unique_ptr<OffloadPolicy> inner_;
};

TEST(FastPathEquivalence, SealedTroPathMatchesGenericDispatchBitForBit) {
  const auto users = golden_users(40);
  const auto xs = scenario_a_thresholds(users.size());
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_a_options());
  std::vector<std::unique_ptr<OffloadPolicy>> hidden;
  for (const double x : xs) hidden.push_back(std::make_unique<HiddenTroPolicy>(x));
  expect_bitwise_equal(s.run_tro(xs), s.run(hidden));
}

TEST(FastPathEquivalence, PolicyObjectsExposingThresholdsMatchRunTro) {
  // make_tro_policy exposes tro_threshold(), so run() seals onto the fast
  // path itself; it must agree with the policy-free run_tro entry point.
  const auto users = golden_users(40);
  const auto xs = scenario_a_thresholds(users.size());
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_a_options());
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  for (const double x : xs) policies.push_back(make_tro_policy(x));
  expect_bitwise_equal(s.run_tro(xs), s.run(policies));
}

TEST(WorkspaceReuse, ReusedWorkspaceReproducesFreshRunsBitForBit) {
  // Scenario B exercises the EWMA estimator and the RNG-stream snapshot:
  // run 1 sizes the workspace and caches the split streams, runs 2 and 3
  // restore them.  All runs — with or without a workspace — must agree.
  const auto users = golden_users(40);
  const std::vector<double> xs(users.size(), 1.75);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_b_options());
  const SimulationResult fresh = s.run_tro(xs);
  SimWorkspace ws;
  const SimulationResult first = s.run_tro(xs, ws);
  const SimulationResult second = s.run_tro(xs, ws);
  const SimulationResult third = s.run_tro(xs, ws);
  expect_bitwise_equal(fresh, first);
  expect_bitwise_equal(fresh, second);
  expect_bitwise_equal(fresh, third);
}

TEST(WorkspaceReuse, WorkspaceSurvivesPopulationSizeChanges) {
  // The same workspace driven by differently-sized simulations must resize
  // and still reproduce the fresh-run results exactly.
  SimWorkspace ws;
  for (const std::size_t n : {60u, 15u, 90u}) {
    const auto users = golden_users(n);
    const std::vector<double> xs(n, 2.0);
    SimulationOptions o;
    o.warmup = 1.0;
    o.horizon = 30.0;
    o.seed = 7 + n;
    o.fixed_gamma = 0.2;
    MecSimulation s(users, 8.0, core::make_reciprocal_delay(), o);
    expect_bitwise_equal(s.run_tro(xs), s.run_tro(xs, ws));
  }
}

// --- EventQueue order equivalence against a reference model ----------------

using RefNode = std::tuple<double, std::uint64_t, std::uint32_t, int>;

void check_pop(EventQueue& q, std::set<RefNode>& ref) {
  ASSERT_FALSE(ref.empty());
  const RefNode expected = *ref.begin();
  ref.erase(ref.begin());
  EXPECT_EQ(q.next_time(), std::get<0>(expected));
  const Event e = q.pop();
  ASSERT_EQ(e.time, std::get<0>(expected));
  ASSERT_EQ(e.seq, std::get<1>(expected));
  ASSERT_EQ(e.device, std::get<2>(expected));
  ASSERT_EQ(static_cast<int>(e.kind), std::get<3>(expected));
}

TEST(EventQueueEquivalence, MatchesReferenceOrderAcrossGearSwitches) {
  // Drive the queue through every regime — heap gear, the calendar switch,
  // growth retunes, overflow-tier hits, in-window (side-heap) pushes, the
  // shrink retune, and the fall back to the heap — checking each pop
  // against an ordered (time, seq) reference model.
  EventQueue q;
  std::set<RefNode> ref;
  random::Xoshiro256 rng(2718281828u);
  std::uint64_t seq = 0;
  double clock = 0.0;

  const auto push = [&](double t, EventKind k, std::uint32_t dev) {
    q.push(t, k, dev);
    ref.emplace(t, seq++, dev, static_cast<int>(k));
  };

  // Grow well past the calendar switch threshold (16384).
  for (std::uint32_t i = 0; i < 30000; ++i)
    push(random::exponential(rng, 0.5), EventKind::kArrival, i % 1000);

  // Steady churn with a net-growth phase (two pushes per pop, growing the
  // population past 4x the size at the calendar switch) to force a growth
  // retune, mixing short delays (side heap), typical delays, same-time
  // ties, and far-future outliers (overflow tier).
  for (int step = 0; step < 120000 && !ref.empty(); ++step) {
    check_pop(q, ref);
    clock = std::get<0>(*ref.begin());
    const int fanout = step < 40000 ? 2 : 1;
    for (int j = 0; j < fanout; ++j) {
      const double u = random::uniform(rng, 0.0, 1.0);
      double t;
      if (u < 0.05) {
        t = clock;  // exact tie: FIFO order must hold
      } else if (u < 0.15) {
        t = clock + random::exponential(rng, 5000.0);  // inside the window
      } else if (u < 0.97) {
        t = clock + random::exponential(rng, 0.5);
      } else {
        t = clock + random::uniform(rng, 1e4, 1e7);  // overflow tier
      }
      push(t, static_cast<EventKind>(step % 3), static_cast<std::uint32_t>(
                                                    (step + 7 * j) % 1000));
    }
    if (step == 60000) {
      // Burst of simultaneous events deep in calendar gear.
      for (int j = 0; j < 500; ++j)
        push(clock + 1.0, EventKind::kLocalDeparture,
             static_cast<std::uint32_t>(j));
    }
  }

  // Drain completely: crosses the shrink retune and the heap-gear exit.
  while (!ref.empty()) check_pop(q, ref);
  EXPECT_TRUE(q.empty());

  // clear() keeps capacity but restarts the sequence: reuse must still
  // order correctly and report fresh seq numbers.
  q.clear();
  seq = 0;
  for (std::uint32_t i = 0; i < 5000; ++i)
    push(random::exponential(rng, 1.0), EventKind::kArrival, i % 64);
  while (!ref.empty()) check_pop(q, ref);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueEquivalence, AllSimultaneousEventsStayFifoAtScale) {
  // A degenerate spread (every event at the same instant) cannot be
  // separated by time buckets; the queue must still pop in insertion order
  // above the calendar switch threshold.
  EventQueue q;
  const std::uint32_t n = 20000;
  for (std::uint32_t i = 0; i < n; ++i)
    q.push(3.5, EventKind::kArrival, i % 997);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Event e = q.pop();
    ASSERT_EQ(e.seq, i);
    ASSERT_EQ(e.device, i % 997);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEquivalence, ScheduledCountTracksPushesAcrossClear) {
  EventQueue q;
  q.push(1.0, EventKind::kArrival, 0);
  q.push(2.0, EventKind::kArrival, 1);
  EXPECT_EQ(q.scheduled_count(), 2u);
  q.clear();
  EXPECT_EQ(q.scheduled_count(), 0u);
  q.push(1.0, EventKind::kArrival, 2);
  EXPECT_EQ(q.scheduled_count(), 1u);
  EXPECT_EQ(q.pop().seq, 0u);
}

}  // namespace
}  // namespace mec::sim
