// Multi-cluster edge-coupling battery.
//
// Pins the vector-gamma generalization of the coupling layer to the scalar
// engine it replaced:
//   - the 1-cluster default topology reproduces pre-change engine output
//     bit-for-bit (hexfloat goldens captured from the scalar-gamma build,
//     with and without a fault schedule);
//   - per-cluster offload accounting conserves the total offload mass for
//     every cluster count, and the offload *decisions* are invariant to the
//     topology (devices never see gamma when deciding);
//   - GammaReplay's cross-leg merge produces per-cluster gamma trajectories
//     bit-identical to a serial replay of the pre-merged log, and its pooled
//     three-phase consume matches the single-pass K-way merge bit for bit
//     at every lane count;
//   - malformed topologies are rejected up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;

// Same population generator as the stream-log battery: the goldens below
// were captured against exactly these draws.
std::vector<core::UserParams> mixed_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(777);
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

std::vector<double> mixed_thresholds(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(0.25 * static_cast<double>(i % 9));
  return xs;
}

sim::SimulationOptions golden_options() {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = 2024;
  o.sample_interval = 2.0;
  o.initial_gamma = 0.25;
  o.utilization_ewma_tau = 6.0;
  o.shards = 1;
  return o;
}

sim::SimulationResult run_golden_scenario(
    const std::shared_ptr<const fault::FaultSchedule>& schedule,
    const sim::ClusterTopology& topology = {}) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o = golden_options();
  o.faults = schedule;
  o.topology = topology;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  return des.run_tro(mixed_thresholds(users.size()));
}

// --- scalar-engine goldens (pre-change build, bitwise) ----------------------

// Captured from the scalar-gamma engine at the commit before the topology
// change, same toolchain and flags as CI.  Any bit that moves here means the
// 1-cluster reduction is no longer the identity.
TEST(SingleClusterBitCompat, ReproducesScalarEngineGoldenNoFaults) {
  const sim::SimulationResult r = run_golden_scenario(nullptr);
  EXPECT_EQ(r.total_events, 5570u);
  EXPECT_EQ(r.measured_utilization, 0x1.5a895da895da9p-4);
  EXPECT_EQ(r.mean_cost, 0x1.8f7932fe299aep+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.2ea01029419fbp-2);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.d463e580b0f88p-2);
  const double golden_gamma[] = {
      0x1.977368e33fc32p-3, 0x1.454aba45ca21bp-3, 0x1.1854b5ef9270ap-3,
      0x1.d328ee0d12093p-4, 0x1.aa8884dace7b2p-4, 0x1.6d855d8766ac3p-4,
      0x1.5c0fd3c563a93p-4, 0x1.6b52e621a21a7p-4, 0x1.63c1e831a0d49p-4,
      0x1.609a34c3c3665p-4, 0x1.678f1c0c7be7fp-4, 0x1.5cc2d4d873138p-4,
      0x1.64bd12f0d5f37p-4, 0x1.58d0b994a3368p-4, 0x1.6f19dd91f8493p-4,
      0x1.6d11c83eadf3ep-4, 0x1.64468295a3485p-4, 0x1.721c2757da8e4p-4,
      0x1.7adaae4d476fap-4, 0x1.71c7e63888397p-4, 0x1.6fac321700dc2p-4,
      0x1.837c47a879408p-4};
  ASSERT_EQ(r.timeline.size(), std::size(golden_gamma));
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(r.timeline[i].time, 2.0 * static_cast<double>(i + 1));
    EXPECT_EQ(r.timeline[i].utilization_estimate, golden_gamma[i]);
  }
  // The default topology's per-cluster view is the scalar view, bitwise.
  ASSERT_EQ(r.cluster_utilization.size(), 1u);
  EXPECT_EQ(r.cluster_utilization[0], r.measured_utilization);
  ASSERT_EQ(r.cluster_offloads.size(), 1u);
}

TEST(SingleClusterBitCompat, ReproducesScalarEngineGoldenUnderFaults) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(12.0, 0.6);
  schedule->add_outage(18.0, 24.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_capacity_scale(30.0, 1.0);
  const sim::SimulationResult r = run_golden_scenario(schedule);
  EXPECT_EQ(r.total_events, 5574u);
  EXPECT_EQ(r.measured_utilization, 0x1.a69b0812465bbp-4);
  EXPECT_EQ(r.mean_cost, 0x1.99588f5aa6434p+0);
  const double golden_gamma[] = {
      0x1.977368e33fc32p-3, 0x1.454aba45ca21bp-3, 0x1.1854b5ef9270ap-3,
      0x1.d328ee0d12093p-4, 0x1.aa8884dace7b2p-4, 0x1.6d855d8766ac3p-4,
      0x1.220d3079d30dp-3,  0x1.2ec5151c07161p-3, 0x1.2876ec295b5bdp-3,
      0x1.25d5d6a322d55p-3, 0x1.2ba1ecb511ecp-3,  0x1.22a25c09b53afp-3,
      0x1.29483a735cf59p-3, 0x1.1f589aa68802cp-3, 0x1.31eae34ef9925p-3,
      0x1.6d11c83eadf3ep-4, 0x1.64468295a3485p-4, 0x1.721c2757da8e4p-4,
      0x1.7adaae4d476fap-4, 0x1.71c7e63888397p-4, 0x1.6fac321700dc2p-4,
      0x1.837c47a879408p-4};
  ASSERT_EQ(r.timeline.size(), std::size(golden_gamma));
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(r.timeline[i].utilization_estimate, golden_gamma[i]);
  }
}

// An *explicit* 1-cluster topology (share vector {1.0}, one price) must be
// indistinguishable from the default-constructed one.
TEST(SingleClusterBitCompat, ExplicitOneClusterTopologyIsTheIdentity) {
  sim::ClusterTopology one;
  one.clusters = 1;
  one.shares = {1.0};
  const sim::SimulationResult a = run_golden_scenario(nullptr);
  const sim::SimulationResult b = run_golden_scenario(nullptr, one);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i)
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate);
}

// --- offload-mass conservation ----------------------------------------------

// Per-cluster accounting must conserve the total offload mass for any
// cluster count, and the decisions themselves are topology-invariant: an
// offload depends only on the device's queue and RNG stream, never on which
// cluster it routes to.
TEST(ClusterConservation, PerClusterOffloadsConserveTotalMass) {
  const auto users = mixed_users(41);
  std::vector<std::uint64_t> per_device_baseline;
  for (const std::size_t clusters : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("clusters = " + std::to_string(clusters));
    sim::SimulationOptions o = golden_options();
    o.topology.clusters = clusters;
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
    const sim::SimulationResult r =
        des.run_tro(mixed_thresholds(users.size()));
    ASSERT_EQ(r.cluster_offloads.size(), clusters);
    ASSERT_EQ(r.cluster_utilization.size(), clusters);
    std::uint64_t cluster_sum = 0;
    for (const std::uint64_t n : r.cluster_offloads) cluster_sum += n;
    std::uint64_t device_sum = 0;
    for (const auto& d : r.devices) device_sum += d.offloaded;
    EXPECT_EQ(cluster_sum, device_sum);
    if (per_device_baseline.empty()) {
      for (const auto& d : r.devices) per_device_baseline.push_back(d.offloaded);
    } else {
      ASSERT_EQ(r.devices.size(), per_device_baseline.size());
      for (std::size_t n = 0; n < r.devices.size(); ++n)
        EXPECT_EQ(r.devices[n].offloaded, per_device_baseline[n])
            << "device " << n << ": offload decisions moved with the topology";
    }
  }
}

// Heterogeneous shares: each cluster's measured utilization is its offload
// mass over its *own* capacity slice, so shrinking a share inflates that
// cluster's utilization relative to the even split.
TEST(ClusterConservation, HeterogeneousSharesScaleUtilization) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o = golden_options();
  o.topology.clusters = 2;
  o.topology.shares = {0.8, 0.2};
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r = des.run_tro(mixed_thresholds(users.size()));
  ASSERT_EQ(r.cluster_utilization.size(), 2u);
  // Devices split evenly (even/odd ids) but cluster 1 owns a quarter of the
  // capacity of cluster 0, so its utilization must come out higher.
  EXPECT_GT(r.cluster_utilization[1], r.cluster_utilization[0]);
  for (const double g : r.cluster_utilization) EXPECT_GT(g, 0.0);
}

// --- GammaReplay: cross-leg merge == serial reference ----------------------

// Feeds the same synthetic offload log to GammaReplay twice: once as three
// shard legs (the engine's view) and once pre-merged into a single serial
// log (the reference).  The merged replay must touch every per-cluster EWMA
// in exactly the same order, so trajectories agree bit-for-bit.
TEST(GammaReplayMerge, MultiLegMergeMatchesSerialReference) {
  sim::ClusterTopology topology;
  topology.clusters = 3;
  topology.shares = {0.5, 0.3, 0.2};
  const double capacity = 8.0;
  const double tau = 4.0;
  const double initial_gamma = 0.2;
  constexpr std::uint32_t kDevices = 12;

  // Synthetic per-leg logs: contiguous device partitions, each leg sorted in
  // time, no cross-leg ties (distinct irrational-ish offsets).
  std::vector<std::vector<sim::OffloadRecord>> legs(3);
  random::Xoshiro256 rng(99);
  for (std::uint32_t dev = 0; dev < kDevices; ++dev) {
    const std::size_t leg = dev / 4;  // 3 legs x 4 devices
    double t = 0.1 + 0.37 * static_cast<double>(dev);
    for (int j = 0; j < 6; ++j) {
      t += random::uniform(rng, 0.5, 4.0);
      sim::OffloadRecord rec;
      rec.time = t;
      rec.latency = random::uniform(rng, 0.1, 0.5);
      rec.device = dev;
      rec.cluster = static_cast<std::uint16_t>(topology.route(dev));
      rec.measured = true;
      legs[leg].push_back(rec);
    }
    std::sort(legs[leg].begin(), legs[leg].end(),
              [](const auto& a, const auto& b) { return a.time < b.time; });
  }
  // Serial reference: one log, globally time-ordered.
  std::vector<sim::OffloadRecord> merged;
  for (const auto& leg : legs)
    merged.insert(merged.end(), leg.begin(), leg.end());
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const auto run_replay = [&](std::span<const std::span<const sim::OffloadRecord>>
                                  logs,
                              std::vector<std::vector<double>>& trajectories,
                              std::vector<double>& delay_sums) {
    sim::GammaReplay replay(delay, tau, initial_gamma, capacity,
                            /*warmup=*/0.0, /*t_end=*/100.0, kDevices, {},
                            topology);
    stats::LatencySketch sketch;
    replay.consume(logs, delay_sums.data(), sketch);
    for (const double at : {30.0, 34.0, 38.0, 42.0}) {
      const auto gammas = replay.cluster_gammas(at);
      trajectories.emplace_back(gammas.begin(), gammas.end());
      trajectories.back().push_back(replay.gamma_at(at));
    }
  };

  std::vector<std::span<const sim::OffloadRecord>> multi_view(legs.begin(),
                                                              legs.end());
  std::vector<std::vector<double>> multi_traj, serial_traj;
  std::vector<double> multi_delay_sums(kDevices, 0.0);
  std::vector<double> serial_delay_sums(kDevices, 0.0);
  run_replay(multi_view, multi_traj, multi_delay_sums);
  const std::span<const sim::OffloadRecord> serial_view[] = {merged};
  run_replay(serial_view, serial_traj, serial_delay_sums);

  ASSERT_EQ(multi_traj.size(), serial_traj.size());
  for (std::size_t i = 0; i < multi_traj.size(); ++i) {
    SCOPED_TRACE("grid read " + std::to_string(i));
    ASSERT_EQ(multi_traj[i].size(), serial_traj[i].size());
    for (std::size_t k = 0; k < multi_traj[i].size(); ++k)
      EXPECT_EQ(multi_traj[i][k], serial_traj[i][k]) << "entry " << k;
  }
  for (std::uint32_t dev = 0; dev < kDevices; ++dev) {
    EXPECT_EQ(multi_delay_sums[dev], serial_delay_sums[dev])
        << "device " << dev;
  }
}

// --- GammaReplay: pooled phases == the serial K-way merge -----------------

// The single-pass K-way merge consume() ran before the replay was split
// into pooled phases, kept here as the reference: earliest record first,
// lowest shard at exact ties, every gamma-dependent quantity applied in
// that one pass.  Grid reads mirror GammaReplay's.
class SerialReplay {
 public:
  SerialReplay(const core::EdgeDelay& delay, double tau, double initial_gamma,
               double edge_capacity, double warmup, double t_end,
               std::uint32_t n_initial,
               std::span<const fault::ResolvedAction> actions,
               const sim::ClusterTopology& topology)
      : delay_(&delay), warmup_(warmup), t_end_(t_end) {
    for (std::size_t k = 0; k < topology.clusters; ++k) {
      caps_.push_back(edge_capacity * topology.share(k));
      bank_.emplace_back(tau, initial_gamma * caps_[k]);
    }
    walk_.actions = actions;
    walk_.active = n_initial;
    walk_.cluster_scale.assign(topology.clusters, 1.0);
  }

  void consume(std::span<const std::span<const sim::OffloadRecord>> logs,
               double* offload_delay_sums,
               stats::LatencySketch& offload_delays) {
    std::vector<std::size_t> cursors(logs.size(), 0);
    for (;;) {
      std::size_t best = logs.size();
      double best_time = 0.0;
      for (std::size_t s = 0; s < logs.size(); ++s) {
        if (cursors[s] >= logs[s].size()) continue;
        const double t = logs[s][cursors[s]].time;
        if (best == logs.size() || t < best_time) {
          best = s;
          best_time = t;
        }
      }
      if (best == logs.size()) break;
      const sim::OffloadRecord& r = logs[best][cursors[best]++];
      walk_.advance_to(r.time, /*inclusive=*/true);
      sim::EwmaRate& rate = bank_[r.cluster];
      const double gamma = clamped_gamma(rate.rate_at(r.time), r.cluster);
      double delay_value = (*delay_)(gamma);
      if (r.penalized) delay_value += r.penalty;
      rate.record_event(r.time);
      const double delivery = r.time + r.latency + delay_value;
      if (delivery <= t_end_) {
        ++deliveries_;
        if (delivery >= warmup_) flip_trigger_ = true;
      }
      if (r.measured) {
        offload_delay_sums[r.device] += r.latency + delay_value;
        offload_delays.add(r.latency + delay_value);
      }
    }
  }

  double gamma_at(double at) {
    walk_.advance_to(at, /*inclusive=*/false);
    if (bank_.size() == 1) return clamped_gamma(bank_[0].rate_at(at), 0);
    double rate = 0.0;
    double cap = 0.0;
    for (std::size_t k = 0; k < bank_.size(); ++k) {
      rate += bank_[k].rate_at(at);
      cap += caps_[k] * walk_.scale * walk_.cluster_scale[k];
    }
    return std::clamp(rate / cap, 0.0, 1.0);
  }

  std::vector<double> cluster_gammas(double at) {
    walk_.advance_to(at, /*inclusive=*/false);
    std::vector<double> gammas;
    for (std::size_t k = 0; k < bank_.size(); ++k)
      gammas.push_back(clamped_gamma(bank_[k].rate_at(at), k));
    return gammas;
  }

  std::uint64_t deliveries() const { return deliveries_; }
  bool delivery_flip_trigger() const { return flip_trigger_; }

 private:
  double clamped_gamma(double rate, std::size_t k) const {
    return std::clamp(
        rate / (caps_[k] * walk_.scale * walk_.cluster_scale[k]), 0.0, 1.0);
  }

  const core::EdgeDelay* delay_;
  std::vector<sim::EwmaRate> bank_;
  std::vector<double> caps_;
  fault::EnvWalk walk_;
  double warmup_;
  double t_end_;
  std::uint64_t deliveries_ = 0;
  bool flip_trigger_ = false;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One barrier's input: the shard logs and the grid instant read after it.
struct ReplayBarrier {
  std::vector<std::vector<sim::OffloadRecord>> logs;
  double read_at = 0.0;
};

/// Everything a replay exposes, read after every barrier.
struct ReplayOutcome {
  std::vector<double> reads;  ///< cluster gammas + aggregate, per barrier
  std::vector<std::uint64_t> deliveries;
  std::vector<double> delay_sums;
  stats::LatencySketch delays;
  bool flip_trigger = false;
};

constexpr std::uint32_t kBatteryDevices = 90;
constexpr double kBatteryTau = 0.7;
constexpr double kBatteryCapacity = 60000.0;
constexpr double kBatteryWarmup = 3.0;
constexpr double kBatteryEnd = 10.0;

sim::ClusterTopology battery_topology() {
  sim::ClusterTopology t;
  t.clusters = 3;
  t.shares = {0.5, 0.3, 0.2};
  return t;
}

/// Capacity-scale actions inside barriers, global and per cluster; two sit
/// on the 1/97 grid of the quantized barriers below and one on the tied
/// instant of the last run barrier, so records share their instants.
std::vector<fault::ResolvedAction> battery_actions() {
  const auto scale = [](double time, double value, std::uint16_t cluster) {
    fault::ResolvedAction a;
    a.time = time;
    a.kind = fault::FaultKind::kCapacityScale;
    a.value = value;
    a.cluster = cluster;
    a.effective = true;
    a.active_after = kBatteryDevices;
    return a;
  };
  return {scale(1.5, 0.6, fault::FaultAction::kAllClusters),
          scale(3.0 + 40.0 / 97.0, 0.5, 1),
          scale(4.25, 1.0, fault::FaultAction::kAllClusters),
          scale(6.0 + 13.0 / 97.0, 0.3, 2),
          scale(7.7, 1.0, 1),
          scale(8.5, 1.0, 2)};
}

/// Barrier b covers [b, b + 1) and is read at b + 1.  Four shards own
/// devices [0, 30), [] (always empty), [30, 60) and [60, 90); shard 3 is
/// the largest, so the splitters come from a log that loses exact ties to
/// lower shards.  Modes: 0 continuous times; 1 times quantized to 1/97
/// (exact ties within and across shards, records at the barrier's start
/// instant, and at two fault instants); 2 continuous with a long run of
/// one time in every non-empty shard, wide enough to hold several slice
/// splitters; 3 continuous with cluster 2 silent after the first fifth
/// (later slices miss a cluster); 4 continuous from half a unit before the
/// barrier's start, so records precede the last grid read (the engine
/// never does this, but the replay must still match the serial merge).
std::vector<ReplayBarrier> battery_barriers() {
  const std::size_t grain = sim::GammaReplay::kSliceRecords;
  const struct {
    std::size_t records;
    int mode;
  } shapes[] = {{0, 0},         {5, 1},         {2 * grain + 1, 4},
                {grain, 1},     {2 * grain + 3, 3},
                {3 * grain, 2}, {4 * grain + 11, 1},
                {grain + 1, 3}, {5 * grain + 7, 2},
                {3 * grain + 1, 0}};
  const std::uint32_t lo[] = {0, 30, 30, 60};
  const std::uint32_t hi[] = {30, 30, 60, 90};
  const double weight[] = {0.2, 0.0, 0.35, 0.45};
  random::Xoshiro256 rng(4242);
  std::vector<ReplayBarrier> barriers;
  for (std::size_t b = 0; b < std::size(shapes); ++b) {
    const double t0 = static_cast<double>(b);
    ReplayBarrier barrier;
    barrier.read_at = t0 + 1.0;
    barrier.logs.resize(4);
    const double tied = t0 + 0.5;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto count = static_cast<std::size_t>(
          weight[s] * static_cast<double>(shapes[b].records) + 0.5);
      std::vector<sim::OffloadRecord>& log = barrier.logs[s];
      for (std::size_t i = 0; i < count; ++i) {
        sim::OffloadRecord r;
        const double u = random::uniform(rng, 0.0, 1.0);
        switch (shapes[b].mode) {
          case 1:
            r.time = t0 + std::floor(u * 97.0) / 97.0;
            break;
          case 2:
            r.time = (u > 0.3 && u < 0.7) ? tied : t0 + u;
            break;
          case 4:
            r.time = t0 - 0.5 + 1.5 * u;
            break;
          default:
            r.time = t0 + u;
        }
        do {
          r.device = static_cast<std::uint32_t>(
              lo[s] + random::uniform(rng, 0.0, 1.0) * (hi[s] - lo[s]));
        } while (shapes[b].mode == 3 && r.device % 3 == 2 &&
                 r.time > t0 + 0.2);
        r.cluster = static_cast<std::uint16_t>(r.device % 3);
        r.latency = random::uniform(rng, 0.05, 0.6);
        r.measured = random::uniform(rng, 0.0, 1.0) < 0.8;
        r.penalized = random::uniform(rng, 0.0, 1.0) < 0.2;
        r.penalty = r.penalized ? 0.4 : 0.0;
        log.push_back(r);
      }
      std::stable_sort(log.begin(), log.end(),
                       [](const auto& a, const auto& b) {
                         return a.time < b.time;
                       });
    }
    barriers.push_back(std::move(barrier));
  }
  return barriers;
}

template <class Replay, class Consume>
ReplayOutcome drive_replay(Replay& replay,
                           const std::vector<ReplayBarrier>& barriers,
                           Consume consume) {
  ReplayOutcome out;
  out.delay_sums.assign(kBatteryDevices, 0.0);
  for (const ReplayBarrier& b : barriers) {
    std::vector<std::span<const sim::OffloadRecord>> views(b.logs.begin(),
                                                           b.logs.end());
    consume(replay, views, out.delay_sums.data(), out.delays);
    const auto gammas = replay.cluster_gammas(b.read_at);
    out.reads.insert(out.reads.end(), gammas.begin(), gammas.end());
    out.reads.push_back(replay.gamma_at(b.read_at));
    out.deliveries.push_back(replay.deliveries());
  }
  out.flip_trigger = replay.delivery_flip_trigger();
  return out;
}

TEST(GammaReplayPhases, PooledConsumeIsBitIdenticalToSerialMerge) {
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const sim::ClusterTopology topology = battery_topology();
  const std::vector<fault::ResolvedAction> actions = battery_actions();
  const std::vector<ReplayBarrier> barriers = battery_barriers();

  SerialReplay reference(delay, kBatteryTau, 0.3, kBatteryCapacity,
                         kBatteryWarmup, kBatteryEnd, kBatteryDevices, actions,
                         topology);
  const ReplayOutcome want = drive_replay(
      reference, barriers,
      [](SerialReplay& r, auto logs, double* sums, stats::LatencySketch& sk) {
        r.consume(logs, sums, sk);
      });
  // The battery must reach the cases it is named for.
  ASSERT_GT(want.deliveries.back(), 0u);
  ASSERT_TRUE(want.flip_trigger);
  ASSERT_GT(want.delays.count(), 0u);

  for (const std::size_t lanes : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("lanes = " + std::to_string(lanes));
    std::optional<parallel::ThreadPool> pool;
    if (lanes > 0) pool.emplace(lanes);
    sim::GammaReplay replay(delay, kBatteryTau, 0.3, kBatteryCapacity,
                            kBatteryWarmup, kBatteryEnd, kBatteryDevices,
                            actions, topology);
    const ReplayOutcome got = drive_replay(
        replay, barriers,
        [&](sim::GammaReplay& r, auto logs, double* sums,
            stats::LatencySketch& sk) {
          r.consume(logs, sums, sk, pool ? &*pool : nullptr);
        });
    ASSERT_EQ(got.reads.size(), want.reads.size());
    for (std::size_t i = 0; i < want.reads.size(); ++i)
      EXPECT_EQ(bits(got.reads[i]), bits(want.reads[i])) << "read " << i;
    EXPECT_EQ(got.deliveries, want.deliveries);
    EXPECT_EQ(got.flip_trigger, want.flip_trigger);
    for (std::uint32_t d = 0; d < kBatteryDevices; ++d)
      EXPECT_EQ(bits(got.delay_sums[d]), bits(want.delay_sums[d]))
          << "device " << d;
    EXPECT_EQ(got.delays.count(), want.delays.count());
    EXPECT_EQ(bits(got.delays.min()), bits(want.delays.min()));
    EXPECT_EQ(bits(got.delays.max()), bits(want.delays.max()));
    const auto got_bins = got.delays.bin_counts();
    const auto want_bins = want.delays.bin_counts();
    EXPECT_TRUE(std::equal(got_bins.begin(), got_bins.end(),
                           want_bins.begin(), want_bins.end()));
  }
}

// --- topology validation ----------------------------------------------------

TEST(TopologyValidation, MalformedTopologiesAreRejected) {
  const auto users = mixed_users(5);
  const auto expect_rejected = [&](sim::ClusterTopology t) {
    sim::SimulationOptions o;
    o.horizon = 10.0;
    o.topology = std::move(t);
    EXPECT_THROW(
        sim::MecSimulation(users, 8.0, core::make_reciprocal_delay(), o),
        ContractViolation);
  };
  {
    sim::ClusterTopology t;
    t.clusters = 0;
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {0.5};  // wrong arity
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {0.9, 0.3};  // does not sum to 1
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {1.2, -0.2};  // negative share
    expect_rejected(std::move(t));
  }
}

// Per-cluster fault targets referencing a cluster outside the topology are
// caught at construction, not silently dropped.
TEST(TopologyValidation, FaultClusterOutOfRangeIsRejected) {
  const auto users = mixed_users(5);
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(5.0, 0.5, /*cluster=*/3);
  sim::SimulationOptions o;
  o.horizon = 10.0;
  o.topology.clusters = 2;
  o.faults = schedule;
  EXPECT_THROW(
      sim::MecSimulation(users, 8.0, core::make_reciprocal_delay(), o),
      ContractViolation);
}

}  // namespace
