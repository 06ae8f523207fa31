// Differential battery for the cluster-aware policy families.
//
// Price-based offloading: on a 2-cluster symmetric scenario the dual ascent
// must drive every cluster's utilization to the target (the MFNE gamma*, the
// closed-form capacity-constrained equilibrium of the scenario) with
// near-equal prices — and the check is shown to be *sensitive*: freezing the
// ascent (price_step = 0) breaks convergence by a measurable margin.
//
// Minority-game activation: the standalone game reproduces the Challet-Zhang
// statistics (mean attendance ~ N/2, herding at small memory, deterministic
// trajectories), and the perturbation switch (scoring the majority instead)
// destroys the self-organization.  The simulator driver is pinned to the
// standalone engine: one epoch = one round, same seed, same trajectory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/mfne.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/minority_game.hpp"

namespace {

using namespace mec;

// --- price-based offloading -------------------------------------------------

struct PriceFixture {
  population::Population pop;
  core::MfneResult mfne;
};

PriceFixture price_fixture(std::size_t n = 60) {
  PriceFixture f{population::sample_population(
                     population::theoretical_scenario(
                         population::LoadRegime::kAtService, n),
                     7),
                 {}};
  f.mfne = core::solve_mfne(f.pop.users, f.pop.config.delay,
                            f.pop.config.capacity);
  return f;
}

sim::PriceBasedOptions price_options(const PriceFixture& f) {
  sim::PriceBasedOptions po;
  po.gamma_target = f.mfne.gamma_star;
  po.update_period = 5.0;
  po.warmup = 5.0;
  po.horizon = 150.0;
  po.seed = 11;
  po.topology.clusters = 2;
  po.record_timeline = false;
  return po;
}

/// Temp .meclog path namespaced by the running test, so parallel ctest
/// processes never collide.
std::string scoped_log_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (std::string("mec_") + info->test_suite_name() + "_" + info->name() +
           ".meclog"))
      .string();
}

/// Points `run` at a test-scoped stream log (5 s windows) with counter
/// frames and the in-memory timeline turned off.
void stream_without_counters(sim::RunOptions& run) {
  run.sample_interval = 5.0;
  run.stream_log = scoped_log_path();
  run.stream_counters = false;
  run.record_timeline = false;
}

/// The settings above reached the engine: the log has windows but no
/// counter frames, and no timeline was kept.
void expect_streamed_without_counters(const sim::RunOptions& run,
                                      const sim::SimulationResult& result) {
  EXPECT_TRUE(result.timeline.empty());
  const obs::LogScan scan = obs::scan_log(run.stream_log);
  EXPECT_TRUE(scan.complete()) << scan.error;
  EXPECT_FALSE(scan.windows.empty());
  EXPECT_TRUE(scan.counters.empty());
  std::filesystem::remove(run.stream_log);
}

/// Mean |gamma_k - target| over the last `tail` epochs, worst cluster.
double tail_deviation(const sim::PriceBasedResult& r, double target,
                      std::size_t tail) {
  const std::size_t epochs = r.gamma_epochs.size();
  const std::size_t first = epochs > tail ? epochs - tail : 0;
  const std::size_t clusters = r.final_prices.size();
  double worst = 0.0;
  for (std::size_t k = 0; k < clusters; ++k) {
    double acc = 0.0;
    for (std::size_t e = first; e < epochs; ++e)
      acc += std::abs(r.gamma_epochs[e][k] - target);
    worst = std::max(worst, acc / static_cast<double>(epochs - first));
  }
  return worst;
}

TEST(PriceBasedPolicy, ConvergesToEquilibriumOnSymmetricTwoClusters) {
  const PriceFixture f = price_fixture();
  sim::PriceBasedOptions po = price_options(f);
  stream_without_counters(po);
  const sim::PriceBasedResult r = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
  expect_streamed_without_counters(po, r.run);

  ASSERT_EQ(r.final_prices.size(), 2u);
  ASSERT_FALSE(r.gamma_epochs.empty());
  // Each cluster's utilization settles near the closed-form equilibrium.
  EXPECT_LT(tail_deviation(r, f.mfne.gamma_star, 6), 0.10);
  // The scenario is symmetric (equal shares, even/odd device split of one
  // homogeneous-regime population), so the two dual prices agree closely.
  EXPECT_LT(std::abs(r.final_prices[0] - r.final_prices[1]),
            0.25 * (1.0 + r.final_prices[0] + r.final_prices[1]));
  // Prices moved at all: the ascent engaged.
  EXPECT_GT(r.final_prices[0] + r.final_prices[1], 0.0);
  // The whole-run aggregate tracks the target too.
  EXPECT_NEAR(r.run.measured_utilization, f.mfne.gamma_star, 0.12);
}

// Sensitivity: with the ascent frozen the prices never leave zero and the
// un-priced thresholds over-offload, so the deviation from the equilibrium
// must be clearly larger than in the converged run.
TEST(PriceBasedPolicy, FrozenAscentFailsTheConvergenceCheck) {
  const PriceFixture f = price_fixture();
  sim::PriceBasedOptions po = price_options(f);
  const sim::PriceBasedResult good = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
  po.price_step = 0.0;  // intentional perturbation
  const sim::PriceBasedResult frozen = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);

  EXPECT_EQ(frozen.final_prices[0], 0.0);
  EXPECT_EQ(frozen.final_prices[1], 0.0);
  const double dev_good = tail_deviation(good, f.mfne.gamma_star, 6);
  const double dev_frozen = tail_deviation(frozen, f.mfne.gamma_star, 6);
  EXPECT_GT(dev_frozen, 2.0 * dev_good)
      << "good " << dev_good << " vs frozen " << dev_frozen;
}

// Prices and activation flags mutate only at epoch barriers, so the whole
// price-based run is bit-identical for every shard count.
TEST(PriceBasedPolicy, RunIsBitwiseInvariantAcrossShardCounts) {
  const PriceFixture f = price_fixture(41);
  sim::PriceBasedOptions po = price_options(f);
  po.horizon = 60.0;
  po.shards = 1;
  const sim::PriceBasedResult base = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
  for (const std::size_t k : {2u, 4u, 7u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    po.shards = k;
    const sim::PriceBasedResult r = sim::run_price_based(
        f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
    ASSERT_EQ(r.final_prices.size(), base.final_prices.size());
    for (std::size_t c = 0; c < base.final_prices.size(); ++c)
      EXPECT_EQ(r.final_prices[c], base.final_prices[c]) << "cluster " << c;
    EXPECT_EQ(r.run.measured_utilization, base.run.measured_utilization);
    EXPECT_EQ(r.run.mean_cost, base.run.mean_cost);
    ASSERT_EQ(r.run.cluster_utilization.size(),
              base.run.cluster_utilization.size());
    for (std::size_t c = 0; c < base.run.cluster_utilization.size(); ++c)
      EXPECT_EQ(r.run.cluster_utilization[c], base.run.cluster_utilization[c]);
  }
}

// --- minority game ----------------------------------------------------------

struct AttendanceStats {
  double mean = 0.0;
  double variance = 0.0;
  /// Mean |attendance - N/2|: small iff attendance concentrates at half.
  double half_deviation = 0.0;
};

AttendanceStats play(sim::MinorityGameConfig cfg, int rounds,
                     int warmup = 200) {
  sim::MinorityGame game(cfg);
  const double half = static_cast<double>(cfg.agents) / 2.0;
  for (int i = 0; i < warmup; ++i) (void)game.step();
  double sum = 0.0, sq = 0.0, dev = 0.0;
  for (int i = 0; i < rounds; ++i) {
    const double a = static_cast<double>(game.step());
    sum += a;
    sq += a * a;
    dev += std::abs(a - half);
  }
  const double n = static_cast<double>(rounds);
  AttendanceStats s;
  s.mean = sum / n;
  s.variance = sq / n - s.mean * s.mean;
  s.half_deviation = dev / n;
  return s;
}

TEST(MinorityGameEngine, AttendanceConcentratesAtHalfThePopulation) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.memory = 5;
  cfg.strategies = 2;
  cfg.seed = 3;
  const AttendanceStats s = play(cfg, 3000);
  // Challet-Zhang: mean attendance self-organizes to N/2 and the variance
  // stays at or below the random-choice level N/4.
  EXPECT_NEAR(s.mean, 50.5, 3.0);
  EXPECT_LT(s.variance, 0.3 * 101.0);
}

TEST(MinorityGameEngine, SmallMemoryHerdsHarderThanLargeMemory) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.strategies = 2;
  cfg.seed = 12;
  cfg.memory = 2;  // alpha = 2^m/N << alpha_c: crowded, strong herding
  const AttendanceStats crowded = play(cfg, 3000);
  cfg.memory = 8;  // alpha >> alpha_c: near random-agent behavior
  const AttendanceStats dilute = play(cfg, 3000);
  EXPECT_GT(crowded.variance, 2.0 * dilute.variance)
      << "crowded " << crowded.variance << " vs dilute " << dilute.variance;
}

// The differential perturbation: scoring the majority side as the winner
// flips the feedback positive and attendance stops concentrating at N/2 —
// the population herds to one extreme (frozen or flip-flopping together),
// so the mean deviation from half the population blows up.
TEST(MinorityGameEngine, InvertedScoringDestroysSelfOrganization) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.memory = 3;
  cfg.strategies = 2;
  cfg.seed = 5;
  const AttendanceStats minority = play(cfg, 3000);
  cfg.invert = true;
  const AttendanceStats majority = play(cfg, 3000);
  EXPECT_LT(minority.half_deviation, 10.0);
  EXPECT_GT(majority.half_deviation, 20.0)
      << "inverted scoring still concentrates at N/2";
  EXPECT_GT(majority.half_deviation, 2.5 * minority.half_deviation)
      << "minority " << minority.half_deviation << " vs majority "
      << majority.half_deviation;
}

TEST(MinorityGameEngine, TrajectoriesAreDeterministicPerSeed) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 7;
  cfg.memory = 3;
  cfg.seed = 2024;
  sim::MinorityGame a(cfg), b(cfg);
  cfg.seed = 2025;
  sim::MinorityGame c(cfg);
  bool seed_differs = false;
  for (int i = 0; i < 500; ++i) {
    const std::size_t sa = a.step();
    EXPECT_EQ(sa, b.step()) << "round " << i;
    EXPECT_EQ(a.actions(), b.actions()) << "round " << i;
    if (c.step() != sa) seed_differs = true;
  }
  EXPECT_TRUE(seed_differs) << "seed does not influence the trajectory";
}

// The simulator driver steps exactly one game round per epoch barrier with
// agents == clusters, so its attendance trajectory must replicate the
// standalone engine's under the same config.
TEST(MinorityGameDriver, EpochAttendanceMatchesStandaloneGame) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 40),
      19);
  const core::MfneResult mfne = core::solve_mfne(
      pop.users, pop.config.delay, pop.config.capacity);

  sim::MinorityGameRunOptions mo;
  mo.game.seed = 77;
  mo.game.memory = 3;
  mo.game.strategies = 2;
  mo.thresholds.assign(mfne.thresholds.begin(), mfne.thresholds.end());
  mo.update_period = 5.0;
  mo.warmup = 2.0;
  mo.horizon = 80.0;
  mo.seed = 77;
  mo.topology.clusters = 4;
  stream_without_counters(mo);
  const sim::MinorityGameRunResult r = sim::run_minority_game(
      pop.users, pop.config.capacity, pop.config.delay, mo);
  expect_streamed_without_counters(mo, r.run);

  ASSERT_FALSE(r.attendance.empty());
  sim::MinorityGameConfig ref_cfg = mo.game;
  ref_cfg.agents = mo.topology.clusters;
  sim::MinorityGame reference(ref_cfg);
  double acc = 0.0;
  for (std::size_t e = 0; e < r.attendance.size(); ++e) {
    EXPECT_EQ(r.attendance[e], reference.step()) << "epoch " << e;
    acc += static_cast<double>(r.attendance[e]);
  }
  EXPECT_NEAR(r.mean_attendance, acc / static_cast<double>(r.attendance.size()),
              1e-12);
  // Attendance stays inside the playable range and the run itself is sane.
  for (const std::size_t a : r.attendance) EXPECT_LE(a, 4u);
  EXPECT_GT(r.run.mean_cost, 0.0);
  ASSERT_EQ(r.run.cluster_utilization.size(), 4u);
}

/// Streams `run` to a test-scoped log over the process transport.
void use_process_transport(sim::RunOptions& run) {
  run.shards = 2;
  run.sample_interval = 5.0;
  run.stream_log = scoped_log_path();
  run.transport = sim::TransportKind::kProcess;
}

// Neither cluster driver runs behind a wire: the price driver refuses a
// wire transport at entry, and the minority game's gated policies fail the
// mirrored-threshold check.  Both throw before any rank is forked or the
// stream log is opened.
TEST(MinorityGameDriver, WireTransportsAreRejectedBeforeAnyRankStarts) {
  const PriceFixture f = price_fixture(20);
  sim::PriceBasedOptions po = price_options(f);
  use_process_transport(po);
  try {
    (void)sim::run_price_based(f.pop.users, f.pop.config.capacity,
                               f.pop.config.delay, po);
    ADD_FAILURE() << "the price driver accepted transport=process";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport must be kInProcess"), std::string::npos)
        << what;
  }
  EXPECT_FALSE(std::filesystem::exists(po.stream_log));

  sim::MinorityGameRunOptions mo;
  mo.thresholds.assign(f.mfne.thresholds.begin(), f.mfne.thresholds.end());
  mo.topology.clusters = 2;
  use_process_transport(mo);
  try {
    (void)sim::run_minority_game(f.pop.users, f.pop.config.capacity,
                                 f.pop.config.delay, mo);
    ADD_FAILURE() << "the minority driver accepted transport=process";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("requires per-device TRO thresholds"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(std::filesystem::exists(mo.stream_log));
}

}  // namespace
