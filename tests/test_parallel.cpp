// The parallel layer's contract is determinism: the thread pool runs every
// index exactly once, the replication engine produces bit-identical
// aggregates for every thread count, and the pooled per-user sweeps match
// the serial ones bit for bit.
#include "mec/parallel/replication.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/parallel/shard_executor.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::parallel {
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

TEST(ThreadPool, ResolvesThreadCounts) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(5).thread_count(), 5u);
}

TEST(ReplicationOptions, DefaultThreadsSelectHardwareConcurrency) {
  // The documented default: threads = 0 defers to the hardware, exactly as
  // ThreadPool(0) does.  Pinned so the default cannot silently drift back
  // to single-threaded.
  const ReplicationOptions opt;
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_EQ(resolve_thread_count(opt.threads),
            ThreadPool(0).thread_count());
}

TEST(AutoShardCount, HeuristicTable) {
  struct Row {
    std::size_t n, hw, expected;
  };
  // Pinned table: small populations and single-core boxes stay serial; the
  // count is min(hw, n/5000) clamped to [1, 16] once sharding pays off.
  const Row rows[] = {
      {100, 8, 1},       // tiny population: barrier costs dominate
      {9999, 64, 1},     // just below the break-even floor
      {10000, 1, 1},     // single-core box: never shard
      {10000, 0, 1},     // hardware_concurrency() unknown (reports 0)
      {10000, 8, 2},     // 10^4 devices: 2 shards of 5000
      {40000, 8, 8},     // population-rich: limited by the core count
      {40000, 4, 4},     //
      {100000, 64, 16},  // clamped at the max (barrier is a full join)
      {1000000, 64, 16},
  };
  for (const Row& row : rows)
    EXPECT_EQ(auto_shard_count(row.n, row.hw), row.expected)
        << "n=" << row.n << " hw=" << row.hw;
}

TEST(ResolveShardCount, ExplicitRequestBeatsEnvBeatsAuto) {
  // CI runs this suite under MEC_SHARDS=4; restore whatever was there.
  const char* saved = std::getenv("MEC_SHARDS");
  const std::string restore = saved != nullptr ? saved : "";
  // An explicit request always wins, whatever the environment says.
  EXPECT_EQ(resolve_shard_count(3, 1000000), 3u);
  EXPECT_EQ(resolve_shard_count(1, 1000000), 1u);
  // 0 defers to MEC_SHARDS when set...
  ASSERT_EQ(setenv("MEC_SHARDS", "5", 1), 0);
  EXPECT_EQ(resolve_shard_count(0, 100), 5u);
  EXPECT_EQ(resolve_shard_count(7, 100), 7u);  // ...unless explicit
  // ...and to the autotune heuristic when unset.
  ASSERT_EQ(unsetenv("MEC_SHARDS"), 0);
  EXPECT_EQ(resolve_shard_count(0, 100), 1u);  // small n: serial either way
  if (!restore.empty()) {
    ASSERT_EQ(setenv("MEC_SHARDS", restore.c_str(), 1), 0);
  }
}

TEST(ResolveShardCount, RejectsMalformedEnvValues) {
  // A typo'd MEC_SHARDS used to be silently ignored (falling back to the
  // autotuner) — a forced-shard CI lane could quietly run serial.  Now it
  // fails fast with a message naming the variable and the accepted range.
  const char* saved = std::getenv("MEC_SHARDS");
  const std::string restore = saved != nullptr ? saved : "";
  const char* bad[] = {"banana", "", "4x", " 4", "0",  "-1",
                       "4097",   "1e3", "0x4", "99999999999999999999"};
  for (const char* value : bad) {
    ASSERT_EQ(setenv("MEC_SHARDS", value, 1), 0);
    try {
      (void)resolve_shard_count(0, 1000000);
      FAIL() << "MEC_SHARDS=\"" << value << "\" was accepted";
    } catch (const RuntimeError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("MEC_SHARDS"), std::string::npos) << message;
      EXPECT_NE(message.find("[1, 4096]"), std::string::npos) << message;
      EXPECT_NE(message.find(value), std::string::npos) << message;
    }
    // An explicit request never consults the environment, so a bad value
    // must not break callers that pass their own count.
    EXPECT_EQ(resolve_shard_count(3, 1000000), 3u);
  }
  // Boundary values of the documented range are accepted.
  ASSERT_EQ(setenv("MEC_SHARDS", "1", 1), 0);
  EXPECT_EQ(resolve_shard_count(0, 1000000), 1u);
  ASSERT_EQ(setenv("MEC_SHARDS", "4096", 1), 0);
  EXPECT_EQ(resolve_shard_count(0, 1000000), 4096u);
  if (restore.empty()) {
    ASSERT_EQ(unsetenv("MEC_SHARDS"), 0);
  } else {
    ASSERT_EQ(setenv("MEC_SHARDS", restore.c_str(), 1), 0);
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 7u}) {
    for (const std::size_t grain : {1u, 3u, 1000u}) {
      ThreadPool pool(threads);
      constexpr std::size_t n = 537;
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for_each(
          n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads
                                     << " grain=" << grain;
    }
  }
}

TEST(ThreadPool, IsReusableAcrossLoops) {
  ThreadPool pool(4);
  std::vector<double> out(100, 0.0);
  for (int round = 1; round <= 3; ++round)
    pool.parallel_for_each(out.size(), [&](std::size_t i) {
      out[i] += static_cast<double>(round);
    });
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(ThreadPool, HandlesEmptyRangeAndRejectsBadArguments) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_each(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_THROW(pool.parallel_for_each(1, [](std::size_t) {}, 0),
               ContractViolation);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for_each(64,
                               [](std::size_t i) {
                                 if (i == 13)
                                   throw std::runtime_error("boom");
                               }),
        std::runtime_error);
    // The pool must stay usable after a failed loop.
    std::atomic<int> sum{0};
    pool.parallel_for_each(10, [&](std::size_t) { sum.fetch_add(1); });
    EXPECT_EQ(sum.load(), 10);
  }
}

TEST(ReplicationSeed, MatchesTheDesUtilizationSourceIdiom) {
  EXPECT_EQ(replication_seed(7, 0), 7 + 0x9E3779B97F4A7C15ULL);
  EXPECT_EQ(replication_seed(7, 1), 7 + 2 * 0x9E3779B97F4A7C15ULL);
  EXPECT_NE(replication_seed(7, 0), replication_seed(8, 0));
}

sim::SimulationOptions short_options(std::uint64_t seed = 5) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = seed;
  o.fixed_gamma = 0.2;
  return o;
}

void expect_metric_eq(const MetricSummary& a, const MetricSummary& b) {
  ASSERT_EQ(a.samples.count(), b.samples.count());
  EXPECT_DOUBLE_EQ(a.samples.mean(), b.samples.mean());
  if (a.samples.count() >= 2) {
    EXPECT_DOUBLE_EQ(a.samples.stddev(), b.samples.stddev());
    EXPECT_DOUBLE_EQ(a.ci.half_width, b.ci.half_width);
  }
  EXPECT_DOUBLE_EQ(a.ci.mean, b.ci.mean);
}

TEST(RunReplications, AggregatesAreBitIdenticalAcrossThreadCounts) {
  const auto users = homogeneous(40, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  const auto delay = core::make_reciprocal_delay();

  ReplicationOptions opt;
  opt.replications = 8;
  opt.threads = 1;
  const ReplicationResult serial =
      run_replications(users, 10.0, delay, short_options(), xs, opt);
  for (const std::size_t threads : {2u, 8u}) {
    opt.threads = threads;
    const ReplicationResult parallel =
        run_replications(users, 10.0, delay, short_options(), xs, opt);
    ASSERT_EQ(parallel.replications, serial.replications);
    EXPECT_EQ(parallel.total_events, serial.total_events);
    expect_metric_eq(parallel.mean_cost, serial.mean_cost);
    expect_metric_eq(parallel.mean_queue_length, serial.mean_queue_length);
    expect_metric_eq(parallel.mean_offload_fraction,
                     serial.mean_offload_fraction);
    expect_metric_eq(parallel.measured_utilization,
                     serial.measured_utilization);
    expect_metric_eq(parallel.mean_local_sojourn, serial.mean_local_sojourn);
    expect_metric_eq(parallel.mean_offload_delay, serial.mean_offload_delay);
  }
}

TEST(RunReplications, EachReplicationIsTheSeedDerivedSingleRun) {
  const auto users = homogeneous(25, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  const auto delay = core::make_reciprocal_delay();

  ReplicationOptions opt;
  opt.replications = 3;
  opt.threads = 2;
  opt.keep_runs = true;
  const ReplicationResult r =
      run_replications(users, 10.0, delay, short_options(11), xs, opt);
  ASSERT_EQ(r.runs.size(), 3u);
  for (std::size_t rep = 0; rep < 3; ++rep) {
    sim::SimulationOptions o = short_options(11);
    o.seed = replication_seed(11, rep);
    const sim::MecSimulation single(users, 10.0, delay, o);
    const sim::SimulationResult expected = single.run_tro(xs);
    EXPECT_EQ(r.runs[rep].total_events, expected.total_events);
    EXPECT_DOUBLE_EQ(r.runs[rep].mean_cost, expected.mean_cost);
    EXPECT_DOUBLE_EQ(r.runs[rep].measured_utilization,
                     expected.measured_utilization);
  }
  // Different seeds => genuinely different replications.
  EXPECT_NE(r.runs[0].total_events, r.runs[1].total_events);
}

TEST(RunReplications, ConfidenceIntervalIsSaneAndTightensTheEstimate) {
  const auto users = homogeneous(50, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  const auto delay = core::make_reciprocal_delay();

  ReplicationOptions opt;
  opt.replications = 10;
  opt.threads = 4;
  opt.confidence = 0.98;
  const ReplicationResult r =
      run_replications(users, 10.0, delay, short_options(), xs, opt);
  EXPECT_EQ(r.mean_cost.samples.count(), 10u);
  EXPECT_GT(r.mean_cost.ci.half_width, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_cost.ci.confidence, 0.98);
  EXPECT_TRUE(r.mean_cost.ci.contains(r.mean_cost.mean()));
  // The replicated mean must agree with theory about as well as any single
  // run does: per-device alpha for threshold 2 at theta = 0.75.
  EXPECT_NEAR(r.measured_utilization.mean(),
              core::utilization_of_thresholds(users, xs, 10.0), 0.02);
  const std::string text = summarize(r);
  EXPECT_NE(text.find("replications: 10"), std::string::npos);
  EXPECT_NE(text.find("mean cost"), std::string::npos);
}

TEST(RunReplications, SingleReplicationHasDegenerateInterval) {
  const auto users = homogeneous(10, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  ReplicationOptions opt;
  opt.replications = 1;
  const ReplicationResult r = run_replications(
      users, 10.0, core::make_reciprocal_delay(), short_options(), xs, opt);
  EXPECT_EQ(r.mean_cost.samples.count(), 1u);
  // One replication cannot estimate a dispersion: the half-width is NaN
  // ("not available"), never a fabricated 0 that would claim certainty.
  EXPECT_TRUE(std::isnan(r.mean_cost.ci.half_width));
  const std::string text = summarize(r);
  EXPECT_NE(text.find("n/a"), std::string::npos);
}

TEST(RunReplications, RejectsInvalidConfigurations) {
  const auto users = homogeneous(5, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  const auto delay = core::make_reciprocal_delay();
  ReplicationOptions opt;
  opt.replications = 0;
  EXPECT_THROW(
      run_replications(users, 10.0, delay, short_options(), xs, opt),
      ContractViolation);
  opt.replications = 2;
  sim::SimulationOptions with_epoch = short_options();
  with_epoch.epoch_period = 1.0;
  with_epoch.on_epoch = [](double, double) {};
  EXPECT_THROW(run_replications(users, 10.0, delay, with_epoch, xs, opt),
               ContractViolation);
  const std::vector<double> wrong(2, 1.0);
  EXPECT_THROW(
      run_replications(users, 10.0, delay, short_options(), wrong, opt),
      ContractViolation);
}

TEST(RunReplications, AcceptsAnExternalPool) {
  const auto users = homogeneous(20, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  const auto delay = core::make_reciprocal_delay();
  ThreadPool pool(3);
  ReplicationOptions opt;
  opt.replications = 4;
  const ReplicationResult internal =
      run_replications(users, 10.0, delay, short_options(), xs, opt);
  const ReplicationResult external =
      run_replications(users, 10.0, delay, short_options(), xs, opt, &pool);
  EXPECT_EQ(external.total_events, internal.total_events);
  EXPECT_DOUBLE_EQ(external.mean_cost.mean(), internal.mean_cost.mean());
}

TEST(ParallelBestResponse, BitIdenticalToSerialAcrossThreadCounts) {
  const auto cfg = population::theoretical_scenario(
      population::LoadRegime::kAtService, 3000);
  const auto pop = population::sample_population(cfg, 17);
  for (const double gamma : {0.0, 0.21, 0.9}) {
    const core::BestResponse serial =
        core::best_response(pop.users, cfg.delay, cfg.capacity, gamma);
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      const core::BestResponse parallel = core::best_response(
          pop.users, cfg.delay, cfg.capacity, gamma, pool);
      ASSERT_EQ(parallel.thresholds, serial.thresholds) << "gamma=" << gamma;
      EXPECT_DOUBLE_EQ(parallel.utilization, serial.utilization)
          << "gamma=" << gamma;
    }
  }
}

TEST(ParallelUtilizationOfThresholds, BitIdenticalToSerial) {
  const auto cfg = population::theoretical_scenario(
      population::LoadRegime::kAboveService, 2000);
  const auto pop = population::sample_population(cfg, 19);
  std::vector<double> xs(pop.size());
  for (std::size_t n = 0; n < xs.size(); ++n)
    xs[n] = static_cast<double>(n % 7);
  const double serial =
      core::utilization_of_thresholds(pop.users, xs, cfg.capacity);
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_DOUBLE_EQ(
        core::utilization_of_thresholds(pop.users, xs, cfg.capacity, pool),
        serial);
  }
}

TEST(DesUtilizationSource, IsReproducibleAcrossConstructions) {
  // Two sources with identical options must yield the same utilization
  // sequence call by call (the per-call decorrelation is deterministic).
  const auto users = homogeneous(60, 1.5, 2.0);
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 23;
  const std::vector<double> xs(users.size(), 1.0);
  sim::DesUtilizationSource a(users, 10.0, core::make_reciprocal_delay(), o);
  sim::DesUtilizationSource b(users, 10.0, core::make_reciprocal_delay(), o);
  const double a1 = a.utilization(xs);
  const double a2 = a.utilization(xs);
  EXPECT_DOUBLE_EQ(a1, b.utilization(xs));
  EXPECT_DOUBLE_EQ(a2, b.utilization(xs));
  EXPECT_NE(a1, a2);  // successive calls are decorrelated on purpose
  EXPECT_EQ(a.last_result().total_events, b.last_result().total_events);
}

}  // namespace
}  // namespace mec::parallel
