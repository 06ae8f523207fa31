// Cross-transport equivalence and process-backend robustness.
//
// Determinism contract #8 (docs/ARCHITECTURE.md): the transport choice can
// never change a single result byte.  The first half of this file proves it
// on every coupling path — fixed gamma, tracked gamma (EWMA replay), fault
// schedules with churn, multi-cluster topologies, and the closed-loop DTU
// whose epoch callbacks retune thresholds that must now cross a process
// boundary — comparing in-process results against forked-worker runs at
// several worker counts, including uneven shard slices.  Streamed .meclog
// files are compared byte for byte (with counter frames off: those carry
// wall-clock values and are the one deliberately nondeterministic frame).
//
// The second half exercises the failure modes: a worker that dies mid-run
// or stops responding must fail the run with a diagnostic naming the rank
// and its last completed barrier — never hang — a rank setup that fails
// partway leaves no forked rank behind, a rank that cannot build its slice
// is reported with its own message and exit status, the framed core names
// a peer's wrong or error frame and a broken pipe, and policies that
// cannot be mirrored into a worker process are rejected up front.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/net/protocol.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policies.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec {
namespace {

/// Sets an environment variable for the enclosing scope and restores the
/// prior state on exit, so a failing test cannot leak robustness hooks into
/// the rest of the suite.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* prev = std::getenv(name)) previous_ = prev;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_.has_value())
      ::setenv(name_, previous_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

std::vector<core::UserParams> mixed_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(4242);
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

void expect_sketch_equal(const stats::LatencySketch& a,
                         const stats::LatencySketch& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.25, 0.5, 0.95, 0.99})
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "quantile " << q;
}

void expect_result_identical(const sim::SimulationResult& a,
                             const sim::SimulationResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.mean_offload_fraction, b.mean_offload_fraction);
  ASSERT_EQ(a.cluster_utilization.size(), b.cluster_utilization.size());
  for (std::size_t i = 0; i < a.cluster_utilization.size(); ++i)
    EXPECT_EQ(a.cluster_utilization[i], b.cluster_utilization[i])
        << "cluster " << i;
  ASSERT_EQ(a.cluster_offloads.size(), b.cluster_offloads.size());
  for (std::size_t i = 0; i < a.cluster_offloads.size(); ++i)
    EXPECT_EQ(a.cluster_offloads[i], b.cluster_offloads[i]) << "cluster " << i;
  expect_sketch_equal(a.local_sojourn_percentiles, b.local_sojourn_percentiles);
  expect_sketch_equal(a.offload_delay_percentiles,
                      b.offload_delay_percentiles);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const sim::DeviceStats& x = a.devices[i];
    const sim::DeviceStats& y = b.devices[i];
    EXPECT_EQ(x.arrivals, y.arrivals) << "device " << i;
    EXPECT_EQ(x.offloaded, y.offloaded) << "device " << i;
    EXPECT_EQ(x.local_completed, y.local_completed) << "device " << i;
    EXPECT_EQ(x.mean_queue_length, y.mean_queue_length) << "device " << i;
    EXPECT_EQ(x.mean_local_sojourn, y.mean_local_sojourn) << "device " << i;
    EXPECT_EQ(x.mean_offload_delay, y.mean_offload_delay) << "device " << i;
    EXPECT_EQ(x.energy_per_task, y.energy_per_task) << "device " << i;
    EXPECT_EQ(x.empirical_cost, y.empirical_cost) << "device " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time) << "sample " << i;
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].mean_queue_length, b.timeline[i].mean_queue_length)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].offloads_so_far, b.timeline[i].offloads_so_far)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].active_devices, b.timeline[i].active_devices)
        << "sample " << i;
  }
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.offloads_rejected, b.faults.offloads_rejected);
  EXPECT_EQ(a.faults.offloads_penalized, b.faults.offloads_penalized);
  EXPECT_EQ(a.faults.churn_joined, b.faults.churn_joined);
  EXPECT_EQ(a.faults.churn_departed, b.faults.churn_departed);
}

/// Runs the scenario once in process (shards = 4) and once per worker count
/// through the forked backend, expecting bit-identical results.  Worker
/// count 3 gives rank slices {0}, {1}, {2,3}: the uneven-partition case.
void expect_transport_invariant(sim::SimulationOptions options,
                                const std::shared_ptr<const fault::FaultSchedule>&
                                    schedule = nullptr) {
  const auto users = mixed_users(41);
  options.faults = schedule;
  options.shards = 4;
  options.transport = sim::TransportKind::kInProcess;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(),
                               options);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));
  for (const std::size_t w : {1u, 2u, 3u, 4u}) {
    options.transport = sim::TransportKind::kProcess;
    options.workers = w;
    sim::MecSimulation forked(users, 8.0, core::make_reciprocal_delay(),
                              options);
    const sim::SimulationResult r =
        forked.run_tro(mixed_thresholds(forked.total_devices()));
    SCOPED_TRACE("workers = " + std::to_string(w));
    expect_result_identical(base, r);
  }
}

TEST(TransportEquivalence, FixedGammaWithSampling) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  expect_transport_invariant(o);
}

TEST(TransportEquivalence, TrackedGammaWithSampling) {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 50.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 3.0;
  expect_transport_invariant(o);
}

TEST(TransportEquivalence, NonExponentialSamplersCrossTheProcessBoundary) {
  // Ranks rebuild their samplers from the specs in their population frame;
  // every kind must draw exactly as the in-process run does.
  using Kind = sim::SamplerSpec::Kind;
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 40.0;
  o.seed = 4242;
  o.utilization_ewma_tau = 5.0;
  o.sample_interval = 4.0;
  o.service.kind = Kind::kEmpirical;
  o.service.data = {0.9, 0.1, 2.5, 0.33, 1.7};
  o.latency.kind = Kind::kEmpirical;
  o.latency.data = {0.4, 0.05, 1.1};
  expect_transport_invariant(o);
  o.service = {.kind = Kind::kHyperExponential, .param = 4.0, .data = {}};
  o.latency = {.kind = Kind::kDeterministic, .param = 0.0, .data = {}};
  expect_transport_invariant(o);
  o.service = {.kind = Kind::kErlang, .param = 3.0, .data = {}};
  expect_transport_invariant(o);
}

TEST(TransportEquivalence, FaultsAndChurnAcrossClusters) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(10.0, 0.5, 1);  // cluster 1 browns out
  schedule->add_capacity_scale(24.0, 1.0, 1);
  schedule->add_outage(12.0, 18.0, fault::OutageMode::kReject);
  schedule->add_outage(26.0, 32.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_crash(8.0, 3);
  schedule->add_restart(20.0, 3);
  schedule->add_user_departure(22.0, 0.37);
  core::UserParams joiner;
  joiner.arrival_rate = 1.5;
  joiner.service_rate = 3.0;
  joiner.offload_latency = 0.2;
  joiner.energy_local = 1.0;
  joiner.energy_offload = 0.5;
  schedule->add_user_arrival(15.0, joiner);

  sim::SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 40.0;
  o.seed = 2024;
  o.utilization_ewma_tau = 8.0;
  o.initial_gamma = 0.2;
  o.sample_interval = 4.0;
  o.topology.clusters = 2;
  expect_transport_invariant(o, schedule);
}

/// Runs the closed loop in process, then through the forked backend at
/// each worker count, expecting bit-identical loops and runs.
/// `in_process`, when given, receives the in-process result.
void expect_closed_loop_transport_invariant(
    const population::Population& pop, sim::ClosedLoopOptions opt,
    std::initializer_list<std::size_t> worker_counts,
    sim::ClosedLoopResult* in_process = nullptr) {
  opt.transport = sim::TransportKind::kInProcess;
  const sim::ClosedLoopResult base =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  if (in_process != nullptr) *in_process = base;
  for (const std::size_t w : worker_counts) {
    opt.transport = sim::TransportKind::kProcess;
    opt.workers = w;
    const sim::ClosedLoopResult r =
        run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
    SCOPED_TRACE("workers = " + std::to_string(w));
    EXPECT_EQ(base.final_gamma_hat, r.final_gamma_hat);
    EXPECT_EQ(base.estimate_settled, r.estimate_settled);
    ASSERT_EQ(base.thresholds.size(), r.thresholds.size());
    for (std::size_t i = 0; i < base.thresholds.size(); ++i)
      EXPECT_EQ(base.thresholds[i], r.thresholds[i]) << "device " << i;
    ASSERT_EQ(base.epochs.size(), r.epochs.size());
    for (std::size_t i = 0; i < base.epochs.size(); ++i) {
      EXPECT_EQ(base.epochs[i].gamma_measured, r.epochs[i].gamma_measured)
          << "epoch " << i;
      EXPECT_EQ(base.epochs[i].gamma_hat, r.epochs[i].gamma_hat)
          << "epoch " << i;
      EXPECT_EQ(base.epochs[i].mean_threshold, r.epochs[i].mean_threshold)
          << "epoch " << i;
    }
    expect_result_identical(base.run, r.run);
  }
}

TEST(TransportEquivalence, ClosedLoopDtuCrossesTheProcessBoundary) {
  // The closed loop is the hardest case for the process backend: every
  // epoch callback retunes MutableTroPolicy thresholds in the coordinator,
  // which must be re-mirrored into the workers before the next leg.
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 80.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.shards = 4;
  expect_closed_loop_transport_invariant(pop, opt, {2, 3});
}

TEST(TransportEquivalence, MultiSliceReplayCrossesTheProcessBoundary) {
  // Large enough that every epoch barrier replays several merge slices on
  // the coordinator's pool, in-process and over the forked ranks alike.
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       20000),
      17);
  sim::ClosedLoopOptions opt;
  opt.horizon = 20.0;
  opt.update_period = 5.0;
  opt.shards = 4;
  sim::ClosedLoopResult base;
  expect_closed_loop_transport_invariant(pop, opt, {2}, &base);
  // Offloads per epoch barrier (the measurement window is the horizon).
  std::uint64_t offloads = 0;
  for (const sim::DeviceStats& d : base.run.devices) offloads += d.offloaded;
  EXPECT_GT(static_cast<double>(offloads) * opt.update_period / opt.horizon,
            2.0 * static_cast<double>(sim::GammaReplay::kSliceRecords));
}

std::string test_scoped_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name() + "_" + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

TEST(TransportEquivalence, StreamedLogsAreByteIdentical) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 40.0;
  o.seed = 7;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 2.0;
  o.topology.clusters = 2;
  o.shards = 4;
  o.stream_counters = false;  // counter frames carry wall-clock values

  const std::string in_path = test_scoped_path("inproc.meclog");
  const std::string proc_path = test_scoped_path("process.meclog");
  o.transport = sim::TransportKind::kInProcess;
  o.stream_log = in_path;
  sim::MecSimulation a(users, 8.0, core::make_reciprocal_delay(), o);
  a.run_tro(mixed_thresholds(a.total_devices()));

  o.transport = sim::TransportKind::kProcess;
  o.workers = 2;
  o.stream_log = proc_path;
  sim::MecSimulation b(users, 8.0, core::make_reciprocal_delay(), o);
  b.run_tro(mixed_thresholds(b.total_devices()));

  const std::vector<char> in_bytes = slurp(in_path);
  const std::vector<char> proc_bytes = slurp(proc_path);
  ASSERT_FALSE(in_bytes.empty());
  EXPECT_EQ(in_bytes, proc_bytes);
  std::filesystem::remove(in_path);
  std::filesystem::remove(proc_path);
}

// --- robustness ------------------------------------------------------------

sim::SimulationOptions process_run_options() {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 30.0;
  o.seed = 5;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.0;  // plenty of barriers for the hooks to hit
  o.shards = 4;
  o.transport = sim::TransportKind::kProcess;
  o.workers = 2;
  return o;
}

TEST(ProcessTransportRobustness, WorkerCrashFailsWithRankAndBarrier) {
  ScopedEnv crash_rank("MEC_TEST_WORKER_CRASH_RANK", "1");
  ScopedEnv crash_barrier("MEC_TEST_WORKER_CRASH_BARRIER", "3");
  const auto users = mixed_users(41);
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                         process_run_options());
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "a crashed worker must fail the run";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("exit status 17"), std::string::npos) << what;
    EXPECT_NE(what.find("last completed barrier #2"), std::string::npos)
        << what;
    // The diagnostic names the frame the coordinator was still waiting for,
    // so a hung-vs-crashed worker is distinguishable from the message alone.
    EXPECT_NE(what.find("pending frame: barrier payload"), std::string::npos)
        << what;
  }
}

TEST(TransportTimeout, EnvOverrideIsValidatedLoudly) {
  // A malformed or out-of-range MEC_TRANSPORT_TIMEOUT_MS must throw naming
  // the variable and the accepted range — a typo'd deadline silently
  // falling back to 5 minutes would make stall tests pass vacuously.
  for (const char* bad : {"banana", "0", "-5", "1e3", "250ms", "86400001",
                          "999999999999999999999"}) {
    ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", bad);
    try {
      parallel::resolve_transport_timeout_ms();
      FAIL() << "value '" << bad << "' must be rejected";
    } catch (const RuntimeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MEC_TRANSPORT_TIMEOUT_MS"), std::string::npos)
          << what;
      EXPECT_NE(what.find("[1, 86400000]"), std::string::npos) << what;
    }
  }
}

TEST(TransportTimeout, EnvOverrideAndFallbackResolve) {
  {
    ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "250");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(), 250);
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(9000), 250);
  }
  {
    ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "86400000");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(),
              parallel::kMaxTransportTimeoutMs);
  }
  {
    // Unset and empty both mean "use the fallback", matching MEC_SHARDS.
    ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(1234), 1234);
  }
}

TEST(ProcessTransportRobustness, WorkerStallFailsInsteadOfHanging) {
  ScopedEnv stall_rank("MEC_TEST_WORKER_STALL_RANK", "0");
  ScopedEnv stall_barrier("MEC_TEST_WORKER_STALL_BARRIER", "2");
  ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "500");
  const auto users = mixed_users(41);
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                         process_run_options());
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "a stalled worker must fail the run within the timeout";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("stopped responding"), std::string::npos) << what;
    EXPECT_NE(what.find("last completed barrier #1"), std::string::npos)
        << what;
  }
}

TEST(ProcessTransportRobustness, FailedRankSetupReapsTheRanksAlreadyForked) {
  // Runs in a forked child so the lowered fd limit stays out of the rest of
  // the suite; the child reports through its exit code.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Leave room for exactly two more fds: rank 0's socketpair takes both,
    // the coordinator then closes the child's end, and rank 1's socketpair
    // finds one free fd where it needs two.
    const int a = ::open("/dev/null", O_RDONLY);
    const int b = ::open("/dev/null", O_RDONLY);
    ::close(a);
    ::close(b);
    rlimit limit{};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    limit.rlim_cur = static_cast<rlim_t>(b) + 1;
    if (a < 0 || b < 0 || ::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
    const std::vector<std::vector<std::uint8_t>> payloads(2);
    int code = 3;
    try {
      parallel::ProcessTransport transport(2, payloads, {});
    } catch (const RuntimeError&) {
      int status = 0;
      code = ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD ? 0 : 4;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "2: lowering the fd limit failed; 3: the constructor did not throw; "
         "4: rank 0's process was left unreaped";
}

/// A well-formed population frame addressed to rank 1 of 2: a rank 0 that
/// receives it fails its setup, naming both ranks.
std::vector<std::uint8_t> population_for_rank_one() {
  net::wire::WorkerPopulation pop;
  pop.rank = 1;
  pop.ranks = 2;
  pop.n_devices = 2;
  pop.n_initial = 2;
  pop.n_clusters = 1;
  pop.shard_count = 2;
  pop.shard_lo = 1;
  pop.shard_hi = 2;
  pop.device_lo = 1;
  pop.device_hi = 2;
  pop.t_end = 1.0;
  pop.users.resize(1);
  return net::wire::encode_population(pop);
}

/// Starts a 1-rank process transport whose rank fails to build its slice
/// (it sends an error frame, then exits 1); returns the coordinator's error.
std::string failed_rank_setup() {
  const std::vector<std::vector<std::uint8_t>> payloads{
      population_for_rank_one()};
  try {
    parallel::ProcessTransport transport(2, payloads,
                                         std::vector<double>(2, 0.0));
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "no failure";
}

TEST(ProcessTransportRobustness, RankSetupFailureReportsTheRanksOwnMessage) {
  for (int i = 0; i < 20; ++i) {
    const std::string what = failed_rank_setup();
    EXPECT_NE(what.find("transport worker rank 0 "), std::string::npos)
        << what;
    EXPECT_NE(what.find("failed: population frame is for rank 1 but this is "
                        "rank 0"),
              std::string::npos)
        << what;
  }
}

TEST(ProcessTransportRobustness, ExitingRankIsDescribedByItsExitStatus) {
  // The rank exits on its own right after its error frame; the diagnostic
  // must wait for that exit instead of SIGKILLing a rank already leaving.
  for (int i = 0; i < 20; ++i) {
    const std::string what = failed_rank_setup();
    EXPECT_NE(what.find("rank 0 (exit status 1)"), std::string::npos) << what;
  }
}

TEST(ChildProcess, ReapWaitsOutAnExitingChildBeforeKilling) {
  // A child 50 ms from its own exit keeps its exit status under a 1 s
  // grace; one that never exits is SIGKILLed once the grace runs out.
  const pid_t exiting = ::fork();
  ASSERT_GE(exiting, 0);
  if (exiting == 0) {
    ::usleep(50'000);
    ::_exit(1);
  }
  const std::optional<int> status =
      parallel::ChildProcess(exiting).reap(/*kill=*/true, 1000);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 1) << *status;

  const pid_t stuck = ::fork();
  ASSERT_GE(stuck, 0);
  if (stuck == 0)
    for (;;) ::pause();
  const std::optional<int> killed =
      parallel::ChildProcess(stuck).reap(/*kill=*/true, 20);
  ASSERT_TRUE(killed.has_value());
  EXPECT_TRUE(WIFSIGNALED(*killed) && WTERMSIG(*killed) == SIGKILL)
      << *killed;
}

/// A FramedTransport whose one rank is the far end of a plain socketpair,
/// played by the test itself: no fork, no daemon.
class ScriptedPeerTransport final : public parallel::FramedTransport {
 public:
  explicit ScriptedPeerTransport(parallel::ScopedFd fd)
      : FramedTransport(1, 0, "scripted transport", "hung up") {
    peers_[0].fd = std::move(fd);
  }

 private:
  std::string describe_peer(std::size_t) override { return "(scripted)"; }
};

/// Queues `replies` on the peer end (small frames fit the socket buffer, so
/// they can go out before the advances that read them), then advances to
/// t = 2, 4, ... until the transport throws; returns the message.
std::string scripted_failure(
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        replies) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return "no socketpair";
  const parallel::ScopedFd peer(fds[1]);
  ScriptedPeerTransport transport{parallel::ScopedFd(fds[0])};
  for (const auto& [kind, payload] : replies)
    parallel::wire::write_frame(peer.get(), kind, payload);
  parallel::BarrierRequest req;
  try {
    for (std::size_t i = 0; i < replies.size(); ++i) {
      req.limit += 2.0;
      transport.advance(req);
    }
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "no failure";
}

TEST(FramedTransport, WrongFrameKindNamesBothKindsTheRankAndTheBarrier) {
  namespace pw = parallel::wire;
  const std::string what = scripted_failure(
      {{pw::kFrameBarrier, pw::encode_barrier_payload({}, false, 0.0, 0.0)},
       {pw::kFrameFinal, pw::encode_device_totals(0, 0, {})}});
  EXPECT_NE(what.find("scripted transport worker rank 0 (scripted)"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("sent final totals (kind 0x21) instead of barrier "
                      "payload (kind 0x20)"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("before the barrier at t=4"), std::string::npos) << what;
  EXPECT_NE(what.find("last completed barrier #1 (t=2"), std::string::npos)
      << what;
  EXPECT_NE(what.find("pending frame: barrier payload (kind 0x20)"),
            std::string::npos)
      << what;
}

TEST(FramedTransport, ErrorFrameTextReachesTheDiagnostic) {
  namespace pw = parallel::wire;
  const std::string what = scripted_failure(
      {{pw::kFrameError, pw::encode_error("shard 3 ran out of memory")}});
  EXPECT_NE(what.find("rank 0 (scripted) failed: shard 3 ran out of memory"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("last completed barrier #0"), std::string::npos)
      << what;
}

/// Lets the scripted peer leave `frames` behind and close its end, then
/// advances once: the advance frame's write hits a broken pipe.
std::string broken_pipe_failure(
    const std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>&
        frames) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return "no socketpair";
  ScriptedPeerTransport transport{parallel::ScopedFd(fds[0])};
  {
    const parallel::ScopedFd peer(fds[1]);
    for (const auto& [kind, payload] : frames)
      parallel::wire::write_frame(peer.get(), kind, payload);
  }
  parallel::BarrierRequest req;
  req.limit = 2.0;
  try {
    transport.advance(req);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "no failure";
}

TEST(FramedTransport, BrokenPipeReportsTheErrorFrameTheRankLeft) {
  namespace pw = parallel::wire;
  const std::string what = broken_pipe_failure(
      {{pw::kFrameError, pw::encode_error("rank build failed: no memory")}});
  EXPECT_NE(what.find("scripted transport worker rank 0 (scripted) failed: "
                      "rank build failed: no memory"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("before the barrier at t=2"), std::string::npos) << what;
}

TEST(FramedTransport, BrokenPipeWithoutAnErrorFrameNamesTheRank) {
  const std::string what = broken_pipe_failure({});
  EXPECT_NE(what.find("scripted transport worker rank 0 (scripted) hung up"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("last completed barrier #0"), std::string::npos)
      << what;
}

TEST(ProcessTransportRobustness, RejectsPoliciesWithoutTroThresholds) {
  // A DPO policy decides without a threshold; its state cannot be mirrored
  // into a worker process, so the run must be refused up front (before any
  // fork), not fail mid-run or silently diverge.
  const auto users = mixed_users(8);
  sim::SimulationOptions o;
  o.warmup = 1.0;
  o.horizon = 10.0;
  o.fixed_gamma = 0.25;
  o.shards = 2;
  o.transport = sim::TransportKind::kProcess;
  o.workers = 2;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  std::vector<std::unique_ptr<sim::OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(sim::make_dpo_policy(0.5));
  try {
    des.run(policies);
    FAIL() << "non-TRO policies must be rejected under transport=process";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport=process"), std::string::npos) << what;
    EXPECT_NE(what.find("TRO"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mec
