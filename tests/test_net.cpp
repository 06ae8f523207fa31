// TCP transport + worker daemon tests (src/mec/net/).
//
// Determinism contract #8 extends to machine boundaries: the first half
// proves byte-identical results and streamed .meclog files between inproc
// and TCP ranks served by real WorkerDaemon instances on loopback, at
// several worker counts and on the hard coupling paths (faults + churn
// across clusters, closed-loop DTU).  Daemons run on ephemeral ports inside
// this process for the equivalence tests, and in forked child processes for
// the robustness tests (the crash hook hard-exits whoever hosts the rank,
// which must be a sacrificial process, not this test binary).
//
// The second half exercises the refusal paths: schema-revision mismatches
// in both directions (each error names both revisions), garbage bytes on
// connect (the daemon survives), duplicate worker addresses (named ranks),
// and a killed or stalled daemon mid-run, which must fail the run with a
// diagnostic naming the rank, the peer address, and the last completed
// barrier — never hang.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/net/address.hpp"
#include "mec/net/protocol.hpp"
#include "mec/net/socket.hpp"
#include "mec/net/tcp_transport.hpp"
#include "mec/net/worker.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policies.hpp"

namespace mec {
namespace {

namespace pwire = parallel::wire;

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
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].arrivals, b.devices[i].arrivals) << "device " << i;
    EXPECT_EQ(a.devices[i].offloaded, b.devices[i].offloaded)
        << "device " << i;
    EXPECT_EQ(a.devices[i].empirical_cost, b.devices[i].empirical_cost)
        << "device " << i;
  }
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.churn_joined, b.faults.churn_joined);
  EXPECT_EQ(a.faults.churn_departed, b.faults.churn_departed);
}

/// N quiet daemons on ephemeral loopback ports, each served from its own
/// thread inside this process.  The destructor pokes every accept loop via
/// shutdown(), so a failing test cannot strand a serve() thread.
class DaemonFleet {
 public:
  explicit DaemonFleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      net::WorkerDaemon::Options o;
      o.listen = net::Address{"127.0.0.1", 0};
      o.quiet = true;
      daemons_.push_back(std::make_unique<net::WorkerDaemon>(o));
      addresses_.push_back("127.0.0.1:" +
                           std::to_string(daemons_.back()->port()));
    }
    for (const auto& d : daemons_)
      threads_.emplace_back([daemon = d.get()] { daemon->serve(); });
  }
  ~DaemonFleet() {
    for (const auto& d : daemons_) d->shutdown();
    for (std::thread& t : threads_) t.join();
  }
  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons_;
  std::vector<std::thread> threads_;
  std::vector<std::string> addresses_;
};

// --- address parsing -------------------------------------------------------

TEST(NetAddress, ParsesHostAndPort) {
  const net::Address a = net::parse_address("127.0.0.1:8080");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  EXPECT_EQ(a.str(), "127.0.0.1:8080");
}

TEST(NetAddress, RejectsMalformedSpecs) {
  for (const char* bad : {"nocolon", ":1234", "host:", "host:0", "host:abc",
                          "host:12x", "host:65536", "host:-1"})
    EXPECT_THROW(net::parse_address(bad), RuntimeError) << bad;
  // Port 0 is only an error when ephemeral binds make no sense.
  EXPECT_EQ(net::parse_address("host:0", /*allow_port_zero=*/true).port, 0);
}

TEST(NetAddress, WorkerListRejectsDuplicatesNamingBothRanks) {
  try {
    net::parse_worker_list("10.0.0.1:7000,10.0.0.2:7000,10.0.0.1:7000");
    FAIL() << "duplicate worker addresses must be rejected";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("10.0.0.1:7000"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
  EXPECT_THROW(net::parse_worker_list(""), RuntimeError);
  EXPECT_THROW(net::parse_worker_list("a:1,,b:2"), RuntimeError);
}

// --- byte-equality across the TCP boundary ---------------------------------

sim::SimulationOptions faulted_cluster_options() {
  sim::SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 40.0;
  o.seed = 2024;
  o.utilization_ewma_tau = 8.0;
  o.initial_gamma = 0.2;
  o.sample_interval = 4.0;
  o.topology.clusters = 2;
  return o;
}

std::shared_ptr<fault::FaultSchedule> faulted_cluster_schedule() {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(10.0, 0.5, 1);
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
  return schedule;
}

TEST(TcpTransportEquivalence, FaultsAndChurnAcrossClustersMatchInProcess) {
  const auto users = mixed_users(41);
  sim::SimulationOptions options = faulted_cluster_options();
  options.faults = faulted_cluster_schedule();
  options.shards = 4;
  options.transport = sim::TransportKind::kInProcess;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(),
                               options);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));
  for (const std::size_t w : {1u, 2u, 4u}) {
    DaemonFleet fleet(w);
    options.transport = sim::TransportKind::kTcp;
    options.worker_addresses = fleet.addresses();
    sim::MecSimulation remote(users, 8.0, core::make_reciprocal_delay(),
                              options);
    const sim::SimulationResult r =
        remote.run_tro(mixed_thresholds(remote.total_devices()));
    SCOPED_TRACE("workers = " + std::to_string(w));
    expect_result_identical(base, r);
  }
}

TEST(TcpTransportEquivalence, ClosedLoopDtuCrossesTheMachineBoundary) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 80.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.shards = 4;
  opt.transport = sim::TransportKind::kInProcess;
  const sim::ClosedLoopResult base =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  DaemonFleet fleet(2);
  opt.transport = sim::TransportKind::kTcp;
  opt.worker_addresses = fleet.addresses();
  const sim::ClosedLoopResult r =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  EXPECT_EQ(base.final_gamma_hat, r.final_gamma_hat);
  EXPECT_EQ(base.estimate_settled, r.estimate_settled);
  ASSERT_EQ(base.thresholds.size(), r.thresholds.size());
  for (std::size_t i = 0; i < base.thresholds.size(); ++i)
    EXPECT_EQ(base.thresholds[i], r.thresholds[i]) << "device " << i;
  ASSERT_EQ(base.epochs.size(), r.epochs.size());
  for (std::size_t i = 0; i < base.epochs.size(); ++i)
    EXPECT_EQ(base.epochs[i].gamma_hat, r.epochs[i].gamma_hat)
        << "epoch " << i;
  expect_result_identical(base.run, r.run);
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

TEST(TcpTransportEquivalence, StreamedLogsAreByteIdentical) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o = faulted_cluster_options();
  o.seed = 7;
  o.sample_interval = 2.0;
  o.shards = 4;
  o.stream_counters = false;  // counter frames carry wall-clock values

  const std::string in_path = test_scoped_path("inproc.meclog");
  const std::string tcp_path = test_scoped_path("tcp.meclog");
  o.transport = sim::TransportKind::kInProcess;
  o.stream_log = in_path;
  sim::MecSimulation a(users, 8.0, core::make_reciprocal_delay(), o);
  a.run_tro(mixed_thresholds(a.total_devices()));

  DaemonFleet fleet(2);
  o.transport = sim::TransportKind::kTcp;
  o.worker_addresses = fleet.addresses();
  o.stream_log = tcp_path;
  sim::MecSimulation b(users, 8.0, core::make_reciprocal_delay(), o);
  b.run_tro(mixed_thresholds(b.total_devices()));

  const std::vector<char> in_bytes = slurp(in_path);
  const std::vector<char> tcp_bytes = slurp(tcp_path);
  ASSERT_FALSE(in_bytes.empty());
  EXPECT_EQ(in_bytes, tcp_bytes);
  std::filesystem::remove(in_path);
  std::filesystem::remove(tcp_path);
}

TEST(TcpTransportEquivalence, OneDaemonServesManyRunsBackToBack) {
  const auto users = mixed_users(17);
  sim::SimulationOptions o;
  o.warmup = 1.0;
  o.horizon = 15.0;
  o.seed = 11;
  o.fixed_gamma = 0.25;
  o.shards = 2;
  o.transport = sim::TransportKind::kInProcess;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));

  DaemonFleet fleet(1);
  o.transport = sim::TransportKind::kTcp;
  o.worker_addresses = fleet.addresses();
  sim::MecSimulation remote(users, 8.0, core::make_reciprocal_delay(), o);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    expect_result_identical(
        base, remote.run_tro(mixed_thresholds(remote.total_devices())));
  }
}

// --- refusal paths ---------------------------------------------------------

sim::SimulationOptions tcp_run_options(
    const std::vector<std::string>& addresses) {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 30.0;
  o.seed = 5;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.0;  // plenty of barriers for the hooks to hit
  o.shards = 4;
  o.transport = sim::TransportKind::kTcp;
  o.worker_addresses = addresses;
  return o;
}

void expect_tiny_tcp_run_succeeds(const std::vector<std::string>& addresses) {
  const auto users = mixed_users(9);
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 5.0;
  o.seed = 3;
  o.fixed_gamma = 0.25;
  o.shards = 1;
  o.transport = sim::TransportKind::kTcp;
  o.worker_addresses = addresses;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r =
      des.run_tro(mixed_thresholds(des.total_devices()));
  EXPECT_GT(r.total_events, 0u);
}

TEST(TcpTransportHandshake, WorkerRejectsACoordinatorRevisionMismatch) {
  DaemonFleet fleet(1);
  const net::Address addr = net::parse_address(fleet.addresses()[0]);
  net::ScopedFd fd = net::connect_with_backoff(addr, 2000);
  net::wire::Hello hello;
  hello.revision = 99;
  hello.ranks = 1;
  pwire::write_frame(fd.get(), pwire::kFrameHello,
                     net::wire::encode_hello(hello));
  // The daemon answers with an error frame naming both revisions, then
  // closes this connection and survives to serve a real run.
  const pwire::DecodedFrame reply = pwire::read_frame_deadline(fd.get(), 5000);
  ASSERT_EQ(reply.kind, pwire::kFrameError);
  obs::wire::ByteReader r(reply.payload);
  const std::string what = r.get_string(r.get_u32());
  EXPECT_NE(what.find("revision 99"), std::string::npos) << what;
  EXPECT_NE(what.find("revision 2"), std::string::npos) << what;
  fd.reset();
  expect_tiny_tcp_run_succeeds(fleet.addresses());
}

TEST(TcpTransportHandshake, CoordinatorRejectsAWorkerRevisionMismatch) {
  // A fake "newer worker": accepts one connection, answers the hello with
  // an ack carrying revision 99.  The coordinator must refuse, naming both
  // revisions and the peer address.
  net::ScopedFd listener = net::listen_on(net::Address{"127.0.0.1", 0});
  const std::uint16_t port = net::bound_port(listener.get());
  std::thread fake([&listener] {
    net::ScopedFd conn = net::accept_connection(listener.get());
    const pwire::DecodedFrame frame =
        pwire::read_frame_deadline(conn.get(), 5000);
    const net::wire::Hello hello = net::wire::decode_hello(frame.payload);
    net::wire::HelloAck ack;
    ack.revision = 99;
    ack.rank = hello.rank;
    pwire::write_frame(conn.get(), pwire::kFrameHelloAck,
                       net::wire::encode_hello_ack(ack));
  });
  net::TcpTransport::Config cfg;
  cfg.workers = {net::Address{"127.0.0.1", port}};
  cfg.shard_count = 1;
  cfg.n_devices = 1;
  cfg.connect_timeout_ms = 2000;
  const std::vector<std::vector<std::uint8_t>> populations(1);
  const std::vector<double> thresholds(1, 1.0);
  try {
    net::TcpTransport transport(cfg, populations, thresholds);
    FAIL() << "a worker revision mismatch must be refused";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this coordinator speaks revision 2"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("answered revision 99"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1:"), std::string::npos) << what;
  }
  fake.join();
}

TEST(TcpTransportHandshake, GarbageBytesOnConnectAreRejectedAndSurvived) {
  DaemonFleet fleet(1);
  const net::Address addr = net::parse_address(fleet.addresses()[0]);
  {
    net::ScopedFd fd = net::connect_with_backoff(addr, 2000);
    const std::string junk = "GET / HTTP/1.1\r\nHost: not-a-mec-peer\r\n\r\n";
    ASSERT_EQ(::write(fd.get(), junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    // The daemon kills this connection at the envelope decode (absurd
    // length / CRC); it must not crash, hang, or poison the next run.
  }
  expect_tiny_tcp_run_succeeds(fleet.addresses());
}

TEST(TcpTransportHandshake, DuplicateWorkerAddressIsRejectedUpFront) {
  DaemonFleet fleet(1);
  const auto users = mixed_users(9);
  sim::SimulationOptions o = tcp_run_options(
      {fleet.addresses()[0], fleet.addresses()[0]});
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "a duplicated worker address must be rejected";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("listed twice"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

TEST(TcpTransportHandshake, MoreWorkersThanShardsIsRejectedUpFront) {
  const auto users = mixed_users(9);
  sim::SimulationOptions o = tcp_run_options(
      {"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4",
       "127.0.0.1:5"});
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "more workers than shards must be rejected before connecting";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 workers"), std::string::npos) << what;
    EXPECT_NE(what.find("4 shards"), std::string::npos) << what;
  }
}

// --- killed / stalled daemons ----------------------------------------------

/// Forks a child process that serves `daemon` (already bound in the parent,
/// so the port is known) with the given robustness hook set.  The crash
/// hook hard-exits the child, which is the point: the sacrificial process
/// stands in for a machine that dies mid-run.
pid_t fork_daemon(net::WorkerDaemon& daemon, const char* hook_name,
                  const char* hook_value, const char* hook_barrier_name,
                  const char* hook_barrier_value) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (hook_name != nullptr) {
      ::setenv(hook_name, hook_value, 1);
      ::setenv(hook_barrier_name, hook_barrier_value, 1);
    }
    int status = 1;
    try {
      status = daemon.serve();
    } catch (...) {
    }
    ::_exit(status);
  }
  return pid;
}

void reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

TEST(TcpTransportRobustness, KilledWorkerFailsWithRankAddressAndBarrier) {
  net::WorkerDaemon::Options o;
  o.listen = net::Address{"127.0.0.1", 0};
  o.quiet = true;
  net::WorkerDaemon d0(o), d1(o);
  const std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(d0.port()),
      "127.0.0.1:" + std::to_string(d1.port())};
  const pid_t pid0 = fork_daemon(d0, nullptr, nullptr, nullptr, nullptr);
  // Rank 1 _exit(17)s after its third advance: the TCP peer just vanishes.
  const pid_t pid1 =
      fork_daemon(d1, "MEC_TEST_WORKER_CRASH_RANK", "1",
                  "MEC_TEST_WORKER_CRASH_BARRIER", "3");
  const auto users = mixed_users(41);
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                         tcp_run_options(addresses));
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "a killed daemon must fail the run, not hang it";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tcp transport worker rank 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("127.0.0.1:"), std::string::npos) << what;
    EXPECT_NE(what.find("closed the connection"), std::string::npos) << what;
    EXPECT_NE(what.find("last completed barrier #2"), std::string::npos)
        << what;
    EXPECT_NE(what.find("pending frame: barrier payload"), std::string::npos)
        << what;
  }
  reap(pid0);
  reap(pid1);
}

TEST(TcpTransportRobustness, StalledWorkerFailsInsteadOfHanging) {
  ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "500");
  net::WorkerDaemon::Options o;
  o.listen = net::Address{"127.0.0.1", 0};
  o.quiet = true;
  net::WorkerDaemon d0(o), d1(o);
  const std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(d0.port()),
      "127.0.0.1:" + std::to_string(d1.port())};
  // Rank 0 stops heartbeating after its second advance but keeps the
  // connection open: only the read deadline can unstick the coordinator.
  const pid_t pid0 =
      fork_daemon(d0, "MEC_TEST_WORKER_STALL_RANK", "0",
                  "MEC_TEST_WORKER_STALL_BARRIER", "2");
  const pid_t pid1 = fork_daemon(d1, nullptr, nullptr, nullptr, nullptr);
  const auto users = mixed_users(41);
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                         tcp_run_options(addresses));
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "a stalled daemon must fail the run within the timeout";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tcp transport worker rank 0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("stopped responding"), std::string::npos) << what;
    EXPECT_NE(what.find("last completed barrier #1"), std::string::npos)
        << what;
  }
  reap(pid0);
  reap(pid1);
}

TEST(TcpTransportRobustness, UnreachableWorkerFailsWithAddress) {
  // Nothing listens here: connect must give up within the budget and name
  // the address instead of retrying forever.
  ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "400");
  const auto users = mixed_users(9);
  sim::SimulationOptions o = tcp_run_options({"127.0.0.1:9"});
  o.shards = 1;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  try {
    des.run_tro(mixed_thresholds(des.total_devices()));
    FAIL() << "an unreachable daemon must fail the run";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("127.0.0.1:9"), std::string::npos) << what;
  }
}

TEST(TcpTransportRobustness, RejectsPoliciesWithoutTroThresholds) {
  const auto users = mixed_users(8);
  sim::SimulationOptions o = tcp_run_options({"127.0.0.1:9"});
  o.shards = 2;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  std::vector<std::unique_ptr<sim::OffloadPolicy>> policies;
  for (std::size_t i = 0; i < users.size(); ++i)
    policies.push_back(sim::make_dpo_policy(0.5));
  try {
    des.run(policies);
    FAIL() << "non-TRO policies must be rejected under transport=tcp";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("transport=tcp"), std::string::npos) << what;
    EXPECT_NE(what.find("machine boundary"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mec
