// The sharded simulation engine: thin composition of the layer headers.
//
//   device model   (device_state.hpp)  per-device queues + accumulators
//   policy dispatch (policy_dispatch.hpp) sealed/virtual decision providers
//   edge coupling  (coupling.hpp)      EWMA gamma + g(gamma) replay
//   fault plan     (fault/fault_plan.hpp) resolved schedule + shard views
//   observers      (observer.hpp)      grid barriers + metrics sinks
//   leg runner     (leg_runner.hpp)    per-rank event loop + RankWorker
//   transport      (parallel/transport.hpp) rank <-> coordinator seam
//   coordinator    (coordinator.hpp)   serial barrier work + result assembly
//
// One run executes as alternating phases: parallel *legs*, where every
// rank advances its owned shards to the next observation-grid barrier,
// and serial *barrier work*, where the coordinator replays the merged
// offload log, records samples, and fires epoch callbacks (the closed
// loop retunes thresholds only here, so shard legs always see a frozen
// policy).  run_sharded only assembles the pieces: it prepares the
// workspace, picks the transport, and hands the rank fleet to
// coordinator_run.  Results are bit-identical for every shard count and
// every transport — including K = 1 in-process, which is the only serial
// path; there is no separate monolithic engine left to diverge from.  The
// golden-trace suite pins this equivalence against the pre-shard engine's
// exact output, and tests/test_transport.cpp pins in-process == process.
//
// This header is internal to mec_simulation.cpp: the templates here are
// instantiated once per (fault mode x decision provider) pair in that TU.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/net/address.hpp"
#include "mec/net/protocol.hpp"
#include "mec/net/tcp_transport.hpp"
#include "mec/parallel/shard_executor.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coordinator.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/device_state.hpp"
#include "mec/sim/leg_runner.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim {

struct SimWorkspace::Impl {
  std::vector<random::Xoshiro256> rngs;  ///< batched per-device streams
  std::vector<DeviceState> devices;
  std::vector<const double*> threshold_ptrs;  ///< scratch for TroPointerDecide
  std::vector<parallel::ShardContext> shards;
  std::unique_ptr<parallel::ThreadPool> pool;  ///< lazily built when K > 1

  /// Post-split per-device RNG snapshot, keyed by (seed, population size).
  /// A split() costs ~0.5us per device (one xoshiro long_jump, 256 engine
  /// steps); split_streams spreads that over cores, but restoring the
  /// snapshot is still a plain copy for repeated same-seed runs and
  /// bit-identical by construction.
  std::vector<random::Xoshiro256> rng_init;
  std::uint64_t rng_seed = 0;
  bool rng_cached = false;

  /// Sizes the global buffers for an n-device run and resets all run state
  /// while keeping every allocation.
  void prepare(std::size_t n) {
    rngs.resize(n);
    devices.resize(n);
    for (DeviceState& d : devices) d.reset_run();
  }
};

namespace engine {

/// The workspace pool, sized min(K, hardware threads), or null for K = 1
/// (a single-shard run spawns no threads, so replication and sweep callers
/// running many K = 1 runs side by side do not oversubscribe).  Shared by
/// the in-process legs and the coordinator's replay, which never overlap.
inline parallel::ThreadPool* workspace_pool(SimWorkspace::Impl& ws,
                                           std::size_t shard_count) {
  if (shard_count <= 1) return nullptr;
  const std::size_t lanes =
      std::min(shard_count, parallel::resolve_thread_count(0));
  if (!ws.pool || ws.pool->thread_count() != lanes)
    ws.pool = std::make_unique<parallel::ThreadPool>(lanes);
  return ws.pool.get();
}

/// The per-device TRO thresholds that ranks behind `transport` decide on
/// (as mirrored copies, refreshed by the post-epoch broadcast).  Checked
/// before any rank is set up: a device without one throws, naming the
/// `boundary` its virtual policy cannot cross.
template <class Decide>
std::vector<double> mirror_thresholds(const Decide& decide,
                                      std::uint32_t n_devices,
                                      const char* transport,
                                      const char* boundary) {
  std::vector<double> mirror(n_devices);
  for (std::uint32_t d = 0; d < n_devices; ++d) {
    mirror[d] = decide.threshold_value(d);
    if (mirror[d] < 0.0)
      throw RuntimeError(
          std::string("transport=") + transport +
          " requires per-device TRO thresholds, but the policy for device " +
          std::to_string(d) +
          " has none (virtual non-TRO policies cannot cross a " + boundary +
          " boundary)");
  }
  return mirror;
}

/// One full simulation run: workspace/shard setup, transport selection, and
/// the coordinator's barrier-stepped loop.
template <bool WithFaults, class Decide>
SimulationResult run_sharded(const std::vector<core::UserParams>& users,
                             std::size_t n_initial_devices, double capacity,
                             const core::EdgeDelay& delay,
                             const SimulationOptions& options,
                             SimWorkspace::Impl& ws, const Decide& decide) {
  const auto n_devices = static_cast<std::uint32_t>(users.size());
  const auto n_initial = static_cast<std::uint32_t>(n_initial_devices);
  const auto n_clusters =
      static_cast<std::uint32_t>(options.topology.clusters);
  // Nominal capacity is anchored to the initial population: churn changes
  // the offered load, not the installed edge hardware.
  const double edge_capacity = static_cast<double>(n_initial) * capacity;
  const double t_end = options.warmup + options.horizon;
  const bool has_fixed_gamma = options.fixed_gamma.has_value();
  const double fixed_delay =
      has_fixed_gamma ? delay(*options.fixed_gamma) : 0.0;

  const std::size_t shard_count = std::min<std::size_t>(
      parallel::resolve_shard_count(options.shards, n_devices), n_devices);

  ws.prepare(users.size());
  if (ws.rng_cached && ws.rng_seed == options.seed &&
      ws.rng_init.size() == n_devices) {
    std::copy(ws.rng_init.begin(), ws.rng_init.end(), ws.rngs.begin());
  } else {
    // Block-parallel over a pool scoped to the call: the threads are joined
    // before the process transport below forks.
    random::split_streams(options.seed, 0, ws.rngs);
    ws.rng_init = ws.rngs;
    ws.rng_seed = options.seed;
    ws.rng_cached = true;
  }

  fault::FaultPlan plan;
  if constexpr (WithFaults)
    plan = fault::resolve_fault_plan(options.faults->actions(), n_initial,
                                     n_devices, options.warmup, t_end);

  const bool measuring_from_start = options.warmup == 0.0;
  ws.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    parallel::ShardContext& sc = ws.shards[s];
    sc.reset(parallel::shard_bound(n_devices, shard_count, s),
             parallel::shard_bound(n_devices, shard_count, s + 1),
             measuring_from_start);
    sc.cluster_offloads.assign(n_clusters, 0);
    init_shard<WithFaults>(sc, users, n_initial, ws.rngs, plan.actions);
  }

  CoordinatorContext cc;
  cc.users = users.data();
  cc.options = &options;
  cc.delay = &delay;
  cc.plan = &plan;
  cc.threshold_of = [&decide](std::uint32_t d) {
    return decide.threshold_value(d);
  };
  cc.n_devices = n_devices;
  cc.n_initial = n_initial;
  cc.n_clusters = n_clusters;
  cc.capacity = capacity;
  cc.edge_capacity = edge_capacity;
  cc.t_end = t_end;
  cc.with_faults = WithFaults;
  cc.measuring_from_start = measuring_from_start;
  cc.shard_count = shard_count;

  if (options.transport == TransportKind::kProcess) {
    std::vector<double> mirror =
        mirror_thresholds(decide, n_devices, "process", "process");
    // The pool must not cross fork() (its worker threads would not exist in
    // the children); each rank builds its own pool for its slice, and the
    // coordinator's replay pool is rebuilt once the ranks are forked.
    ws.pool.reset();
    const std::size_t workers = std::min<std::size_t>(
        options.workers == 0 ? 2 : options.workers, shard_count);
    const LegContext<TroValueDecide> wlc{users.data(),     ws.devices.data(),
                                         ws.rngs.data(),   nullptr,
                                         &options.service, &options.latency,
                                         options.warmup,   t_end,
                                         n_devices,        n_clusters,
                                         has_fixed_gamma,  fixed_delay};
    parallel::ProcessTransport::Config cfg;
    cfg.shard_count = shard_count;
    cfg.workers = workers;
    cfg.n_devices = n_devices;
    // The factory runs inside each forked child: the workspace — shards
    // already initialized above — and the mirror are inherited
    // copy-on-write, so nothing is serialized at startup.
    parallel::ProcessTransport transport(
        cfg,
        [&](std::size_t, std::size_t shard_lo,
            std::size_t shard_hi) -> std::unique_ptr<parallel::RankWorker> {
          return std::make_unique<LegRunner<WithFaults, TroValueDecide>>(
              ws, TroValueDecide{mirror.data()}, wlc, shard_lo, shard_hi,
              nullptr, &mirror);
        });
    cc.replay_pool = workspace_pool(ws, shard_count);
    return coordinator_run(cc, transport);
  }

  if (options.transport == TransportKind::kTcp) {
    const std::vector<double> mirror =
        mirror_thresholds(decide, n_devices, "tcp", "machine");
    std::vector<net::Address> workers;
    workers.reserve(options.worker_addresses.size());
    for (const std::string& spec : options.worker_addresses)
      workers.push_back(net::parse_address(spec));
    net::check_unique_worker_addresses(workers);
    const std::size_t ranks = workers.size();
    if (ranks > shard_count)
      throw RuntimeError("transport=tcp lists " + std::to_string(ranks) +
                         " workers but the run has only " +
                         std::to_string(shard_count) +
                         " shards; drop workers or raise --shards");
    MEC_EXPECTS_MSG(options.service_spec && options.latency_spec,
                    "transport=tcp requires sampler specs (enforced by "
                    "MecSimulation)");
    // Unlike transport=process there is no fork to inherit state through:
    // each rank's slice is serialized explicitly.  No RNG words are
    // shipped: the worker derives its slice's pre-init streams from
    // (seed, device_lo) with split_streams, re-runs init_shard, and
    // reproduces the initial-arrival draws bit for bit.
    net::wire::WorkerPopulation base;
    base.ranks = static_cast<std::uint32_t>(ranks);
    base.seed = options.seed;
    base.n_devices = n_devices;
    base.n_initial = n_initial;
    base.n_clusters = n_clusters;
    base.shard_count = static_cast<std::uint32_t>(shard_count);
    base.warmup = options.warmup;
    base.t_end = t_end;
    base.has_fixed_gamma = has_fixed_gamma;
    base.fixed_delay = fixed_delay;
    base.with_faults = WithFaults;
    base.service = *options.service_spec;
    base.latency = *options.latency_spec;
    if constexpr (WithFaults)
      base.actions.assign(plan.actions.begin(), plan.actions.end());
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      net::wire::WorkerPopulation pop = base;
      pop.rank = static_cast<std::uint32_t>(r);
      const auto [shard_lo, shard_hi] =
          parallel::rank_shard_range(shard_count, ranks, r);
      pop.shard_lo = static_cast<std::uint32_t>(shard_lo);
      pop.shard_hi = static_cast<std::uint32_t>(shard_hi);
      pop.device_lo =
          parallel::shard_bound(n_devices, shard_count, pop.shard_lo);
      pop.device_hi =
          parallel::shard_bound(n_devices, shard_count, pop.shard_hi);
      pop.users.assign(users.begin() + pop.device_lo,
                       users.begin() + pop.device_hi);
      payloads.push_back(net::wire::encode_population(pop));
    }
    net::TcpTransport::Config cfg;
    cfg.workers = std::move(workers);
    cfg.shard_count = shard_count;
    cfg.n_devices = n_devices;
    net::TcpTransport transport(cfg, payloads, mirror);
    cc.replay_pool = workspace_pool(ws, shard_count);
    return coordinator_run(cc, transport);
  }

  cc.replay_pool = workspace_pool(ws, shard_count);
  const LegContext<Decide> lc{users.data(),     ws.devices.data(),
                              ws.rngs.data(),   &decide,
                              &options.service, &options.latency,
                              options.warmup,   t_end,
                              n_devices,        n_clusters,
                              has_fixed_gamma,  fixed_delay};
  LegRunner<WithFaults, Decide> runner(ws, decide, lc, 0, shard_count,
                                       cc.replay_pool, nullptr);
  parallel::InProcessTransport transport(runner);
  return coordinator_run(cc, transport);
}

}  // namespace engine
}  // namespace mec::sim
