// The sharded simulation engine: thin composition of the layer headers.
//
//   samplers       (samplers.hpp)      service/latency specs + inline draws
//   device model   (device_state.hpp)  per-device queues + accumulators
//   policy dispatch (policy_dispatch.hpp) sealed/virtual decision providers
//   edge coupling  (coupling.hpp)      EWMA gamma + g(gamma) replay
//   fault plan     (fault/fault_plan.hpp) resolved schedule + shard views
//   observers      (observer.hpp)      grid barriers + metrics sinks
//   workspace      (workspace.hpp)     per-run device/RNG/shard buffers
//   leg runner     (leg_runner.hpp)    per-rank event loop + RankWorker
//   transport      (parallel/transport.hpp) rank <-> coordinator seam
//   coordinator    (coordinator.hpp)   serial barrier work + result assembly
//
// One run executes as alternating phases: parallel *legs*, where every
// rank advances its owned shards to the next observation-grid barrier,
// and serial *barrier work*, where the coordinator replays the merged
// offload log, records samples, and fires epoch callbacks (the closed
// loop retunes thresholds only here, so shard legs always see a frozen
// policy).  run_sharded only assembles the pieces: it picks the transport,
// sets up the ranks — the in-process rank over the prepared workspace, or
// one population frame per rank behind a wire — and hands the rank fleet to
// coordinator_run.  Results are bit-identical for every shard count and
// every transport — including K = 1 in-process, which is the only serial
// path; there is no separate monolithic engine left to diverge from.  The
// golden-trace suite pins this equivalence against the pre-shard engine's
// exact output, and tests/test_transport.cpp pins in-process == process.
//
// This header is internal to the engine: mec_simulation.cpp instantiates
// run_sharded once per (fault mode x decision provider) pair, and
// net/worker.cpp instantiates the rank side for remote and forked ranks.
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
#include "mec/sim/leg_runner.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim {

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

/// One full simulation run: transport selection, rank setup, and the
/// coordinator's barrier-stepped loop.
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

  fault::FaultPlan plan;
  if constexpr (WithFaults)
    plan = fault::resolve_fault_plan(options.faults->actions(), n_initial,
                                     n_devices, options.warmup, t_end);

  const bool measuring_from_start = options.warmup == 0.0;
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

  if (options.transport != TransportKind::kInProcess) {
    // Ranks behind a wire rebuild their slices from population frames and
    // decide on mirrored thresholds, refreshed by the post-epoch broadcast.
    const bool tcp = options.transport == TransportKind::kTcp;
    const std::vector<double> mirror =
        mirror_thresholds(decide, n_devices, tcp ? "tcp" : "process",
                          tcp ? "machine" : "process");
    std::vector<net::Address> addresses;
    if (tcp) {
      for (const std::string& spec : options.worker_addresses)
        addresses.push_back(net::parse_address(spec));
      net::check_unique_worker_addresses(addresses);
      if (addresses.size() > shard_count)
        throw RuntimeError("transport=tcp lists " +
                           std::to_string(addresses.size()) +
                           " workers but the run has only " +
                           std::to_string(shard_count) +
                           " shards; drop workers or raise --shards");
    }
    const std::size_t ranks =
        tcp ? addresses.size()
            : std::min<std::size_t>(options.workers == 0 ? 2 : options.workers,
                                    shard_count);
    // One population frame per rank: rank r owns the shard slice
    // rank_shard_range(K, ranks, r) and gets only its users.  No RNG words
    // are shipped: a rank derives its slice's streams from (seed,
    // device_lo) with split_streams and re-runs init_shard, reproducing the
    // in-process draws bit for bit.  The staging slice is scoped out before
    // the ranks fork, and the payloads move into the transport, which frees
    // each once sent.
    std::vector<std::vector<std::uint8_t>> payloads;
    {
      net::wire::WorkerPopulation pop;
      pop.ranks = static_cast<std::uint32_t>(ranks);
      pop.seed = options.seed;
      pop.n_devices = n_devices;
      pop.n_initial = n_initial;
      pop.n_clusters = n_clusters;
      pop.shard_count = static_cast<std::uint32_t>(shard_count);
      pop.warmup = options.warmup;
      pop.t_end = t_end;
      pop.has_fixed_gamma = has_fixed_gamma;
      pop.fixed_delay = fixed_delay;
      pop.with_faults = WithFaults;
      pop.service = options.service;
      pop.latency = options.latency;
      pop.actions = plan.actions;
      for (std::size_t r = 0; r < ranks; ++r) {
        pop.rank = static_cast<std::uint32_t>(r);
        const auto [shard_lo, shard_hi] =
            parallel::rank_shard_range(shard_count, ranks, r);
        pop.shard_lo = static_cast<std::uint32_t>(shard_lo);
        pop.shard_hi = static_cast<std::uint32_t>(shard_hi);
        pop.device_lo =
            parallel::shard_bound(n_devices, shard_count, shard_lo);
        pop.device_hi =
            parallel::shard_bound(n_devices, shard_count, shard_hi);
        pop.users.assign(users.begin() + pop.device_lo,
                         users.begin() + pop.device_hi);
        payloads.push_back(net::wire::encode_population(pop));
      }
    }
    std::unique_ptr<parallel::Transport> transport;
    if (tcp) {
      net::TcpTransport::Config cfg;
      cfg.workers = std::move(addresses);
      cfg.shard_count = shard_count;
      cfg.n_devices = n_devices;
      transport = std::make_unique<net::TcpTransport>(
          cfg, std::move(payloads), mirror);
    } else {
      // No pool thread may be live across fork(); the coordinator's replay
      // pool is rebuilt below, once the ranks are forked.
      ws.pool.reset();
      transport = std::make_unique<parallel::ProcessTransport>(
          n_devices, std::move(payloads), mirror);
    }
    cc.replay_pool = workspace_pool(ws, shard_count);
    return coordinator_run(cc, *transport);
  }

  ws.prepare(users.size());
  if (ws.rng_cached && ws.rng_seed == options.seed &&
      ws.rng_init.size() == n_devices) {
    std::copy(ws.rng_init.begin(), ws.rng_init.end(), ws.rngs.begin());
  } else {
    random::split_streams(options.seed, 0, ws.rngs);
    ws.rng_init = ws.rngs;
    ws.rng_seed = options.seed;
    ws.rng_cached = true;
  }
  ws.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    parallel::ShardContext& sc = ws.shards[s];
    sc.reset(parallel::shard_bound(n_devices, shard_count, s),
             parallel::shard_bound(n_devices, shard_count, s + 1),
             measuring_from_start);
    sc.cluster_offloads.assign(n_clusters, 0);
    init_shard<WithFaults>(sc, users, n_initial, ws.rngs, plan.actions);
  }

  cc.replay_pool = workspace_pool(ws, shard_count);
  const Sampler service(options.service, Sampler::Role::kService);
  const Sampler latency(options.latency, Sampler::Role::kLatency);
  const LegContext<Decide> lc{users.data(),    ws.devices.data(),
                              ws.rngs.data(),  &decide,
                              &service,        &latency,
                              options.warmup,  t_end,
                              n_devices,       n_clusters,
                              has_fixed_gamma, fixed_delay};
  LegRunner<WithFaults, Decide> runner(ws, decide, lc, 0, shard_count,
                                       cc.replay_pool, nullptr);
  parallel::InProcessTransport transport(runner);
  return coordinator_run(cc, transport);
}

}  // namespace engine
}  // namespace mec::sim
