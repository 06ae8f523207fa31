#include "mec/net/worker.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/engine.hpp"

namespace mec::net {

namespace pwire = parallel::wire;

namespace {

// Rebuilds the rank's slice and serves the barrier loop until finalize.
//
// Arrays are full-size with only the owned slice populated: LegRunner tags
// barrier views with *global* shard ids and LegContext pointers are indexed
// by global device id, so a compacted layout would corrupt the merge order.
// The slice's streams are derived from (seed, device_lo) exactly as an
// in-process run splits them; re-running init_shard here reproduces its
// initial-arrival draws bit for bit, which is what keeps the streamed
// .meclog bytes identical to inproc for any rank placement.
template <bool WithFaults>
void serve_slice(int fd, wire::WorkerPopulation pop) {
  std::vector<core::UserParams> users(pop.n_devices);
  std::copy(pop.users.begin(), pop.users.end(), users.begin() + pop.device_lo);
  pop.users = {};  // in place now; freed before the rank's arrays are built
  sim::SimWorkspace::Impl ws;
  ws.prepare(pop.n_devices);
  const std::size_t slice = pop.device_hi - pop.device_lo;
  random::split_streams(pop.seed, pop.device_lo,
                        std::span(ws.rngs).subspan(pop.device_lo, slice));

  const bool measuring_from_start = pop.warmup == 0.0;
  ws.shards.resize(pop.shard_count);
  for (std::uint32_t s = pop.shard_lo; s < pop.shard_hi; ++s) {
    parallel::ShardContext& sc = ws.shards[s];
    sc.reset(parallel::shard_bound(pop.n_devices, pop.shard_count, s),
             parallel::shard_bound(pop.n_devices, pop.shard_count, s + 1),
             measuring_from_start);
    sc.cluster_offloads.assign(pop.n_clusters, 0);
    sim::engine::init_shard<WithFaults>(sc, users, pop.n_initial, ws.rngs,
                                        pop.actions);
  }

  const sim::Sampler service(pop.service, sim::Sampler::Role::kService);
  const sim::Sampler latency(pop.latency, sim::Sampler::Role::kLatency);
  std::vector<double> mirror(pop.n_devices, 0.0);
  const sim::engine::LegContext<sim::TroValueDecide> lc{
      users.data(),  ws.devices.data(),   ws.rngs.data(),  nullptr,
      &service,      &latency,            pop.warmup,      pop.t_end,
      pop.n_devices, pop.n_clusters,      pop.has_fixed_gamma,
      pop.fixed_delay};
  sim::engine::LegRunner<WithFaults, sim::TroValueDecide> runner(
      ws, sim::TroValueDecide{mirror.data()}, lc, pop.shard_lo, pop.shard_hi,
      nullptr, &mirror);

  obs::wire::ByteWriter w(4);
  w.put_u32(pop.rank);
  pwire::write_frame(fd, pwire::kFrameReady, w.take());
  parallel::serve_worker(runner, pop.rank, fd);
}

}  // namespace

void serve_rank(int fd, std::uint32_t rank, long timeout_ms, std::FILE* log) {
  wire::WorkerPopulation pop;
  {  // the frame buffer is freed before the slice is built
    const pwire::DecodedFrame frame =
        pwire::read_frame_deadline(fd, timeout_ms);
    if (frame.kind != pwire::kFramePopulation)
      throw RuntimeError("mec worker expected a population frame, got " +
                         pwire::frame_kind_name(frame.kind));
    pop = wire::decode_population(frame.payload);
  }
  if (pop.rank != rank)
    throw RuntimeError("population frame is for rank " +
                       std::to_string(pop.rank) + " but this is rank " +
                       std::to_string(rank));
  if (log != nullptr)
    std::fprintf(log,
                 "mec worker: serving rank %u/%u (devices [%u, %u), shards "
                 "[%u, %u) of %u, %s)\n",
                 pop.rank, pop.ranks, pop.device_lo, pop.device_hi,
                 pop.shard_lo, pop.shard_hi, pop.shard_count,
                 pop.with_faults ? "faults on" : "faults off");
  if (pop.with_faults)
    serve_slice<true>(fd, std::move(pop));
  else
    serve_slice<false>(fd, std::move(pop));
}

WorkerDaemon::WorkerDaemon(const Options& options)
    : options_(options), listen_fd_(listen_on(options.listen)) {
  if (!options_.quiet)
    std::fprintf(stderr,
                 "mec worker: listening on %s:%u (wire schema revision %u)\n",
                 options_.listen.host.c_str(),
                 static_cast<unsigned>(port()),
                 static_cast<unsigned>(wire::kSchemaRevision));
}

std::uint16_t WorkerDaemon::port() const {
  return bound_port(listen_fd_.get());
}

void WorkerDaemon::shutdown() {
  stopping_.store(true);
  // Shutting down a listening socket makes a blocked accept() return with
  // an error, which serve() translates into a clean exit.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
}

void WorkerDaemon::serve_connection(int fd) {
  const long timeout_ms = parallel::resolve_transport_timeout_ms();
  const pwire::DecodedFrame frame = pwire::read_frame_deadline(fd, timeout_ms);
  if (frame.kind != pwire::kFrameHello)
    throw RuntimeError("mec worker expected a hello frame, got " +
                       pwire::frame_kind_name(frame.kind));
  const wire::Hello hello = wire::decode_hello(frame.payload);
  if (hello.revision != wire::kSchemaRevision)
    throw RuntimeError(
        "tcp transport schema revision mismatch: this worker speaks "
        "revision " +
        std::to_string(wire::kSchemaRevision) + ", coordinator sent revision " +
        std::to_string(hello.revision) +
        " (rebuild one side so both run the same wire schema)");
  if (hello.ranks == 0 || hello.rank >= hello.ranks)
    throw RuntimeError("tcp hello assigns rank " + std::to_string(hello.rank) +
                       " of " + std::to_string(hello.ranks));
  wire::HelloAck ack;
  ack.rank = hello.rank;
  pwire::write_frame(fd, pwire::kFrameHelloAck, wire::encode_hello_ack(ack));

  serve_rank(fd, hello.rank, timeout_ms, options_.quiet ? nullptr : stderr);
}

int WorkerDaemon::serve() {
  std::size_t completed = 0;
  for (;;) {
    ScopedFd conn;
    try {
      conn = accept_connection(listen_fd_.get());
    } catch (const std::exception&) {
      if (stopping_.load()) return 0;
      throw;
    }
    if (stopping_.load()) return 0;
    try {
      serve_connection(conn.get());
      ++completed;
      if (!options_.quiet)
        std::fprintf(stderr, "mec worker: run %zu complete\n", completed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mec worker: connection failed: %s\n", e.what());
      // Best-effort error frame so the coordinator fails with a named
      // cause instead of a bare connection close; the daemon itself
      // survives to serve the next connection.
      try {
        pwire::write_frame(conn.get(), pwire::kFrameError,
                           pwire::encode_error(e.what()));
      } catch (...) {
      }
    }
    if (options_.max_runs != 0 && completed >= options_.max_runs) return 0;
  }
}

}  // namespace mec::net
