#include "mec/net/tcp_transport.hpp"

#include <string>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/net/socket.hpp"

namespace mec::net {

namespace pwire = parallel::wire;

TcpTransport::TcpTransport(
    const Config& config,
    std::vector<std::vector<std::uint8_t>> populations,
    std::span<const double> initial_thresholds)
    : FramedTransport(config.workers.size(), config.n_devices,
                      "tcp transport", "closed the connection"),
      addresses_(config.workers) {
  MEC_EXPECTS_MSG(!config.workers.empty() &&
                      config.workers.size() <= config.shard_count,
                  "tcp transport needs 1..shard_count workers");
  MEC_EXPECTS(populations.size() == config.workers.size());
  check_unique_worker_addresses(config.workers);
  const long connect_budget =
      config.connect_timeout_ms > 0 ? config.connect_timeout_ms : timeout_ms_;

  // Connect + handshake, rank by rank; then the shared start-up ships the
  // populations and waits until every rank has built its slice.
  const double t_setup = -1.0;  // no barrier yet
  for (std::size_t r = 0; r < addresses_.size(); ++r) {
    peers_[r].fd = connect_with_backoff(addresses_[r], connect_budget);
    wire::Hello hello;
    hello.rank = static_cast<std::uint32_t>(r);
    hello.ranks = static_cast<std::uint32_t>(addresses_.size());
    send_frame(r, t_setup, pwire::kFrameHello, wire::encode_hello(hello));
    const wire::HelloAck ack = wire::decode_hello_ack(
        read_frame(r, t_setup, pwire::kFrameHelloAck).payload);
    if (ack.revision != wire::kSchemaRevision)
      throw RuntimeError(
          "tcp transport schema revision mismatch: this coordinator speaks "
          "revision " +
          std::to_string(wire::kSchemaRevision) + ", worker at " +
          addresses_[r].str() + " answered revision " +
          std::to_string(ack.revision) +
          " (rebuild one side so both run the same wire schema)");
    if (ack.rank != hello.rank)
      fail(r, t_setup,
           "acknowledged rank " + std::to_string(ack.rank) +
               " instead of its assignment");
  }
  start(std::move(populations), initial_thresholds);
}

std::string TcpTransport::describe_peer(std::size_t rank) {
  return "at " + addresses_[rank].str();
}

}  // namespace mec::net
