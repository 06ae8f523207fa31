#include "mec/parallel/shard_executor.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <thread>

#include "mec/common/error.hpp"

namespace mec::parallel {

namespace {
/// Below this population a single queue wins: the per-barrier costs
/// (fork/join latency, replay hand-off) outweigh the parallel leg work.
constexpr std::size_t kAutoShardMinDevices = 10000;
/// Minimum devices per shard once sharding is on.
constexpr std::size_t kAutoShardDevicesPerShard = 5000;
/// Diminishing returns past this many shards (barrier is a full join).
constexpr std::size_t kAutoShardMaxShards = 16;
}  // namespace

std::size_t auto_shard_count(std::size_t n_devices,
                             std::size_t hardware_threads) noexcept {
  if (hardware_threads <= 1 || n_devices < kAutoShardMinDevices) return 1;
  const std::size_t by_population = n_devices / kAutoShardDevicesPerShard;
  return std::clamp<std::size_t>(
      std::min(hardware_threads, by_population), 1, kAutoShardMaxShards);
}

std::size_t resolve_shard_count(std::size_t requested,
                                std::size_t n_devices) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MEC_SHARDS")) {
    // Eager validation, same policy as the bench runner's flag parsing: a
    // value that is not a clean in-range integer fails the run immediately
    // instead of being silently replaced by the autotuning heuristic.
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    // strtol quietly skips leading whitespace and accepts a sign; a shard
    // count is a bare decimal, so require the string to start with a digit.
    const bool clean = env[0] >= '0' && env[0] <= '9' && *end == '\0' &&
                       errno == 0;
    if (!clean || parsed < 1 ||
        parsed > static_cast<long>(kMaxEnvShardCount)) {
      throw RuntimeError("MEC_SHARDS=\"" + std::string(env) +
                         "\" is not a valid shard count (expected an "
                         "integer in [1, " +
                         std::to_string(kMaxEnvShardCount) + "])");
    }
    return static_cast<std::size_t>(parsed);
  }
  return auto_shard_count(n_devices, std::thread::hardware_concurrency());
}

void ShardContext::reset(std::uint32_t lo_device, std::uint32_t hi_device,
                         bool measuring_from_start) {
  lo = lo_device;
  hi = hi_device;
  queue.clear();
  log.clear();
  local_sojourns = stats::LatencySketch{};
  offload_delays = stats::LatencySketch{};
  events = 0;
  offloads_in_window = 0;
  cluster_offloads.clear();  // the engine re-sizes it to the topology
  tasks_lost = 0;
  offloads_rejected = 0;
  offloads_penalized = 0;
  measuring = measuring_from_start;
  flipped = measuring_from_start;
  outage = false;
  outage_mode = fault::OutageMode::kReject;
  outage_penalty = 0.0;
  view.clear();
  arrival_seq.clear();
  departure_seq.clear();
}

}  // namespace mec::parallel
