#include "mec/parallel/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>

#include "mec/common/error.hpp"
#include "mec/net/worker.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/shard_executor.hpp"

namespace mec::parallel {

using obs::wire::load_le;
using obs::wire::store_le;

namespace wire {

using obs::wire::ByteReader;
using obs::wire::ByteWriter;

// The wire layout below spells out every field explicitly; these asserts
// pin the in-memory layouts the format mirrors, so a field added to either
// struct breaks the build here instead of silently skewing the protocol.
// The offload log goes further: its wire bytes *are* the in-memory bytes
// (little-endian scalars, IEEE-754 doubles, no padding, bools as 0/1), so
// it is encoded as one block copy; the assert after the OffloadRecord
// layout pins what that needs of the host.
static_assert(sizeof(sim::OffloadRecord) == 32 &&
                  offsetof(sim::OffloadRecord, time) == 0 &&
                  offsetof(sim::OffloadRecord, latency) == 8 &&
                  offsetof(sim::OffloadRecord, penalty) == 16 &&
                  offsetof(sim::OffloadRecord, device) == 24 &&
                  offsetof(sim::OffloadRecord, cluster) == 28 &&
                  offsetof(sim::OffloadRecord, measured) == 30 &&
                  offsetof(sim::OffloadRecord, penalized) == 31,
              "OffloadRecord layout drifted; update the wire codec and "
              "kOffloadRecordWireSize together");
static_assert(kOffloadRecordWireSize == 32);
static_assert(std::endian::native == std::endian::little &&
                  std::numeric_limits<double>::is_iec559 &&
                  std::is_trivially_copyable_v<sim::OffloadRecord>,
              "the offload log is copied to the wire in bulk, which needs a "
              "little-endian host with IEEE-754 doubles");
static_assert(sizeof(DeviceTotals) == 56 &&
                  offsetof(DeviceTotals, arrivals) == 0 &&
                  offsetof(DeviceTotals, offloaded) == 8 &&
                  offsetof(DeviceTotals, local_completed) == 16 &&
                  offsetof(DeviceTotals, queue_integral) == 24 &&
                  offsetof(DeviceTotals, local_sojourn_sum) == 32 &&
                  offsetof(DeviceTotals, offload_delay_sum) == 40 &&
                  offsetof(DeviceTotals, energy_sum) == 48,
              "DeviceTotals layout drifted; update the wire codec and "
              "kDeviceTotalsWireSize together");
static_assert(kDeviceTotalsWireSize == 56);

std::string frame_kind_name(std::uint32_t kind) {
  const char* name = "unknown";
  switch (kind) {
    case kFrameAdvance:
      name = "advance request";
      break;
    case kFrameThresholds:
      name = "threshold broadcast";
      break;
    case kFrameFinalize:
      name = "finalize request";
      break;
    case kFrameHello:
      name = "hello";
      break;
    case kFramePopulation:
      name = "population";
      break;
    case kFrameBarrier:
      name = "barrier payload";
      break;
    case kFrameFinal:
      name = "final totals";
      break;
    case kFrameHelloAck:
      name = "hello ack";
      break;
    case kFrameReady:
      name = "population ready";
      break;
    case kFrameError:
      name = "worker error";
      break;
    default:
      break;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s (kind 0x%02X)", name, kind);
  return buf;
}

std::vector<std::uint8_t> encode_frame(
    std::uint32_t kind, std::span<const std::uint8_t> payload) {
  MEC_EXPECTS_MSG(payload.size() <= kMaxTransportPayload,
                  "transport frame payload exceeds the size cap");
  ByteWriter w(kFrameOverhead + payload.size());
  w.put_u32(kind);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_bytes(payload.data(), payload.size());
  w.put_u32(obs::crc32(payload));
  return w.take();
}

DecodedFrame decode_frame(std::span<const std::uint8_t> bytes,
                          std::size_t* consumed) {
  ByteReader r(bytes);
  if (bytes.size() < kFrameOverhead)
    throw RuntimeError("transport frame truncated");
  DecodedFrame frame;
  frame.kind = r.get_u32();
  const std::uint32_t len = r.get_u32();
  if (len > kMaxTransportPayload)
    throw RuntimeError("transport frame length exceeds the size cap");
  if (bytes.size() < kFrameOverhead + len)
    throw RuntimeError("transport frame truncated");
  frame.payload.assign(bytes.begin() + 8, bytes.begin() + 8 + len);
  ByteReader tail(bytes.subspan(8 + len, 4));
  if (tail.get_u32() != obs::crc32(frame.payload))
    throw RuntimeError("transport frame CRC mismatch");
  if (consumed != nullptr) *consumed = kFrameOverhead + len;
  return frame;
}

std::vector<std::uint8_t> encode_barrier_request(const BarrierRequest& req) {
  ByteWriter w(13);
  w.put_f64(req.limit);
  w.put_u8(req.inclusive ? 1 : 0);
  w.put_u8(req.want_q ? 1 : 0);
  w.put_u8(req.want_q2 ? 1 : 0);
  w.put_u8(req.want_sketches ? 1 : 0);
  w.put_u8(req.want_queue_stats ? 1 : 0);
  return w.take();
}

BarrierRequest decode_barrier_request(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  BarrierRequest req;
  req.limit = r.get_f64();
  req.inclusive = r.get_u8() != 0;
  req.want_q = r.get_u8() != 0;
  req.want_q2 = r.get_u8() != 0;
  req.want_sketches = r.get_u8() != 0;
  req.want_queue_stats = r.get_u8() != 0;
  return req;
}

namespace {

/// Smallest wire size of one shard block (every optional section absent):
/// shard u32, five u64 counters, cluster count u32, flipped u8, log count
/// u32, has_sketches u8, has_queue_stats u8.
constexpr std::size_t kMinShardWireSize = 4 + 5 * 8 + 4 + 1 + 4 + 1 + 1;
/// time, latency, penalty, device, cluster: the OffloadRecord bytes before
/// the two bool flags.
constexpr std::size_t kOffloadRecordScalarBytes =
    offsetof(sim::OffloadRecord, measured);
static_assert(kOffloadRecordScalarBytes == 30);

void encode_sketch(ByteWriter& w, const stats::LatencySketch& sketch) {
  w.put_u64(sketch.count());
  if (sketch.count() == 0) return;
  w.put_f64(sketch.min());
  w.put_f64(sketch.max());
  const auto bins = sketch.bin_counts();
  w.put_u32(static_cast<std::uint32_t>(bins.size()));
  for (const std::uint64_t b : bins) w.put_u64(b);
}

stats::LatencySketch decode_sketch(ByteReader& r,
                                   std::vector<std::uint64_t>& bin_scratch) {
  const std::uint64_t count = r.get_u64();
  if (count == 0) return stats::LatencySketch{};
  const double min = r.get_f64();
  const double max = r.get_f64();
  const std::uint32_t n_bins = r.get_u32();
  if (n_bins != stats::LatencySketch::bin_count())
    throw RuntimeError("transport sketch bin count mismatch");
  bin_scratch.resize(n_bins);
  for (std::uint32_t i = 0; i < n_bins; ++i) bin_scratch[i] = r.get_u64();
  return stats::LatencySketch::restore(count, min, max, bin_scratch);
}

}  // namespace

std::vector<std::uint8_t> encode_barrier_payload(
    std::span<const ShardBarrierView> views, bool has_q, double total_q,
    double total_q2, std::vector<std::uint8_t> recycled) {
  std::size_t reserve = 16;
  for (const ShardBarrierView& v : views)
    reserve += 128 + v.log.size() * kOffloadRecordWireSize +
               v.cluster_offloads.size() * 8;
  ByteWriter w(std::move(recycled), reserve);
  w.put_u32(static_cast<std::uint32_t>(views.size()));
  for (const ShardBarrierView& v : views) {
    w.put_u32(v.shard);
    w.put_u64(v.events);
    w.put_u64(v.offloads_in_window);
    w.put_u64(v.tasks_lost);
    w.put_u64(v.offloads_rejected);
    w.put_u64(v.offloads_penalized);
    w.put_u32(static_cast<std::uint32_t>(v.cluster_offloads.size()));
    for (const std::uint64_t c : v.cluster_offloads) w.put_u64(c);
    w.put_u8(v.flipped ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(v.log.size()));
    w.put_bytes(v.log.data(), v.log.size() * kOffloadRecordWireSize);
    const bool has_sketches = v.local_sojourns != nullptr;
    w.put_u8(has_sketches ? 1 : 0);
    if (has_sketches) {
      encode_sketch(w, *v.local_sojourns);
      encode_sketch(w, *v.offload_delays);
    }
    w.put_u8(v.has_queue_stats ? 1 : 0);
    if (v.has_queue_stats) {
      w.put_f64(v.queue_depth);
      w.put_f64(v.calendar_gear);
      w.put_f64(v.gear_switches);
      w.put_f64(v.calendar_retunes);
      w.put_f64(v.leg_seconds);
    }
  }
  w.put_u8(has_q ? 1 : 0);
  if (has_q) {
    w.put_f64(total_q);
    w.put_f64(total_q2);
  }
  return w.take();
}

RankBarrierData decode_barrier_payload(std::span<const std::uint8_t> payload,
                                       RankBarrierData recycled) {
  ByteReader r(payload);
  RankBarrierData data = std::move(recycled);
  std::vector<std::uint64_t> bin_scratch;
  data.shards.resize(r.checked_count(r.get_u32(), kMinShardWireSize));
  for (RankBarrierData::Shard& s : data.shards) {
    s.shard = r.get_u32();
    s.events = r.get_u64();
    s.offloads_in_window = r.get_u64();
    s.tasks_lost = r.get_u64();
    s.offloads_rejected = r.get_u64();
    s.offloads_penalized = r.get_u64();
    s.cluster_offloads.resize(r.checked_count(r.get_u32(), 8));
    for (std::uint64_t& c : s.cluster_offloads) c = r.get_u64();
    s.flipped = r.get_u8() != 0;
    s.log.resize(r.checked_count(r.get_u32(), kOffloadRecordWireSize));
    // Copy each record's scalar prefix as is, but read the two flag bytes
    // as `byte != 0`: a peer may send any non-zero byte for true, and
    // copying that into a bool would create an invalid bool.
    const std::uint8_t* p =
        r.get_bytes(s.log.size() * kOffloadRecordWireSize);
    for (sim::OffloadRecord& rec : s.log) {
      std::memcpy(static_cast<void*>(&rec), p, kOffloadRecordScalarBytes);
      rec.measured = p[kOffloadRecordScalarBytes] != 0;
      rec.penalized = p[kOffloadRecordScalarBytes + 1] != 0;
      p += kOffloadRecordWireSize;
    }
    s.has_sketches = r.get_u8() != 0;
    s.local_sojourns = s.has_sketches ? decode_sketch(r, bin_scratch)
                                      : stats::LatencySketch{};
    s.offload_delays = s.has_sketches ? decode_sketch(r, bin_scratch)
                                      : stats::LatencySketch{};
    s.has_queue_stats = r.get_u8() != 0;
    const auto queue_stat = [&] {
      return s.has_queue_stats ? r.get_f64() : 0.0;
    };
    s.queue_depth = queue_stat();
    s.calendar_gear = queue_stat();
    s.gear_switches = queue_stat();
    s.calendar_retunes = queue_stat();
    s.leg_seconds = queue_stat();
  }
  data.has_q = r.get_u8() != 0;
  data.total_q = data.has_q ? r.get_f64() : 0.0;
  data.total_q2 = data.has_q ? r.get_f64() : 0.0;
  if (!r.exhausted())
    throw RuntimeError("transport barrier payload has trailing bytes");
  return data;
}

std::vector<ShardBarrierView> RankBarrierData::views() const {
  std::vector<ShardBarrierView> out;
  out.reserve(shards.size());
  for (const Shard& s : shards) {
    ShardBarrierView v;
    v.shard = s.shard;
    v.log = s.log;
    v.events = s.events;
    v.offloads_in_window = s.offloads_in_window;
    v.tasks_lost = s.tasks_lost;
    v.offloads_rejected = s.offloads_rejected;
    v.offloads_penalized = s.offloads_penalized;
    v.cluster_offloads = s.cluster_offloads;
    v.flipped = s.flipped;
    if (s.has_sketches) {
      v.local_sojourns = &s.local_sojourns;
      v.offload_delays = &s.offload_delays;
    }
    if (s.has_queue_stats) {
      v.has_queue_stats = true;
      v.queue_depth = s.queue_depth;
      v.calendar_gear = s.calendar_gear;
      v.gear_switches = s.gear_switches;
      v.calendar_retunes = s.calendar_retunes;
      v.leg_seconds = s.leg_seconds;
    }
    out.push_back(v);
  }
  return out;
}

std::vector<std::uint8_t> encode_thresholds(std::span<const double> values) {
  ByteWriter w(4 + values.size() * 8);
  w.put_u32(static_cast<std::uint32_t>(values.size()));
  for (const double v : values) w.put_f64(v);
  return w.take();
}

std::vector<double> decode_thresholds(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::vector<double> values(r.checked_count(r.get_u32(), 8));
  for (double& v : values) v = r.get_f64();
  return values;
}

std::vector<std::uint8_t> encode_device_totals(
    std::uint32_t device_lo, std::uint32_t device_hi,
    std::span<const DeviceTotals> totals) {
  MEC_EXPECTS(device_hi - device_lo == totals.size());
  ByteWriter w(8 + totals.size() * kDeviceTotalsWireSize);
  w.put_u32(device_lo);
  w.put_u32(device_hi);
  for (const DeviceTotals& t : totals) {
    w.put_u64(t.arrivals);
    w.put_u64(t.offloaded);
    w.put_u64(t.local_completed);
    w.put_f64(t.queue_integral);
    w.put_f64(t.local_sojourn_sum);
    w.put_f64(t.offload_delay_sum);
    w.put_f64(t.energy_sum);
  }
  return w.take();
}

FinalTotals decode_device_totals(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  FinalTotals out;
  out.device_lo = r.get_u32();
  out.device_hi = r.get_u32();
  if (out.device_hi < out.device_lo)
    throw RuntimeError("transport final-totals device range is inverted");
  out.totals.resize(
      r.checked_count(out.device_hi - out.device_lo, kDeviceTotalsWireSize));
  for (DeviceTotals& t : out.totals) {
    t.arrivals = r.get_u64();
    t.offloaded = r.get_u64();
    t.local_completed = r.get_u64();
    t.queue_integral = r.get_f64();
    t.local_sojourn_sum = r.get_f64();
    t.offload_delay_sum = r.get_f64();
    t.energy_sum = r.get_f64();
  }
  if (!r.exhausted())
    throw RuntimeError("transport final-totals payload has trailing bytes");
  return out;
}

std::vector<std::uint8_t> encode_error(std::string_view what) {
  ByteWriter w(4 + what.size());
  w.put_u32(static_cast<std::uint32_t>(what.size()));
  w.put_bytes(what.data(), what.size());
  return w.take();
}

std::string decode_error(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::string what = r.get_string(r.checked_count(r.get_u32(), 1));
  if (!r.exhausted())
    throw RuntimeError("transport error payload has trailing bytes");
  return what;
}

}  // namespace wire

// --- fd plumbing -----------------------------------------------------------

void ScopedFd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

namespace {

/// Gathered write of every byte in `iov[0..count)`; `iov` is consumed.
void write_all(int fd, struct iovec* iov, std::size_t count) {
  while (count > 0) {
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw wire::PeerError(wire::PeerError::Kind::kClosed,
                              "transport peer closed the channel");
      throw RuntimeError(std::string("transport write failed: ") +
                         std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(sent);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

long env_long(const char* name, long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') return fallback;
  return parsed;
}

}  // namespace

long resolve_transport_timeout_ms(long fallback_ms) {
  const char* env = std::getenv("MEC_TRANSPORT_TIMEOUT_MS");
  if (env == nullptr || *env == '\0') return fallback_ms;
  // Same eager-validation contract as MEC_SHARDS (resolve_shard_count): a
  // malformed or out-of-range deadline is a run-killing misconfiguration,
  // not something to paper over with the default.
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(env, &end, 10);
  const bool clean = std::isdigit(static_cast<unsigned char>(*env)) &&
                     end != env && *end == '\0' && errno == 0;
  if (!clean || parsed < 1 || parsed > kMaxTransportTimeoutMs)
    throw RuntimeError("MEC_TRANSPORT_TIMEOUT_MS=\"" + std::string(env) +
                       "\" is not a valid read deadline (expected an integer "
                       "number of milliseconds in [1, " +
                       std::to_string(kMaxTransportTimeoutMs) + "])");
  return parsed;
}

namespace wire {

void write_frame(int fd, std::uint32_t kind,
                 std::span<const std::uint8_t> payload) {
  MEC_EXPECTS_MSG(payload.size() <= kMaxTransportPayload,
                  "transport frame payload exceeds the size cap");
  std::uint8_t header[8];
  store_le(header, kind);
  store_le(header + 4, static_cast<std::uint32_t>(payload.size()));
  std::uint8_t crc[4];
  store_le(crc, obs::crc32(payload));
  struct iovec iov[3] = {
      {header, sizeof header},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()},
      {crc, sizeof crc}};
  write_all(fd, iov, 3);
}

DecodedFrame read_frame_deadline(int fd, long timeout_ms,
                                 std::vector<std::uint8_t> recycled) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::uint8_t header[8];
  std::size_t have = 0;
  // payload + crc once the header is in
  std::vector<std::uint8_t> body = std::move(recycled);
  std::size_t body_have = 0;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
      throw PeerError(PeerError::Kind::kTimeout,
                      "transport read deadline expired after " +
                          std::to_string(timeout_ms) + " ms");
    struct pollfd pfd{fd, POLLIN, 0};
    const long wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - now)
                             .count();
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait_ms) + 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw RuntimeError(std::string("transport poll failed: ") +
                         std::strerror(errno));
    }
    if (ready == 0) continue;  // deadline check at loop head
    if (have < sizeof header) {
      const ssize_t r = ::read(fd, header + have, sizeof header - have);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw RuntimeError(std::string("transport read failed: ") +
                           std::strerror(errno));
      }
      if (r == 0)
        throw PeerError(PeerError::Kind::kClosed,
                        "transport peer closed the channel");
      have += static_cast<std::size_t>(r);
      if (have == sizeof header) {
        const std::uint32_t len = load_le<std::uint32_t>(header + 4);
        if (len > kMaxTransportPayload)
          throw RuntimeError("transport frame length exceeds the size cap");
        body.resize(static_cast<std::size_t>(len) + 4);
      }
      continue;
    }
    const ssize_t r =
        ::read(fd, body.data() + body_have, body.size() - body_have);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw RuntimeError(std::string("transport read failed: ") +
                         std::strerror(errno));
    }
    if (r == 0)
      throw PeerError(PeerError::Kind::kClosed,
                      "transport peer closed the channel");
    body_have += static_cast<std::size_t>(r);
    if (body_have == body.size()) break;
  }
  // Check the CRC tail, then trim it: the receive buffer itself becomes
  // the frame payload.
  const std::size_t len = body.size() - 4;
  if (load_le<std::uint32_t>(body.data() + len) !=
      obs::crc32(std::span(body.data(), len)))
    throw RuntimeError("transport frame CRC mismatch");
  body.resize(len);
  DecodedFrame frame;
  frame.kind = load_le<std::uint32_t>(header);
  frame.payload = std::move(body);
  return frame;
}

}  // namespace wire

// --- worker loop -----------------------------------------------------------

void serve_worker(RankWorker& worker, std::size_t rank, int fd) {
  // Robustness-test hooks: crash (hard _exit) or stall (stop heartbeating)
  // at the given barrier number, on the given rank only.
  const long crash_rank = env_long("MEC_TEST_WORKER_CRASH_RANK", -1);
  const long crash_barrier = env_long("MEC_TEST_WORKER_CRASH_BARRIER", 1);
  const long stall_rank = env_long("MEC_TEST_WORKER_STALL_RANK", -1);
  const long stall_barrier = env_long("MEC_TEST_WORKER_STALL_BARRIER", 1);
  long barriers = 0;

  // Both buffers keep their capacity from one barrier to the next.  The
  // coordinator's serial work between frames has no useful bound, so a
  // rank waits up to the longest deadline the transport admits.
  wire::DecodedFrame frame;
  std::vector<std::uint8_t> out;
  for (;;) {
    frame = wire::read_frame_deadline(fd, kMaxTransportTimeoutMs,
                                      std::move(frame.payload));
    switch (frame.kind) {
      case wire::kFrameAdvance: {
        const BarrierRequest req = wire::decode_barrier_request(frame.payload);
        worker.advance(req);
        ++barriers;
        if (static_cast<long>(rank) == crash_rank && barriers == crash_barrier)
          ::_exit(17);
        if (static_cast<long>(rank) == stall_rank && barriers == stall_barrier)
          for (;;) ::pause();
        out = wire::encode_barrier_payload(worker.views(), req.want_q,
                                           worker.total_q(), worker.total_q2(),
                                           std::move(out));
        wire::write_frame(fd, wire::kFrameBarrier, out);
        break;
      }
      case wire::kFrameThresholds:
        worker.set_thresholds(wire::decode_thresholds(frame.payload));
        break;
      case wire::kFrameFinalize: {
        obs::wire::ByteReader r(frame.payload);
        worker.finalize(r.get_u8() != 0);
        const std::uint32_t lo = worker.device_lo();
        const std::uint32_t hi = worker.device_hi();
        std::vector<DeviceTotals> totals;
        totals.reserve(hi - lo);
        for (std::uint32_t d = lo; d < hi; ++d)
          totals.push_back(worker.device_totals(d));
        wire::write_frame(fd, wire::kFrameFinal,
                          wire::encode_device_totals(lo, hi, totals));
        return;
      }
      default:
        throw RuntimeError("transport worker received an unknown frame kind " +
                           std::to_string(frame.kind));
    }
  }
}

// --- framed core -----------------------------------------------------------

FramedTransport::FramedTransport(std::size_t ranks, std::uint32_t n_devices,
                                 std::string name, std::string closed)
    : peers_(ranks),
      timeout_ms_(resolve_transport_timeout_ms()),
      n_devices_(n_devices),
      name_(std::move(name)),
      closed_(std::move(closed)) {}

void FramedTransport::start(
    std::vector<std::vector<std::uint8_t>> populations,
    std::span<const double> initial_thresholds) {
  MEC_EXPECTS(populations.size() == peers_.size());
  const double t_setup = -1.0;  // no barrier yet
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    send_frame(r, t_setup, wire::kFramePopulation, populations[r]);
    std::vector<std::uint8_t>().swap(populations[r]);  // sent: free it now
  }
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    obs::wire::ByteReader ready(
        read_frame(r, t_setup, wire::kFrameReady).payload);
    const std::uint32_t echoed = ready.get_u32();
    if (echoed != r)
      fail(r, t_setup, "reported ready as rank " + std::to_string(echoed));
  }
  broadcast_thresholds(initial_thresholds);
}

void FramedTransport::send_frame(std::size_t rank, double barrier_time,
                                 std::uint32_t kind,
                                 std::span<const std::uint8_t> payload) {
  try {
    wire::write_frame(peers_[rank].fd.get(), kind, payload);
  } catch (const wire::PeerError&) {
    // The rank is gone, but what it wrote before leaving is still readable:
    // the read fails the run with the error frame it left, or as a closed
    // channel.  It cannot return, since an error frame always fails.
    read_frame(rank, barrier_time, wire::kFrameError);
  }
  ++peers_[rank].stats.frames_sent;
}

void FramedTransport::fail(std::size_t rank, double barrier_time,
                           const std::string& what) {
  const Peer& peer = peers_[rank];
  std::string msg = name_ + " worker rank " + std::to_string(rank) + " " +
                    describe_peer(rank) + " " + what +
                    " before the barrier at t=" +
                    std::to_string(barrier_time) +
                    "; last completed barrier #" +
                    std::to_string(peer.barriers_done) + " (t=" +
                    std::to_string(peer.last_barrier_time) + ")";
  if (peer.pending != 0)
    msg += "; pending frame: " + wire::frame_kind_name(peer.pending);
  throw RuntimeError(msg);
}

const wire::DecodedFrame& FramedTransport::read_frame(std::size_t rank,
                                                      double barrier_time,
                                                      std::uint32_t expected) {
  Peer& peer = peers_[rank];
  peer.pending = expected;
  try {
    peer.frame = wire::read_frame_deadline(peer.fd.get(), timeout_ms_,
                                           std::move(peer.frame.payload));
  } catch (const wire::PeerError& e) {
    if (e.kind() == wire::PeerError::Kind::kTimeout)
      fail(rank, barrier_time,
           "stopped responding (no payload within " +
               std::to_string(timeout_ms_) + " ms)");
    fail(rank, barrier_time, closed_);
  }
  ++peer.stats.frames_received;
  peer.stats.payload_bytes += peer.frame.payload.size();
  if (peer.frame.kind == wire::kFrameError)
    fail(rank, barrier_time,
         "failed: " + wire::decode_error(peer.frame.payload));
  if (peer.frame.kind != expected)
    fail(rank, barrier_time,
         "sent " + wire::frame_kind_name(peer.frame.kind) + " instead of " +
             wire::frame_kind_name(expected));
  peer.pending = 0;
  return peer.frame;
}

std::span<const ShardBarrierView> FramedTransport::advance(
    const BarrierRequest& request) {
  const std::vector<std::uint8_t> payload =
      wire::encode_barrier_request(request);
  for (std::size_t r = 0; r < peers_.size(); ++r)
    send_frame(r, request.limit, wire::kFrameAdvance, payload);
  views_.clear();
  total_q_ = 0.0;
  total_q2_ = 0.0;
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer& peer = peers_[r];
    const auto t0 = std::chrono::steady_clock::now();
    const wire::DecodedFrame& frame =
        read_frame(r, request.limit, wire::kFrameBarrier);
    peer.stats.barrier_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    peer.data =
        wire::decode_barrier_payload(frame.payload, std::move(peer.data));
    ++peer.barriers_done;
    peer.last_barrier_time = request.limit;
    for (const ShardBarrierView& v : peer.data.views()) views_.push_back(v);
    if (peer.data.has_q) {
      total_q_ += peer.data.total_q;
      total_q2_ += peer.data.total_q2;
    }
  }
  return views_;
}

void FramedTransport::broadcast_thresholds(std::span<const double> values) {
  const std::vector<std::uint8_t> payload = wire::encode_thresholds(values);
  for (std::size_t r = 0; r < peers_.size(); ++r)
    send_frame(r, peers_[r].last_barrier_time, wire::kFrameThresholds,
               payload);
}

void FramedTransport::finalize(bool flipped) {
  const std::uint8_t payload[1] = {static_cast<std::uint8_t>(flipped ? 1 : 0)};
  const double t_mark = -1.0;  // finalize has no barrier time
  for (std::size_t r = 0; r < peers_.size(); ++r)
    send_frame(r, t_mark, wire::kFrameFinalize, payload);
  totals_.assign(n_devices_, DeviceTotals{});
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    const wire::FinalTotals fin = wire::decode_device_totals(
        read_frame(r, t_mark, wire::kFrameFinal).payload);
    if (fin.device_hi > n_devices_)
      throw RuntimeError("transport final totals exceed the device range");
    for (std::uint32_t d = fin.device_lo; d < fin.device_hi; ++d)
      totals_[d] = fin.totals[d - fin.device_lo];
    peers_[r].fd.reset();  // run complete
    on_final(r);
  }
}

DeviceTotals FramedTransport::device_totals(std::uint32_t device) const {
  MEC_EXPECTS(device < totals_.size());
  return totals_[device];
}

RankStats FramedTransport::rank_stats(std::size_t rank) const {
  MEC_EXPECTS(rank < peers_.size());
  return peers_[rank].stats;
}

// --- process backend ---------------------------------------------------------

std::optional<int> ChildProcess::reap(bool kill, long grace_ms) noexcept {
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  pid_t done = 0;
  if (kill) {
    // A child that already exited, or exits within the grace period (one
    // that sent its error frame is on its way out), keeps its own status.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (done == 0) ::kill(pid_, SIGKILL);
  }
  if (done == 0) done = ::waitpid(pid_, &status, 0);
  const bool reaped = done == pid_;
  pid_ = -1;
  return reaped ? std::optional<int>(status) : std::nullopt;
}

ProcessTransport::ProcessTransport(
    std::uint32_t n_devices,
    std::vector<std::vector<std::uint8_t>> populations,
    std::span<const double> initial_thresholds)
    : FramedTransport(populations.size(), n_devices, "transport",
                      "exited unexpectedly") {
  MEC_EXPECTS(!populations.empty());
  children_.reserve(populations.size());
  for (std::size_t r = 0; r < populations.size(); ++r) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw RuntimeError(std::string("transport socketpair failed: ") +
                         std::strerror(errno));
    ScopedFd ours(fds[0]);
    const ScopedFd theirs(fds[1]);
    const pid_t pid = ::fork();
    if (pid < 0)
      throw RuntimeError(std::string("transport fork failed: ") +
                         std::strerror(errno));
    if (pid == 0) {
      // Child: keep only this rank's channel, serve it as a `mec worker`
      // daemon would after its handshake, and leave through _exit so no
      // parent-owned state — atexit handlers, stream sinks, the handles on
      // this rank's siblings — is torn down twice.
      ours.reset();
      for (std::size_t q = 0; q < r; ++q) peers_[q].fd.reset();
      // Every rank's payload was inherited; this rank reads its own from
      // the channel like any other, so all of them are freed up front.
      std::vector<std::vector<std::uint8_t>>().swap(populations);
      int status = 1;
      try {
        net::serve_rank(theirs.get(), static_cast<std::uint32_t>(r),
                        timeout_ms_);
        status = 0;
      } catch (const std::exception& e) {
        try {
          wire::write_frame(theirs.get(), wire::kFrameError,
                            wire::encode_error(e.what()));
        } catch (...) {
        }
      } catch (...) {
      }
      ::_exit(status);
    }
    children_.emplace_back(pid);
    peers_[r].fd = std::move(ours);
  }
  start(std::move(populations), initial_thresholds);
}

std::string ProcessTransport::describe_peer(std::size_t rank) {
  // Up to a quarter of the read deadline (at most 1 s) for a rank that is
  // already exiting on its own, so its exit status is reported, not a kill.
  const long grace_ms = std::min(timeout_ms_ / 4, 1000L);
  const std::optional<int> status =
      children_[rank].reap(/*kill=*/true, grace_ms);
  if (status && WIFEXITED(*status))
    return "(exit status " + std::to_string(WEXITSTATUS(*status)) + ")";
  if (status && WIFSIGNALED(*status) && WTERMSIG(*status) != SIGKILL)
    return "(killed by signal " + std::to_string(WTERMSIG(*status)) + ")";
  return "(unresponsive, killed)";
}

void ProcessTransport::on_final(std::size_t rank) {
  children_[rank].reap(/*kill=*/false);
}

}  // namespace mec::parallel
