// Wire-format pinning for the rank-transport frames (parallel/transport.cpp)
// and the .meclog envelope they share.
//
// The transport protocol is a cross-process contract: a coordinator built
// from one revision of the tree must refuse — not misparse — frames from a
// worker built from another.  Three layers of defense are pinned here:
//
//   1. golden byte vectors: the exact on-wire bytes of the envelope and of
//      each payload codec, so any layout drift (field order, width,
//      endianness) fails loudly against hand-written expectations;
//   2. rejection tests: truncation at every byte boundary, CRC corruption
//      at every byte position, oversized length fields, trailing bytes;
//   3. round-trip property tests: randomized payloads survive
//      encode -> decode -> re-encode bit-identically.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;
using namespace mec::parallel;

std::vector<std::uint8_t> bytes(std::initializer_list<unsigned> vals) {
  std::vector<std::uint8_t> out;
  out.reserve(vals.size());
  for (const unsigned v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

void append_f64_le(std::vector<std::uint8_t>& out, double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFFu));
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

void patch_u32_le(std::vector<std::uint8_t>& out, std::size_t pos,
                  std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return {};
}

/// A count the payload cannot hold must be refused by the count check,
/// before the decoder sizes anything from it: the message names the claim.
/// (Were the check missing, the decoder would first try to allocate for
/// the claimed count — gigabytes — and only then underflow.)
void expect_count_rejected(const std::function<void()>& decode) {
  const std::string what = thrown_message(decode);
  EXPECT_NE(what.find("bytes remain"), std::string::npos) << what;
}

// --- envelope --------------------------------------------------------------

TEST(TransportWire, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 (IEEE 802.3, reflected) check value: any change to
  // the polynomial, reflection, or final XOR breaks every stored log.
  const std::string check = "123456789";
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(obs::crc32(payload), 0xCBF43926u);
}

/// Byte-at-a-time CRC-32 straight from the reflected polynomial: the
/// reference the slicing-by-8 obs::crc32 must reproduce exactly.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(TransportWire, SlicedCrc32MatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..72 cover the pure-tail case, exact multiples of the 8-byte
  // stride and every remainder; offsets 0..7 every start alignment.
  std::mt19937_64 rng(20261017);
  std::vector<std::uint8_t> buf(80);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 72; ++length) {
      const std::span<const std::uint8_t> s(buf.data() + offset, length);
      EXPECT_EQ(obs::crc32(s), reference_crc32(s))
          << "offset=" << offset << " length=" << length;
    }
}

TEST(TransportWire, SlicedCrc32MatchesTheBytewiseReferenceOnRandomMebibytes) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> buf(std::size_t{1} << 20);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(obs::crc32(buf), reference_crc32(buf)) << "seed=" << seed;
  }
}

TEST(TransportWire, FrameEnvelopeMatchesTheGoldenBytes) {
  // u32 kind | u32 length | payload | u32 CRC32(payload), all little-endian.
  const std::vector<std::uint8_t> payload =
      bytes({0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39});
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::kFrameAdvance, payload);
  const std::vector<std::uint8_t> golden = bytes({
      0x10, 0x00, 0x00, 0x00,                                // kind = 0x10
      0x09, 0x00, 0x00, 0x00,                                // length = 9
      0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,  // "123456789"
      0x26, 0x39, 0xF4, 0xCB,                                // CRC 0xCBF43926
  });
  EXPECT_EQ(frame, golden);
  EXPECT_EQ(frame.size(), wire::kFrameOverhead + payload.size());

  std::size_t consumed = 0;
  const wire::DecodedFrame decoded = wire::decode_frame(frame, &consumed);
  EXPECT_EQ(decoded.kind, wire::kFrameAdvance);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(consumed, frame.size());
}

TEST(TransportWire, FrameKindsArePinnedAndDisjointFromRunLogKinds) {
  // Renumbering a frame kind silently breaks cross-revision runs; pin them.
  EXPECT_EQ(wire::kFrameAdvance, 0x10u);
  EXPECT_EQ(wire::kFrameThresholds, 0x11u);
  EXPECT_EQ(wire::kFrameFinalize, 0x12u);
  EXPECT_EQ(wire::kFrameHello, 0x13u);
  EXPECT_EQ(wire::kFramePopulation, 0x14u);
  EXPECT_EQ(wire::kFrameBarrier, 0x20u);
  EXPECT_EQ(wire::kFrameFinal, 0x21u);
  EXPECT_EQ(wire::kFrameHelloAck, 0x22u);
  EXPECT_EQ(wire::kFrameReady, 0x23u);
  EXPECT_EQ(wire::kFrameError, 0x2Fu);
  // Disjoint from obs::FrameKind (1..4), so a misdirected frame can never
  // masquerade as run-log data.
  EXPECT_GT(wire::kFrameAdvance,
            static_cast<std::uint32_t>(obs::FrameKind::kFooter));
}

TEST(TransportWire, DecodeRejectsTruncationAtEveryByteBoundary) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_THROW(wire::decode_frame(prefix), RuntimeError) << "cut=" << cut;
  }
  const std::string what = thrown_message(
      [&] { wire::decode_frame(std::span(frame.data(), frame.size() - 1)); });
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST(TransportWire, DecodeRejectsCorruptionAtEveryBytePosition) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  // Any flipped bit in the payload or the checksum is a CRC mismatch.  (A
  // corrupted kind/length header is also rejected, but the diagnostic
  // depends on which field the flip lands in.)
  for (std::size_t pos = 8; pos < frame.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x01;
    const std::string what =
        thrown_message([&] { wire::decode_frame(corrupt); });
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos)
        << "pos=" << pos << " what=" << what;
  }
}

TEST(TransportWire, DecodeRejectsOversizedLengthFields) {
  std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  for (std::size_t i = 4; i < 8; ++i) frame[i] = 0xFF;  // length = 2^32 - 1
  const std::string what = thrown_message([&] { wire::decode_frame(frame); });
  EXPECT_NE(what.find("size cap"), std::string::npos) << what;
}

/// A payload far larger than a socket buffer, so the gathered write has to
/// resume after short writes.
std::vector<std::uint8_t> large_payload(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Runs `write` on a thread against one end of a socketpair while `read`
/// consumes the other end.  The writer is joined on every path: the read
/// end is closed first, so a writer blocked on a full socket fails instead
/// of hanging the test.
void with_socket_writer(const std::function<void(int)>& write,
                        const std::function<void(int)>& read) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([&] {
    try {
      write(fds[1]);
    } catch (const std::exception&) {
    }
  });
  try {
    read(fds[0]);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  ::close(fds[0]);
  writer.join();
  ::close(fds[1]);
}

TEST(TransportWire, WriteFrameSendsExactlyTheEncodedFrameBytes) {
  const std::vector<std::uint8_t> big = large_payload(3u << 20, 5);
  const std::vector<std::uint8_t> empty;
  std::vector<std::uint8_t> expected = wire::encode_frame(0x20, big);
  const std::vector<std::uint8_t> tail = wire::encode_frame(0x11, empty);
  expected.insert(expected.end(), tail.begin(), tail.end());
  std::vector<std::uint8_t> got;
  with_socket_writer(
      [&](int fd) {
        wire::write_frame(fd, 0x20, big);
        wire::write_frame(fd, 0x11, empty);
        ::shutdown(fd, SHUT_WR);
      },
      [&](int fd) {
        std::uint8_t chunk[65536];
        for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) > 0;)
          got.insert(got.end(), chunk, chunk + n);
      });
  EXPECT_TRUE(got == expected) << got.size() << " vs " << expected.size();
}

TEST(TransportWire, ReadFrameDeadlineReturnsTheRecycledReceiveBuffer) {
  const std::vector<std::uint8_t> big = large_payload(2u << 20, 6);
  const std::vector<std::uint8_t> small = large_payload(1000, 7);
  with_socket_writer(
      [&](int fd) {
        wire::write_frame(fd, wire::kFrameBarrier, big);
        wire::write_frame(fd, wire::kFrameBarrier, small);
        wire::write_frame(fd, wire::kFrameFinal, {});
      },
      [&](int fd) {
        wire::DecodedFrame frame = wire::read_frame_deadline(fd, 5000);
        EXPECT_EQ(frame.kind, wire::kFrameBarrier);
        EXPECT_TRUE(frame.payload == big);
        // The next frames land in the same allocation; the CRC tail is
        // trimmed off, not copied away.
        const std::uint8_t* buffer = frame.payload.data();
        frame = wire::read_frame_deadline(fd, 5000, std::move(frame.payload));
        EXPECT_EQ(frame.payload, small);
        EXPECT_EQ(frame.payload.data(), buffer);
        frame = wire::read_frame_deadline(fd, 5000, std::move(frame.payload));
        EXPECT_EQ(frame.kind, wire::kFrameFinal);
        EXPECT_TRUE(frame.payload.empty());
        EXPECT_EQ(frame.payload.data(), buffer);
      });
}

// --- barrier request -------------------------------------------------------

TEST(TransportWire, BarrierRequestMatchesTheGoldenBytes) {
  BarrierRequest req;
  req.limit = 1.0;
  req.inclusive = true;
  req.want_q = false;
  req.want_q2 = true;
  req.want_sketches = false;
  req.want_queue_stats = true;
  const std::vector<std::uint8_t> golden = bytes({
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
      0x01, 0x00, 0x01, 0x00, 0x01,                    // the five flags
  });
  EXPECT_EQ(wire::encode_barrier_request(req), golden);
}

TEST(TransportWire, BarrierRequestRoundTripsEveryFlagCombination) {
  for (unsigned mask = 0; mask < 32; ++mask) {
    BarrierRequest req;
    req.limit = 0.125 * static_cast<double>(mask + 1);
    req.inclusive = (mask & 1u) != 0;
    req.want_q = (mask & 2u) != 0;
    req.want_q2 = (mask & 4u) != 0;
    req.want_sketches = (mask & 8u) != 0;
    req.want_queue_stats = (mask & 16u) != 0;
    const BarrierRequest back =
        wire::decode_barrier_request(wire::encode_barrier_request(req));
    EXPECT_EQ(back.limit, req.limit);
    EXPECT_EQ(back.inclusive, req.inclusive);
    EXPECT_EQ(back.want_q, req.want_q);
    EXPECT_EQ(back.want_q2, req.want_q2);
    EXPECT_EQ(back.want_sketches, req.want_sketches);
    EXPECT_EQ(back.want_queue_stats, req.want_queue_stats);
  }
}

// --- thresholds ------------------------------------------------------------

TEST(TransportWire, ThresholdsMatchTheGoldenBytes) {
  std::vector<std::uint8_t> golden = bytes({0x02, 0x00, 0x00, 0x00});
  append_f64_le(golden, 1.0);
  append_f64_le(golden, -1.0);
  const double values[] = {1.0, -1.0};
  EXPECT_EQ(wire::encode_thresholds(values), golden);
  EXPECT_EQ(wire::decode_thresholds(golden), std::vector<double>(
                                                 {1.0, -1.0}));
}

TEST(TransportWire, ThresholdsRejectACountThePayloadCannotHold) {
  // 12 bytes claiming 2^28 values (2 GiB): refused before the vector exists.
  std::vector<std::uint8_t> hostile = bytes({0x00, 0x00, 0x00, 0x10});
  append_f64_le(hostile, 1.0);
  expect_count_rejected([&] { wire::decode_thresholds(hostile); });
}

// --- error frame -----------------------------------------------------------

TEST(TransportWire, ErrorPayloadMatchesTheGoldenBytesAndRoundTrips) {
  const std::vector<std::uint8_t> golden =
      bytes({0x04, 0x00, 0x00, 0x00, 'o', 'o', 'p', 's'});
  EXPECT_EQ(wire::encode_error("oops"), golden);
  EXPECT_EQ(wire::decode_error(golden), "oops");
  EXPECT_EQ(wire::decode_error(wire::encode_error("")), "");
  std::vector<std::uint8_t> trailing = golden;
  trailing.push_back(0);
  EXPECT_NE(thrown_message([&] { wire::decode_error(trailing); })
                .find("trailing bytes"),
            std::string::npos);
}

TEST(TransportWire, ErrorPayloadRejectsALengthThePayloadCannotHold) {
  // 8 bytes claiming a 4 GiB text: refused before the string exists.
  const std::vector<std::uint8_t> hostile =
      bytes({0xFF, 0xFF, 0xFF, 0xFF, 'o', 'o', 'p', 's'});
  expect_count_rejected([&] { wire::decode_error(hostile); });
}

// --- device totals ---------------------------------------------------------

TEST(TransportWire, DeviceTotalsMatchTheGoldenBytes) {
  DeviceTotals t;
  t.arrivals = 1;
  t.offloaded = 2;
  t.local_completed = 3;
  t.queue_integral = 0.5;
  t.local_sojourn_sum = 1.5;
  t.offload_delay_sum = 2.5;
  t.energy_sum = 2.0;
  std::vector<std::uint8_t> golden = bytes({
      0x07, 0x00, 0x00, 0x00,  // device_lo = 7
      0x08, 0x00, 0x00, 0x00,  // device_hi = 8
  });
  append_u64_le(golden, 1);
  append_u64_le(golden, 2);
  append_u64_le(golden, 3);
  append_f64_le(golden, 0.5);
  append_f64_le(golden, 1.5);
  append_f64_le(golden, 2.5);
  append_f64_le(golden, 2.0);
  const std::vector<std::uint8_t> enc =
      wire::encode_device_totals(7, 8, std::span(&t, 1));
  EXPECT_EQ(enc, golden);
  EXPECT_EQ(enc.size(), 8 + wire::kDeviceTotalsWireSize);

  const wire::FinalTotals back = wire::decode_device_totals(enc);
  EXPECT_EQ(back.device_lo, 7u);
  EXPECT_EQ(back.device_hi, 8u);
  ASSERT_EQ(back.totals.size(), 1u);
  EXPECT_EQ(back.totals[0].arrivals, 1u);
  EXPECT_EQ(back.totals[0].offloaded, 2u);
  EXPECT_EQ(back.totals[0].local_completed, 3u);
  EXPECT_EQ(back.totals[0].queue_integral, 0.5);
  EXPECT_EQ(back.totals[0].local_sojourn_sum, 1.5);
  EXPECT_EQ(back.totals[0].offload_delay_sum, 2.5);
  EXPECT_EQ(back.totals[0].energy_sum, 2.0);
}

TEST(TransportWire, DeviceTotalsRejectMalformedPayloads) {
  DeviceTotals t;
  std::vector<std::uint8_t> enc =
      wire::encode_device_totals(0, 1, std::span(&t, 1));
  // Trailing bytes mean the peer and we disagree about the layout.
  enc.push_back(0x00);
  std::string what =
      thrown_message([&] { wire::decode_device_totals(enc); });
  EXPECT_NE(what.find("trailing"), std::string::npos) << what;
  // An inverted device range cannot size the totals vector.
  std::vector<std::uint8_t> inverted =
      bytes({0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00});
  what = thrown_message([&] { wire::decode_device_totals(inverted); });
  EXPECT_NE(what.find("inverted"), std::string::npos) << what;
}

TEST(TransportWire, DeviceTotalsRejectARangeThePayloadCannotHold) {
  // Devices [0, 2^28) would be 14 GiB of totals; the payload has none.
  const std::vector<std::uint8_t> hostile =
      bytes({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10});
  expect_count_rejected([&] { wire::decode_device_totals(hostile); });
}

// --- barrier payload -------------------------------------------------------

TEST(TransportWire, EmptyBarrierPayloadMatchesTheGoldenBytes) {
  // Zero shards, no queue sums: u32 shard count + u8 has_q.
  const std::vector<std::uint8_t> enc =
      wire::encode_barrier_payload({}, false, 0.0, 0.0);
  EXPECT_EQ(enc, bytes({0x00, 0x00, 0x00, 0x00, 0x00}));

  std::vector<std::uint8_t> trailing = enc;
  trailing.push_back(0x00);
  const std::string what =
      thrown_message([&] { wire::decode_barrier_payload(trailing); });
  EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
}

wire::RankBarrierData sample_rank_data(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 100.0);
  wire::RankBarrierData data;
  data.shards.resize(2);

  wire::RankBarrierData::Shard& a = data.shards[0];
  a.shard = 3;
  a.events = rng();
  a.offloads_in_window = rng() % 1000;
  a.tasks_lost = rng() % 10;
  a.offloads_rejected = rng() % 10;
  a.offloads_penalized = rng() % 10;
  a.cluster_offloads = {rng() % 100, rng() % 100, rng() % 100};
  a.flipped = true;
  a.log.resize(5);
  for (sim::OffloadRecord& rec : a.log) {
    rec.time = uni(rng);
    rec.latency = uni(rng);
    rec.penalty = (rng() % 2) != 0 ? uni(rng) : 0.0;
    rec.device = static_cast<std::uint32_t>(rng() % 4096);
    rec.cluster = static_cast<std::uint16_t>(rng() % 3);
    rec.measured = (rng() % 2) != 0;
    rec.penalized = rec.penalty > 0.0;
  }
  a.has_sketches = true;
  for (int i = 0; i < 64; ++i) a.local_sojourns.add(uni(rng));
  for (int i = 0; i < 16; ++i) a.offload_delays.add(uni(rng));
  a.has_queue_stats = true;
  a.queue_depth = uni(rng);
  a.calendar_gear = 2.0;
  a.gear_switches = 5.0;
  a.calendar_retunes = 1.0;
  a.leg_seconds = uni(rng) * 1e-3;

  // The second shard exercises the all-optional-blocks-absent arm.
  wire::RankBarrierData::Shard& b = data.shards[1];
  b.shard = 4;
  b.events = rng();
  b.cluster_offloads = {0, 0, 0};

  data.has_q = true;
  data.total_q = static_cast<double>(rng() % 1000);
  data.total_q2 = static_cast<double>(rng() % 100000);
  return data;
}

TEST(TransportWire, BarrierPayloadRoundTripsBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const wire::RankBarrierData data = sample_rank_data(seed);
    const std::vector<ShardBarrierView> views = data.views();
    const std::vector<std::uint8_t> enc =
        wire::encode_barrier_payload(views, data.has_q, data.total_q,
                                     data.total_q2);
    const wire::RankBarrierData back = wire::decode_barrier_payload(enc);
    // decode(encode(x)) == x, proven by re-encoding: the codec has no
    // redundant representations, so byte equality is state equality.
    const std::vector<std::uint8_t> enc2 = wire::encode_barrier_payload(
        back.views(), back.has_q, back.total_q, back.total_q2);
    EXPECT_EQ(enc, enc2) << "seed=" << seed;

    // Spot-check the semantic fields the coordinator actually consumes.
    ASSERT_EQ(back.shards.size(), data.shards.size());
    const auto& a0 = data.shards[0];
    const auto& b0 = back.shards[0];
    EXPECT_EQ(b0.shard, a0.shard);
    EXPECT_EQ(b0.events, a0.events);
    EXPECT_EQ(b0.cluster_offloads, a0.cluster_offloads);
    ASSERT_EQ(b0.log.size(), a0.log.size());
    for (std::size_t i = 0; i < a0.log.size(); ++i) {
      EXPECT_EQ(b0.log[i].time, a0.log[i].time);
      EXPECT_EQ(b0.log[i].latency, a0.log[i].latency);
      EXPECT_EQ(b0.log[i].device, a0.log[i].device);
      EXPECT_EQ(b0.log[i].cluster, a0.log[i].cluster);
      EXPECT_EQ(b0.log[i].measured, a0.log[i].measured);
      EXPECT_EQ(b0.log[i].penalized, a0.log[i].penalized);
    }
    // Sketches cross the boundary bit-identically: count, extrema, and
    // every quantile the stream log will later report.
    EXPECT_EQ(b0.local_sojourns.count(), a0.local_sojourns.count());
    EXPECT_EQ(b0.local_sojourns.min(), a0.local_sojourns.min());
    EXPECT_EQ(b0.local_sojourns.max(), a0.local_sojourns.max());
    EXPECT_EQ(b0.local_sojourns.p50(), a0.local_sojourns.p50());
    EXPECT_EQ(b0.local_sojourns.p99(), a0.local_sojourns.p99());
    EXPECT_EQ(back.total_q, data.total_q);
    EXPECT_EQ(back.total_q2, data.total_q2);
  }
}

TEST(TransportWire, BarrierPayloadRejectsTruncation) {
  const wire::RankBarrierData data = sample_rank_data(99);
  const std::vector<std::uint8_t> enc = wire::encode_barrier_payload(
      data.views(), data.has_q, data.total_q, data.total_q2);
  // Cut inside the shard block, the log, the sketch, and the queue stats.
  for (const std::size_t cut : {std::size_t{3}, enc.size() / 4,
                                enc.size() / 2, enc.size() - 1}) {
    EXPECT_THROW(
        wire::decode_barrier_payload(std::span(enc.data(), cut)),
        RuntimeError)
        << "cut=" << cut;
  }
}

/// One shard, no clusters, no optional blocks, no queue sums, `records`
/// unmeasured log entries.  Layout: u32 shard count (offset 0), shard u32,
/// five u64 counters, u32 cluster count (offset 48), u8 flipped, u32 log
/// count (offset 53), the records from offset 57, then three u8 flags.
std::vector<std::uint8_t> one_shard_payload(std::size_t records) {
  std::vector<sim::OffloadRecord> log(records);
  for (std::size_t i = 0; i < records; ++i) {
    log[i].time = static_cast<double>(i);
    log[i].device = static_cast<std::uint32_t>(i);
  }
  ShardBarrierView v;
  v.log = log;
  const std::vector<std::uint8_t> enc =
      wire::encode_barrier_payload(std::span(&v, 1), false, 0.0, 0.0);
  EXPECT_EQ(enc.size(), 57 + records * wire::kOffloadRecordWireSize + 3);
  return enc;
}

TEST(TransportWire, BarrierPayloadRejectsCountsThePayloadCannotHold) {
  {
    std::vector<std::uint8_t> hostile =
        wire::encode_barrier_payload({}, false, 0.0, 0.0);
    patch_u32_le(hostile, 0, 0x0FFFFFFFu);  // shard count
    expect_count_rejected([&] { wire::decode_barrier_payload(hostile); });
  }
  {
    std::vector<std::uint8_t> hostile = one_shard_payload(0);
    patch_u32_le(hostile, 48, 0x10000000u);  // cluster count
    expect_count_rejected([&] { wire::decode_barrier_payload(hostile); });
  }
  {
    std::vector<std::uint8_t> hostile = one_shard_payload(0);
    patch_u32_le(hostile, 53, 0xFFFFFFFFu);  // log count
    expect_count_rejected([&] { wire::decode_barrier_payload(hostile); });
  }
  {
    // Three records on the wire, four claimed: one record too many.
    std::vector<std::uint8_t> hostile = one_shard_payload(3);
    patch_u32_le(hostile, 53, 4);
    expect_count_rejected([&] { wire::decode_barrier_payload(hostile); });
  }
}

TEST(TransportWire, BarrierPayloadReadsAnyNonZeroFlagByteAsTrue) {
  // The log is decoded in bulk, but the two flag bytes are read as
  // `byte != 0`, never copied into a bool: 0x02 and 0xFF mean true (and
  // would be invalid bools under -fsanitize=bool if copied as is).
  std::vector<std::uint8_t> enc = one_shard_payload(2);
  const std::size_t rec0 = 57;
  const std::size_t rec1 = rec0 + wire::kOffloadRecordWireSize;
  EXPECT_EQ(enc[rec0 + 30], 0x00);
  EXPECT_EQ(enc[rec0 + 31], 0x00);
  enc[rec0 + 30] = 0x02;
  enc[rec0 + 31] = 0xFF;
  enc[rec1 + 31] = 0x80;
  const wire::RankBarrierData back = wire::decode_barrier_payload(enc);
  ASSERT_EQ(back.shards.size(), 1u);
  ASSERT_EQ(back.shards[0].log.size(), 2u);
  const sim::OffloadRecord& a = back.shards[0].log[0];
  const sim::OffloadRecord& b = back.shards[0].log[1];
  EXPECT_TRUE(a.measured);
  EXPECT_TRUE(a.penalized);
  EXPECT_FALSE(b.measured);
  EXPECT_TRUE(b.penalized);
  EXPECT_EQ(a.time, 0.0);
  EXPECT_EQ(b.time, 1.0);
  EXPECT_EQ(b.device, 1u);
  // Re-encoding writes the canonical 0x01.
  const std::vector<std::uint8_t> canon = wire::encode_barrier_payload(
      back.views(), back.has_q, back.total_q, back.total_q2);
  EXPECT_EQ(canon[rec0 + 30], 0x01);
  EXPECT_EQ(canon[rec0 + 31], 0x01);
  EXPECT_EQ(canon[rec1 + 30], 0x00);
  EXPECT_EQ(canon[rec1 + 31], 0x01);
}

TEST(TransportWire, ManyShardBarrierPayloadWithEmptyLogsRoundTrips) {
  // Five shards, three of them with empty logs, decoded both fresh and
  // into a recycled RankBarrierData that still holds a larger, differently
  // shaped earlier barrier: both must give the same state.
  wire::RankBarrierData data;
  data.shards.resize(5);
  const std::size_t log_sizes[] = {0, 3, 0, 0, 7};
  std::mt19937_64 rng(11);
  for (std::size_t i = 0; i < data.shards.size(); ++i) {
    wire::RankBarrierData::Shard& s = data.shards[i];
    s.shard = static_cast<std::uint32_t>(10 + i);
    s.events = rng();
    s.cluster_offloads = {rng() % 7, rng() % 7};
    s.log.resize(log_sizes[i]);
    for (sim::OffloadRecord& rec : s.log) {
      rec.time = static_cast<double>(rng() % 1000) / 8.0;
      rec.latency = static_cast<double>(rng() % 1000) / 16.0;
      rec.device = static_cast<std::uint32_t>(rng() % 100000);
      rec.cluster = static_cast<std::uint16_t>(rng() % 2);
      rec.measured = (rng() % 2) != 0;
      rec.penalized = (rng() % 2) != 0;
    }
  }
  const std::vector<std::uint8_t> enc =
      wire::encode_barrier_payload(data.views(), false, 0.0, 0.0);

  const wire::RankBarrierData fresh = wire::decode_barrier_payload(enc);
  wire::RankBarrierData recycled = sample_rank_data(3);
  recycled.shards.resize(7);
  recycled.shards[4].log.resize(100);
  recycled = wire::decode_barrier_payload(enc, std::move(recycled));

  for (const wire::RankBarrierData* back :
       std::initializer_list<const wire::RankBarrierData*>{&fresh,
                                                           &recycled}) {
    EXPECT_EQ(wire::encode_barrier_payload(back->views(), back->has_q,
                                           back->total_q, back->total_q2),
              enc);
    ASSERT_EQ(back->shards.size(), 5u);
    EXPECT_FALSE(back->has_q);
    EXPECT_EQ(back->total_q, 0.0);
    for (std::size_t i = 0; i < 5; ++i) {
      const wire::RankBarrierData::Shard& s = back->shards[i];
      EXPECT_EQ(s.shard, data.shards[i].shard);
      EXPECT_EQ(s.cluster_offloads, data.shards[i].cluster_offloads);
      ASSERT_EQ(s.log.size(), log_sizes[i]);
      for (std::size_t k = 0; k < s.log.size(); ++k) {
        EXPECT_EQ(s.log[k].time, data.shards[i].log[k].time);
        EXPECT_EQ(s.log[k].device, data.shards[i].log[k].device);
        EXPECT_EQ(s.log[k].measured, data.shards[i].log[k].measured);
        EXPECT_EQ(s.log[k].penalized, data.shards[i].log[k].penalized);
      }
      EXPECT_FALSE(s.has_sketches);
      EXPECT_EQ(s.local_sojourns.count(), 0u);
      EXPECT_FALSE(s.has_queue_stats);
      EXPECT_EQ(s.queue_depth, 0.0);
    }
  }
}

// --- .meclog envelope ------------------------------------------------------

std::string test_scoped_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name() + "_" + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string write_minimal_log(const std::string& path) {
  obs::RunLogMeta meta;
  meta.emplace_back("scenario", "wire-format-test");
  obs::RunLogWriter writer(path, meta);
  obs::WindowRecord window;
  window.time = 1.0;
  window.gamma = 0.25;
  writer.append_window(window);
  obs::RunFooter footer;
  footer.windows = 1;
  writer.finish(footer);
  return path;
}

TEST(RunLogWire, ScanRejectsAFlippedPayloadByte) {
  const std::string path = test_scoped_path("corrupt.meclog");
  write_minimal_log(path);
  // Flip one byte inside the first frame's payload (the 24-byte file
  // header is magic + version + padding; frames start right after it).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24 + 8);  // first frame: skip kind + length
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(24 + 8);
    f.write(&byte, 1);
  }
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.corrupt);
  std::filesystem::remove(path);
}

TEST(RunLogWire, ScanTreatsAPartialTailFrameAsTruncation) {
  const std::string path = test_scoped_path("truncated.meclog");
  write_minimal_log(path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);  // cut into the footer frame
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.truncated);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_FALSE(scan.footer.has_value());
  EXPECT_EQ(scan.windows.size(), 1u);
  std::filesystem::remove(path);
}

TEST(RunLogWire, MetaAndCounterFramesRejectCountsThePayloadCannotHold) {
  const std::vector<std::uint8_t> hostile = bytes({0xFF, 0xFF, 0xFF, 0x0F});
  expect_count_rejected([&] { obs::decode_meta(hostile); });
  expect_count_rejected([&] { obs::decode_counters(hostile); });
}

// --- TCP handshake + population frames (net/protocol.cpp) ------------------

void append_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

TEST(NetWire, HelloMatchesTheGoldenBytes) {
  net::wire::Hello hello;
  hello.rank = 3;
  hello.ranks = 8;
  const std::vector<std::uint8_t> payload = net::wire::encode_hello(hello);
  // magic "MECT" | revision | rank | ranks, all u32 LE.
  const std::vector<std::uint8_t> golden = bytes({
      0x4D, 0x45, 0x43, 0x54,  // "MECT"
      0x02, 0x00, 0x00, 0x00,  // schema revision 2
      0x03, 0x00, 0x00, 0x00,  // rank 3
      0x08, 0x00, 0x00, 0x00,  // of 8 ranks
  });
  EXPECT_EQ(payload, golden);
  EXPECT_EQ(payload.size(), net::wire::kHelloWireSize);
  const net::wire::Hello back = net::wire::decode_hello(payload);
  EXPECT_EQ(back.revision, net::wire::kSchemaRevision);
  EXPECT_EQ(back.rank, 3u);
  EXPECT_EQ(back.ranks, 8u);
}

TEST(NetWire, HelloAckMatchesTheGoldenBytes) {
  net::wire::HelloAck ack;
  ack.rank = 3;
  const std::vector<std::uint8_t> payload = net::wire::encode_hello_ack(ack);
  const std::vector<std::uint8_t> golden = bytes({
      0x4D, 0x45, 0x43, 0x54,  // "MECT"
      0x02, 0x00, 0x00, 0x00,  // schema revision 2
      0x03, 0x00, 0x00, 0x00,  // rank echo
  });
  EXPECT_EQ(payload, golden);
  EXPECT_EQ(payload.size(), net::wire::kHelloAckWireSize);
  const net::wire::HelloAck back = net::wire::decode_hello_ack(payload);
  EXPECT_EQ(back.revision, net::wire::kSchemaRevision);
  EXPECT_EQ(back.rank, 3u);
}

TEST(NetWire, HelloRejectsABadMagicNamingTheExpectation) {
  // An HTTP client (or any non-mec peer) that happens to frame correctly
  // still dies at the magic, with a diagnostic a human can act on.
  std::vector<std::uint8_t> payload = net::wire::encode_hello({});
  payload[0] = 'H';
  payload[1] = 'T';
  payload[2] = 'T';
  payload[3] = 'P';
  const std::string what =
      thrown_message([&] { net::wire::decode_hello(payload); });
  EXPECT_NE(what.find("magic mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("not a mec transport endpoint"), std::string::npos)
      << what;
  EXPECT_NE(what.find("MECT"), std::string::npos) << what;
}

TEST(NetWire, HelloRejectsTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> payload = net::wire::encode_hello({});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW(net::wire::decode_hello(prefix), RuntimeError)
        << "cut=" << cut;
  }
  payload.push_back(0x00);
  const std::string what =
      thrown_message([&] { net::wire::decode_hello(payload); });
  EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
  std::vector<std::uint8_t> ack = net::wire::encode_hello_ack({});
  ack.push_back(0x00);
  EXPECT_THROW(net::wire::decode_hello_ack(ack), RuntimeError);
}

/// A two-rank population whose rank 1 owns shards [2, 4) of 4 and devices
/// [2, 5) of 5 — small enough to write the golden bytes by hand, rich
/// enough to cover every field (faults on, empirical latency data).
net::wire::WorkerPopulation sample_population() {
  net::wire::WorkerPopulation pop;
  pop.rank = 1;
  pop.ranks = 2;
  pop.seed = 0x0123456789ABCDEFull;
  pop.n_devices = 5;
  pop.n_initial = 4;
  pop.n_clusters = 2;
  pop.shard_count = 4;
  pop.shard_lo = 2;
  pop.shard_hi = 4;
  pop.device_lo = 2;
  pop.device_hi = 5;
  pop.warmup = 1.5;
  pop.t_end = 40.0;
  pop.has_fixed_gamma = true;
  pop.fixed_delay = 0.75;
  pop.with_faults = true;
  pop.service.kind = sim::SamplerSpec::Kind::kErlang;
  pop.service.param = 4.0;
  pop.latency.kind = sim::SamplerSpec::Kind::kEmpirical;
  pop.latency.data = {0.25, 1.0};
  for (std::size_t i = 0; i < 3; ++i) {
    core::UserParams u;
    u.arrival_rate = 1.0 + static_cast<double>(i);
    u.service_rate = 3.0;
    u.offload_latency = 0.2;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
    pop.users.push_back(u);
  }
  fault::ResolvedAction a;
  a.time = 12.0;
  a.kind = fault::FaultKind::kOutageBegin;
  a.device = fault::ResolvedAction::kNoDevice;
  a.value = 0.4;
  a.outage_mode = fault::OutageMode::kPenalty;
  a.cluster = 1;
  a.effective = true;
  a.active_after = 3;
  pop.actions.push_back(a);
  return pop;
}

std::vector<std::uint8_t> golden_population_bytes(
    const net::wire::WorkerPopulation& pop) {
  std::vector<std::uint8_t> out;
  append_u32_le(out, pop.rank);
  append_u32_le(out, pop.ranks);
  append_u64_le(out, pop.seed);
  append_u32_le(out, pop.n_devices);
  append_u32_le(out, pop.n_initial);
  append_u32_le(out, pop.n_clusters);
  append_u32_le(out, pop.shard_count);
  append_u32_le(out, pop.shard_lo);
  append_u32_le(out, pop.shard_hi);
  append_u32_le(out, pop.device_lo);
  append_u32_le(out, pop.device_hi);
  append_f64_le(out, pop.warmup);
  append_f64_le(out, pop.t_end);
  out.push_back(pop.has_fixed_gamma ? 1 : 0);
  append_f64_le(out, pop.fixed_delay);
  out.push_back(pop.with_faults ? 1 : 0);
  for (const sim::SamplerSpec* spec : {&pop.service, &pop.latency}) {
    out.push_back(static_cast<std::uint8_t>(spec->kind));
    append_f64_le(out, spec->param);
    append_u32_le(out, static_cast<std::uint32_t>(spec->data.size()));
    for (const double v : spec->data) append_f64_le(out, v);
  }
  append_u32_le(out, static_cast<std::uint32_t>(pop.users.size()));
  for (const core::UserParams& u : pop.users) {
    append_f64_le(out, u.arrival_rate);
    append_f64_le(out, u.service_rate);
    append_f64_le(out, u.offload_latency);
    append_f64_le(out, u.energy_local);
    append_f64_le(out, u.energy_offload);
    append_f64_le(out, u.weight);
  }
  append_u32_le(out, static_cast<std::uint32_t>(pop.actions.size()));
  for (const fault::ResolvedAction& a : pop.actions) {
    append_f64_le(out, a.time);
    out.push_back(static_cast<std::uint8_t>(a.kind));
    append_u32_le(out, a.device);
    append_f64_le(out, a.value);
    out.push_back(static_cast<std::uint8_t>(a.outage_mode));
    append_u16_le(out, a.cluster);
    out.push_back(a.effective ? 1 : 0);
    append_u32_le(out, a.active_after);
  }
  return out;
}

TEST(NetWire, PopulationMatchesTheGoldenBytes) {
  const net::wire::WorkerPopulation pop = sample_population();
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  EXPECT_EQ(payload, golden_population_bytes(pop));
}

TEST(NetWire, PopulationRoundTripsBitIdentically) {
  std::mt19937_64 gen(20260808);
  std::uniform_real_distribution<double> real(0.01, 10.0);
  net::wire::WorkerPopulation pop = sample_population();
  pop.users.clear();
  for (std::size_t i = 0; i < 3; ++i) {
    core::UserParams u;
    u.arrival_rate = real(gen);
    u.service_rate = real(gen);
    u.offload_latency = real(gen);
    u.energy_local = real(gen);
    u.energy_offload = real(gen);
    u.weight = real(gen);
    pop.users.push_back(u);
  }
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  const net::wire::WorkerPopulation back =
      net::wire::decode_population(payload);
  // Re-encoding the decode must reproduce the exact bytes: nothing on this
  // path may truncate, reorder, or renormalize (f64 bit patterns
  // included).
  EXPECT_EQ(net::wire::encode_population(back), payload);
  EXPECT_EQ(back.rank, pop.rank);
  EXPECT_EQ(back.seed, pop.seed);
  EXPECT_EQ(back.latency.data, pop.latency.data);
  EXPECT_TRUE(back.service == pop.service);
}

TEST(NetWire, PopulationFrameSurvivesTheEnvelopeBatteries) {
  // Through the shared envelope: truncation at every byte boundary and
  // corruption at every payload/CRC position must refuse loudly, exactly as
  // for barrier frames (the daemon reads populations with the same decoder).
  const std::vector<std::uint8_t> payload =
      net::wire::encode_population(sample_population());
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::kFramePopulation, payload);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_THROW(wire::decode_frame(prefix), RuntimeError) << "cut=" << cut;
  }
  for (std::size_t pos = 8; pos < frame.size(); pos += 7) {
    std::vector<std::uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x01;
    const std::string what =
        thrown_message([&] { wire::decode_frame(corrupt); });
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos)
        << "pos=" << pos << " what=" << what;
  }
}

TEST(NetWire, PopulationRejectsTruncationAtEveryByteBoundary) {
  const std::vector<std::uint8_t> payload =
      net::wire::encode_population(sample_population());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW(net::wire::decode_population(prefix), RuntimeError)
        << "cut=" << cut;
  }
}

TEST(NetWire, PopulationRejectsCountsThePayloadCannotHold) {
  // With empty arrays the count fields sit at fixed offsets: service data
  // (83), latency data (96), users (100), actions (104).
  net::wire::WorkerPopulation pop = sample_population();
  pop.service.data.clear();
  pop.latency.data.clear();
  pop.users.clear();
  pop.actions.clear();
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  ASSERT_EQ(payload.size(), 108u);
  for (const std::size_t pos : {83, 96, 100, 104}) {
    std::vector<std::uint8_t> hostile = payload;
    patch_u32_le(hostile, pos, 0x10000000u);
    expect_count_rejected([&] { net::wire::decode_population(hostile); });
  }
}

TEST(NetWire, PopulationRejectsInconsistentAssignments) {
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.rank = 2;  // == ranks
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("assigns rank 2 of 2"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.shard_lo = 4;  // empty slice
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("invalid shard slice"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.device_hi = 9;  // beyond n_devices
    EXPECT_THROW(
        net::wire::decode_population(net::wire::encode_population(pop)),
        RuntimeError);
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.users.pop_back();  // 2 users for a 3-device slice
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("slice arrays"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.with_faults = false;  // but actions still present
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("with_faults is off"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.service.kind = static_cast<sim::SamplerSpec::Kind>(9);
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("unknown sampler kind 9"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.actions[0].kind = static_cast<fault::FaultKind>(200);
    const std::string what = thrown_message(
        [&] { net::wire::decode_population(net::wire::encode_population(pop)); });
    EXPECT_NE(what.find("unknown fault kind 200"), std::string::npos) << what;
  }
  {
    std::vector<std::uint8_t> payload =
        net::wire::encode_population(sample_population());
    payload.push_back(0x00);
    const std::string what =
        thrown_message([&] { net::wire::decode_population(payload); });
    EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
  }
}

}  // namespace
