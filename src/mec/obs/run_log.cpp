#include "mec/obs/run_log.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "mec/common/error.hpp"
#include "mec/obs/wire.hpp"

namespace mec::obs {
namespace {

// All multi-byte fields are little-endian on disk, independent of the host;
// the scalar codec lives in obs/wire.hpp, shared with the transport layer.
using wire::ByteReader;
using wire::ByteWriter;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

/// Slicing-by-8 tables: kCrcTables[0] is kCrcTable, and kCrcTables[k][b] is
/// the register contribution of byte b followed by k zero bytes, so eight
/// independent lookups advance the CRC by eight bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  tables[0] = kCrcTable;
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ kCrcTable[tables[k - 1][i] & 0xFFu];
  return tables;
}
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();

constexpr std::size_t kWindowDoubles = 15;
constexpr std::size_t kWindowU64s = 11;
/// Fixed (cluster-independent) part of a v2 window payload; the per-cluster
/// trailer appends a u32 cluster count plus 16 bytes per cluster.
constexpr std::size_t kWindowFixedSize =
    kWindowDoubles * 8 + kWindowU64s * 8 + kThresholdBins * 4;

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ wire::load_le<std::uint32_t>(p);
    const std::uint32_t hi = wire::load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::size_t window_payload_size(std::size_t clusters) noexcept {
  return kWindowFixedSize + 4 + clusters * 16;
}

std::vector<std::uint8_t> encode_meta(const RunLogMeta& meta) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(meta.size()));
  for (const auto& [key, value] : meta) {
    w.put_u32(static_cast<std::uint32_t>(key.size()));
    w.put_bytes(key.data(), key.size());
    w.put_u32(static_cast<std::uint32_t>(value.size()));
    w.put_bytes(value.data(), value.size());
  }
  return w.take();
}

std::vector<std::uint8_t> encode_window(const WindowRecord& window) {
  MEC_EXPECTS_MSG(!window.cluster_gamma.empty() &&
                      window.cluster_gamma.size() ==
                          window.cluster_offloads.size(),
                  "window record needs matching per-cluster vectors");
  ByteWriter w(window_payload_size(window.cluster_gamma.size()));
  w.put_f64(window.time);
  w.put_f64(window.gamma);
  w.put_f64(window.mean_queue_length);
  w.put_f64(window.queue_second_moment);
  w.put_f64(window.capacity_scale);
  w.put_u64(window.active_devices);
  w.put_u64(window.offloads_so_far);
  w.put_u64(window.offloads_delta);
  w.put_u64(window.events_so_far);
  w.put_u64(window.events_delta);
  w.put_u64(window.sojourn_count);
  w.put_f64(window.sojourn_min);
  w.put_f64(window.sojourn_max);
  w.put_f64(window.sojourn_p50);
  w.put_f64(window.sojourn_p95);
  w.put_f64(window.sojourn_p99);
  w.put_u64(window.offload_count);
  w.put_f64(window.offload_min);
  w.put_f64(window.offload_max);
  w.put_f64(window.offload_p50);
  w.put_f64(window.offload_p95);
  w.put_f64(window.offload_p99);
  w.put_u64(window.tasks_lost);
  w.put_u64(window.offloads_rejected);
  w.put_u64(window.offloads_penalized);
  w.put_u64(window.fault_events_applied);
  for (const std::uint32_t bin : window.threshold_histogram) w.put_u32(bin);
  w.put_u32(static_cast<std::uint32_t>(window.cluster_gamma.size()));
  for (std::size_t k = 0; k < window.cluster_gamma.size(); ++k) {
    w.put_f64(window.cluster_gamma[k]);
    w.put_u64(window.cluster_offloads[k]);
  }
  auto bytes = w.take();
  MEC_ASSERT(bytes.size() == window_payload_size(window.cluster_gamma.size()));
  return bytes;
}

std::vector<std::uint8_t> encode_counters(
    std::span<const CounterValue> values) {
  ByteWriter w(4 + values.size() * 12);
  w.put_u32(static_cast<std::uint32_t>(values.size()));
  for (const CounterValue& v : values) {
    w.put_u16(v.id);
    w.put_u16(v.shard);
    w.put_f64(v.value);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_footer(const RunFooter& footer) {
  ByteWriter w(5 * 8);
  w.put_u64(footer.windows);
  w.put_u64(footer.total_events);
  w.put_f64(footer.measured_utilization);
  w.put_f64(footer.mean_cost);
  w.put_f64(footer.horizon);
  return w.take();
}

RunLogMeta decode_meta(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  // Each entry is at least its two u32 string lengths.
  const std::size_t n = r.checked_count(r.get_u32(), 8);
  RunLogMeta meta;
  meta.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = r.get_string(r.get_u32());
    std::string value = r.get_string(r.get_u32());
    meta.emplace_back(std::move(key), std::move(value));
  }
  if (!r.exhausted())
    throw RuntimeError("run-log meta frame has trailing bytes");
  return meta;
}

WindowRecord decode_window(std::span<const std::uint8_t> payload) {
  if (payload.size() < kWindowFixedSize + 4)
    throw RuntimeError("run-log window frame has unexpected size");
  ByteReader r(payload);
  WindowRecord win;
  win.time = r.get_f64();
  win.gamma = r.get_f64();
  win.mean_queue_length = r.get_f64();
  win.queue_second_moment = r.get_f64();
  win.capacity_scale = r.get_f64();
  win.active_devices = r.get_u64();
  win.offloads_so_far = r.get_u64();
  win.offloads_delta = r.get_u64();
  win.events_so_far = r.get_u64();
  win.events_delta = r.get_u64();
  win.sojourn_count = r.get_u64();
  win.sojourn_min = r.get_f64();
  win.sojourn_max = r.get_f64();
  win.sojourn_p50 = r.get_f64();
  win.sojourn_p95 = r.get_f64();
  win.sojourn_p99 = r.get_f64();
  win.offload_count = r.get_u64();
  win.offload_min = r.get_f64();
  win.offload_max = r.get_f64();
  win.offload_p50 = r.get_f64();
  win.offload_p95 = r.get_f64();
  win.offload_p99 = r.get_f64();
  win.tasks_lost = r.get_u64();
  win.offloads_rejected = r.get_u64();
  win.offloads_penalized = r.get_u64();
  win.fault_events_applied = r.get_u64();
  for (std::uint32_t& bin : win.threshold_histogram) bin = r.get_u32();
  const std::uint32_t clusters = r.get_u32();
  if (clusters == 0 || payload.size() != window_payload_size(clusters))
    throw RuntimeError("run-log window frame has unexpected size");
  win.cluster_gamma.resize(clusters);
  win.cluster_offloads.resize(clusters);
  for (std::uint32_t k = 0; k < clusters; ++k) {
    win.cluster_gamma[k] = r.get_f64();
    win.cluster_offloads[k] = r.get_u64();
  }
  return win;
}

std::vector<CounterValue> decode_counters(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  // u16 id + u16 shard + f64 value per counter.
  const std::size_t n = r.checked_count(r.get_u32(), 12);
  std::vector<CounterValue> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CounterValue v;
    v.id = r.get_u16();
    v.shard = r.get_u16();
    v.value = r.get_f64();
    values.push_back(v);
  }
  if (!r.exhausted())
    throw RuntimeError("run-log counter frame has trailing bytes");
  return values;
}

RunFooter decode_footer(std::span<const std::uint8_t> payload) {
  if (payload.size() != 5 * 8)
    throw RuntimeError("run-log footer frame has unexpected size");
  ByteReader r(payload);
  RunFooter footer;
  footer.windows = r.get_u64();
  footer.total_events = r.get_u64();
  footer.measured_utilization = r.get_f64();
  footer.mean_cost = r.get_f64();
  footer.horizon = r.get_f64();
  return footer;
}

// --- writer ----------------------------------------------------------------

RunLogWriter::RunLogWriter(const std::string& path, const RunLogMeta& meta)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw RuntimeError("cannot open stream log for writing: " + path + ": " +
                       std::strerror(errno));
  ByteWriter header(24);
  header.put_bytes(kMagic.data(), kMagic.size());
  header.put_u32(kFormatVersion);
  header.put_u32(static_cast<std::uint32_t>(kThresholdBins));
  header.put_u32(0);  // flags (reserved)
  header.put_u32(0);  // reserved
  const auto bytes = header.take();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
    throw RuntimeError("failed writing stream log header: " + path_);
  write_frame(FrameKind::kMeta, encode_meta(meta));
}

RunLogWriter::~RunLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void RunLogWriter::write_frame(FrameKind kind,
                               std::span<const std::uint8_t> payload) {
  MEC_EXPECTS_MSG(!finished_, "stream log already finished");
  MEC_EXPECTS(payload.size() <= kMaxFramePayload);
  ByteWriter prefix(8);
  prefix.put_u32(static_cast<std::uint32_t>(kind));
  prefix.put_u32(static_cast<std::uint32_t>(payload.size()));
  ByteWriter suffix(4);
  suffix.put_u32(crc32(payload));
  const auto head = prefix.take();
  const auto tail = suffix.take();
  const bool ok =
      std::fwrite(head.data(), 1, head.size(), file_) == head.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), file_) ==
           payload.size()) &&
      std::fwrite(tail.data(), 1, tail.size(), file_) == tail.size() &&
      std::fflush(file_) == 0;
  if (!ok) throw RuntimeError("failed writing stream log frame: " + path_);
}

void RunLogWriter::append_window(const WindowRecord& window) {
  write_frame(FrameKind::kWindow, encode_window(window));
  ++windows_;
}

void RunLogWriter::append_counters(std::span<const CounterValue> values) {
  write_frame(FrameKind::kCounters, encode_counters(values));
}

void RunLogWriter::finish(const RunFooter& footer) {
  write_frame(FrameKind::kFooter, encode_footer(footer));
  finished_ = true;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw RuntimeError("failed closing stream log: " + path_);
}

// --- reader ----------------------------------------------------------------

RunLogReader::RunLogReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr)
    throw RuntimeError("cannot open stream log: " + path + ": " +
                       std::strerror(errno));
  std::array<std::uint8_t, 24> header{};
  if (std::fread(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw RuntimeError("not a .meclog file (truncated header): " + path);
  }
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw RuntimeError("not a .meclog file (bad magic): " + path);
  }
  version_ = wire::load_le<std::uint32_t>(header.data() + 8);
  const std::uint32_t bins = wire::load_le<std::uint32_t>(header.data() + 12);
  if (version_ != kFormatVersion || bins != kThresholdBins) {
    std::fclose(file_);
    file_ = nullptr;
    // A v1 log has the same family magic but no per-cluster block in its
    // window frames; parsing it as v2 would misread every window, so it is
    // rejected here instead of downstream.
    throw RuntimeError("unsupported .meclog schema in " + path + ": found v" +
                       std::to_string(version_) + " with " +
                       std::to_string(bins) + " histogram bins, this build " +
                       "reads v" + std::to_string(kFormatVersion) + " with " +
                       std::to_string(kThresholdBins) +
                       " bins; re-run the simulation to regenerate the log");
  }
}

RunLogReader::~RunLogReader() {
  if (file_ != nullptr) std::fclose(file_);
}

ReadStatus RunLogReader::next(Frame& out) {
  const long start = std::ftell(file_);
  const auto rewind = [&] {
    // Repositioning also clears the sticky EOF flag, so follow-mode callers
    // can retry next() after the file has grown.
    std::fseek(file_, start, SEEK_SET);
  };
  std::array<std::uint8_t, 8> prefix{};
  const std::size_t got = std::fread(prefix.data(), 1, prefix.size(), file_);
  if (got == 0) {
    rewind();
    return ReadStatus::kEndOfData;
  }
  if (got < prefix.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  const std::uint32_t kind = wire::load_le<std::uint32_t>(prefix.data());
  const std::uint32_t length = wire::load_le<std::uint32_t>(prefix.data() + 4);
  if (kind < static_cast<std::uint32_t>(FrameKind::kMeta) ||
      kind > static_cast<std::uint32_t>(FrameKind::kFooter) ||
      length > kMaxFramePayload) {
    rewind();
    return ReadStatus::kCorrupt;
  }
  std::vector<std::uint8_t> payload(length);
  if (length > 0 &&
      std::fread(payload.data(), 1, payload.size(), file_) != payload.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  std::array<std::uint8_t, 4> checksum{};
  if (std::fread(checksum.data(), 1, checksum.size(), file_) !=
      checksum.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  if (crc32(payload) != wire::load_le<std::uint32_t>(checksum.data())) {
    rewind();
    return ReadStatus::kCorrupt;
  }
  out.kind = static_cast<FrameKind>(kind);
  out.payload = std::move(payload);
  return ReadStatus::kFrame;
}

// --- whole-file scan -------------------------------------------------------

bool apply_frame(LogScan& scan, const Frame& frame, std::uint64_t index) {
  try {
    switch (frame.kind) {
      case FrameKind::kMeta:
        scan.meta = decode_meta(frame.payload);
        break;
      case FrameKind::kWindow:
        scan.windows.push_back(decode_window(frame.payload));
        break;
      case FrameKind::kCounters:
        scan.counters.push_back(decode_counters(frame.payload));
        break;
      case FrameKind::kFooter:
        scan.footer = decode_footer(frame.payload);
        break;
    }
  } catch (const RuntimeError& e) {
    scan.corrupt = true;
    scan.error = std::string(e.what()) + " (frame index " +
                 std::to_string(index) + ")";
    return false;
  }
  return true;
}

LogScan scan_log(const std::string& path) {
  RunLogReader reader(path);
  LogScan scan;
  Frame frame;
  std::uint64_t index = 0;
  for (;;) {
    const ReadStatus status = reader.next(frame);
    if (status == ReadStatus::kEndOfData) break;
    if (status == ReadStatus::kTruncated) {
      scan.truncated = true;
      break;
    }
    if (status == ReadStatus::kCorrupt) {
      scan.corrupt = true;
      scan.error =
          "corrupt frame (bad header or CRC mismatch) at frame index " +
          std::to_string(index);
      break;
    }
    if (!apply_frame(scan, frame, index)) break;
    ++index;
  }
  return scan;
}

// --- CSV export ------------------------------------------------------------

namespace {

std::string f64_cell(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void export_windows_csv(const LogScan& scan, const std::string& csv_path,
                        const std::string& hist_path) {
  std::ofstream out(csv_path);
  if (!out)
    throw RuntimeError("cannot open CSV output file: " + csv_path);
  // Every window of one log carries the same cluster count (it is a run
  // property), so the per-cluster columns come from the first window.
  const std::size_t clusters =
      scan.windows.empty() ? 0 : scan.windows.front().cluster_gamma.size();
  out << "window,time,gamma,mean_queue_length,queue_second_moment,"
         "capacity_scale,active_devices,offloads_so_far,offloads_delta,"
         "events_so_far,events_delta,sojourn_count,sojourn_min,sojourn_max,"
         "sojourn_p50,sojourn_p95,sojourn_p99,offload_count,offload_min,"
         "offload_max,offload_p50,offload_p95,offload_p99,tasks_lost,"
         "offloads_rejected,offloads_penalized,fault_events_applied";
  for (std::size_t k = 0; k < clusters; ++k)
    out << ",cluster" << k << "_gamma,cluster" << k << "_offloads";
  out << '\n';
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    const WindowRecord& w = scan.windows[i];
    out << i << ',' << f64_cell(w.time) << ',' << f64_cell(w.gamma) << ','
        << f64_cell(w.mean_queue_length) << ','
        << f64_cell(w.queue_second_moment) << ','
        << f64_cell(w.capacity_scale) << ',' << w.active_devices << ','
        << w.offloads_so_far << ',' << w.offloads_delta << ','
        << w.events_so_far << ',' << w.events_delta << ',' << w.sojourn_count
        << ',' << f64_cell(w.sojourn_min) << ',' << f64_cell(w.sojourn_max)
        << ',' << f64_cell(w.sojourn_p50) << ',' << f64_cell(w.sojourn_p95)
        << ',' << f64_cell(w.sojourn_p99) << ',' << w.offload_count << ','
        << f64_cell(w.offload_min) << ',' << f64_cell(w.offload_max) << ','
        << f64_cell(w.offload_p50) << ',' << f64_cell(w.offload_p95) << ','
        << f64_cell(w.offload_p99) << ',' << w.tasks_lost << ','
        << w.offloads_rejected << ',' << w.offloads_penalized << ','
        << w.fault_events_applied;
    for (std::size_t k = 0; k < clusters; ++k)
      out << ',' << f64_cell(w.cluster_gamma[k]) << ','
          << w.cluster_offloads[k];
    out << '\n';
  }
  if (!out) throw RuntimeError("failed writing CSV output file: " + csv_path);
  if (hist_path.empty()) return;
  std::ofstream hist(hist_path);
  if (!hist)
    throw RuntimeError("cannot open CSV output file: " + hist_path);
  hist << "window,bin,count\n";
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    const auto& bins = scan.windows[i].threshold_histogram;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] == 0) continue;
      hist << i << ',' << b << ',' << bins[b] << '\n';
    }
  }
  if (!hist)
    throw RuntimeError("failed writing CSV output file: " + hist_path);
}

}  // namespace mec::obs
