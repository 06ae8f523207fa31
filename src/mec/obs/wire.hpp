// Little-endian byte codec shared by the .meclog run-log frames
// (obs/run_log.cpp) and the transport barrier-payload frames
// (parallel/transport.cpp).  The wire format is a contract: every multi-byte
// field is little-endian on disk and on the pipe, independent of the host,
// and doubles travel as their IEEE-754 bit pattern (bit_cast, never a
// narrowing conversion), so encode/decode round-trips are bit-exact across
// processes and across machines.
//
// Every scalar is stored and loaded through store_le/load_le, whose
// byte-by-byte shifts compilers fuse into one (byte-swapped if need be)
// memory access; a writer grows its buffer once per field, a reader checks
// its bounds once per field.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"

namespace mec::obs::wire {

/// Stores `v` little-endian at `p` (sizeof(T) bytes).
template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Loads a little-endian T from `p` (sizeof(T) bytes).
template <typename T>
inline T load_le(const std::uint8_t* p) noexcept {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
  return v;
}

/// Appends little-endian scalars to a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve = 0) { bytes_.reserve(reserve); }
  /// Writes from the start of `recycled`, keeping its capacity, so a codec
  /// that runs once per barrier can hand back the previous barrier's buffer
  /// instead of allocating a fresh frame-sized one.
  ByteWriter(std::vector<std::uint8_t> recycled, std::size_t reserve)
      : bytes_(std::move(recycled)) {
    bytes_.clear();
    bytes_.reserve(reserve);
  }

  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v) { store_le(grow(2), v); }
  void put_u32(std::uint32_t v) { store_le(grow(4), v); }
  void put_u64(std::uint64_t v) { store_le(grow(8), v); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_bytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(grow(n), data, n);
  }

  std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  std::vector<std::uint8_t> bytes_;
};

/// Reads little-endian scalars from a byte span; throws mec::RuntimeError on
/// underflow, so a truncated or corrupt payload can never be misparsed into
/// out-of-range reads.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t get_u8() { return *take(1); }
  std::uint16_t get_u16() { return load_le<std::uint16_t>(take(2)); }
  std::uint32_t get_u32() { return load_le<std::uint32_t>(take(4)); }
  std::uint64_t get_u64() { return load_le<std::uint64_t>(take(8)); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string get_string(std::size_t n) {
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// The next `n` raw bytes, for a decoder that copies a block in bulk.
  const std::uint8_t* get_bytes(std::size_t n) { return take(n); }

  /// Returns `count` once `count` elements of `wire_size` bytes each are
  /// known to fit in the unread bytes; throws otherwise.  Every decoder
  /// that sizes a container from a count read off the wire passes it
  /// through here first, so a hostile count fails before it allocates.
  std::size_t checked_count(std::uint64_t count, std::size_t wire_size) const {
    if (count > remaining() / wire_size)
      throw RuntimeError("wire payload claims " + std::to_string(count) +
                         " elements of " + std::to_string(wire_size) +
                         " bytes but only " + std::to_string(remaining()) +
                         " bytes remain");
    return static_cast<std::size_t>(count);
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == bytes_.size(); }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining())
      throw RuntimeError("wire payload underflow while decoding");
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mec::obs::wire
