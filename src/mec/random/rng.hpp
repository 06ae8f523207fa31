// Deterministic, splittable pseudo-random number generation.
//
// The library uses its own xoshiro256++ engine rather than std::mt19937 so that
// (a) streams are cheap to fork per simulated device (each device gets an
// independent stream, making event order changes not perturb other devices'
// randomness), and (b) results are bit-reproducible across standard libraries
// (std::uniform_real_distribution is implementation-defined; ours is not).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace mec::random {

/// xoshiro256++ engine (Blackman & Vigna, 2019), seeded via splitmix64.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state by iterating splitmix64 from `seed`.
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Equivalent to 2^128 calls of operator(); used to fork independent
  /// sub-streams for parallel/simulated entities.  Applied as one product
  /// with the 256x256 GF(2) bit-matrix L of the jump (built once).
  void long_jump() noexcept;

  /// The engine n long_jump() calls ahead of *this.  long_jump is a linear
  /// map L over GF(2)^256, so this applies L^n as one 256x256 bit-matrix
  /// product per set bit of n, from lazily built, immutable tables of
  /// L^(2^k): O(log n) work instead of n * 2^8 engine steps.
  Xoshiro256 long_jumped(std::uint64_t n) const;

  /// Returns a forked engine 2^128 steps ahead, advancing *this as well so a
  /// sequence of split() calls yields pairwise-independent streams.
  Xoshiro256 split() noexcept;

  /// The raw 256-bit engine state, for serialization; from_state()
  /// reconstructs an engine that continues the exact sequence.
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }

  /// Rebuilds an engine from a state() snapshot (words must not be all zero;
  /// the all-zero state is a fixed point and is coerced to a valid one).
  static Xoshiro256 from_state(
      const std::array<std::uint64_t, 4>& words) noexcept;

  bool operator==(const Xoshiro256&) const noexcept = default;

 private:
  std::array<std::uint64_t, 4> state_;
};

/// Per-device streams: out[i] is the engine that the (lo + i)-th split() of
/// Xoshiro256(seed) returns, i.e. device lo + i's stream.  The range is cut
/// into fixed blocks of 2^14 devices; each block jumps to its first device
/// with long_jumped() and splits serially from there, so the words are
/// identical to one serial split() loop for any thread count.  More than
/// one block runs on a pool scoped to the call (joined before it returns).
void split_streams(std::uint64_t seed, std::uint64_t lo,
                   std::span<Xoshiro256> out);

/// Uniform double in [0, 1) with 53 bits of randomness.
double uniform01(Xoshiro256& rng) noexcept;

/// Uniform double in [lo, hi). Requires lo <= hi.
double uniform(Xoshiro256& rng, double lo, double hi) noexcept;

/// Exponential with the given rate (mean 1/rate). Requires rate > 0.
double exponential(Xoshiro256& rng, double rate) noexcept;

/// Standard normal via Box–Muller (no cached spare; stateless w.r.t. caller).
double standard_normal(Xoshiro256& rng) noexcept;

/// Bernoulli draw: true with probability p (clamped to [0,1]).
bool bernoulli(Xoshiro256& rng, double p) noexcept;

/// Uniform integer in [0, n). Requires n > 0.
std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) noexcept;

}  // namespace mec::random
