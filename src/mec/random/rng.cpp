#include "mec/random/rng.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>

#include "mec/parallel/thread_pool.hpp"

namespace mec::random {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using State = std::array<std::uint64_t, 4>;

/// A linear map over GF(2)^256 as its 256 columns: col[j] is the image of
/// the unit state with only bit j (word j / 64, bit j % 64) set.
struct BitMatrix {
  std::array<State, 256> col;

  State apply(const State& s) const noexcept {
    State acc = {0, 0, 0, 0};
    for (std::size_t w = 0; w < 4; ++w) {
      for (std::uint64_t bits = s[w]; bits != 0; bits &= bits - 1) {
        const State& c = col[64 * w + std::countr_zero(bits)];
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= c[i];
      }
    }
    return acc;
  }
};

/// The long jump as Blackman & Vigna define it: 256 engine steps, xoring
/// together the states the jump polynomial selects.  It is linear in the
/// start state, so it only runs to build the columns of L; long_jump()
/// itself is one product with that table, ~3x cheaper than the steps.
State long_jump_by_steps(Xoshiro256 engine) noexcept {
  static constexpr std::array<std::uint64_t, 4> kLongJump = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  State acc = {0, 0, 0, 0};
  for (const std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        const State s = engine.state();
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s[i];
      }
      engine();
    }
  }
  return acc;
}

/// L^(2^k) for k = 0, 1, ..., built on first use and never modified after
/// publication, so lookups below the published level need no lock.
class LongJumpPowers {
 public:
  const BitMatrix& power(std::size_t k) {
    if (k >= levels_.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      std::size_t built = levels_.load(std::memory_order_relaxed);
      for (; built <= k; ++built) {
        pow_[built] = std::make_unique<BitMatrix>();
        if (built == 0) {
          for (std::size_t j = 0; j < 256; ++j) {
            State unit = {0, 0, 0, 0};
            unit[j / 64] = std::uint64_t{1} << (j % 64);
            pow_[0]->col[j] =
                long_jump_by_steps(Xoshiro256::from_state(unit));
          }
        } else {
          const BitMatrix& half = *pow_[built - 1];
          for (std::size_t j = 0; j < 256; ++j)
            pow_[built]->col[j] = half.apply(half.col[j]);
        }
      }
      levels_.store(built, std::memory_order_release);
    }
    return *pow_[k];
  }

 private:
  std::mutex mutex_;
  std::atomic<std::size_t> levels_{0};
  std::array<std::unique_ptr<BitMatrix>, 64> pow_;
};

LongJumpPowers& long_jump_powers() {
  static LongJumpPowers powers;
  return powers;
}

/// Devices per split_streams block: a few ms of serial split() each, so the
/// O(log n) jump that starts a block is noise and a 10^6-device fill has
/// enough blocks to balance any core count.
constexpr std::uint64_t kSplitBlock = std::uint64_t{1} << 14;

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // An all-zero state is a fixed point of the transition; splitmix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
    state_[0] = 1;
}

Xoshiro256 Xoshiro256::from_state(
    const std::array<std::uint64_t, 4>& words) noexcept {
  Xoshiro256 rng(0);
  rng.state_ = words;
  if (rng.state_[0] == 0 && rng.state_[1] == 0 && rng.state_[2] == 0 &&
      rng.state_[3] == 0)
    rng.state_[0] = 1;
  return rng;
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Xoshiro256::long_jump() noexcept {
  state_ = long_jump_powers().power(0).apply(state_);
}

Xoshiro256 Xoshiro256::long_jumped(std::uint64_t n) const {
  State s = state_;
  for (std::size_t k = 0; n != 0; ++k, n >>= 1)
    if (n & 1) s = long_jump_powers().power(k).apply(s);
  return from_state(s);
}

Xoshiro256 Xoshiro256::split() noexcept {
  Xoshiro256 child = *this;
  long_jump();  // advance parent past the child's stream
  return child;
}

void split_streams(std::uint64_t seed, std::uint64_t lo,
                   std::span<Xoshiro256> out) {
  const std::uint64_t n = out.size();
  const std::uint64_t blocks = (n + kSplitBlock - 1) / kSplitBlock;
  const Xoshiro256 master(seed);
  const auto fill_block = [&](std::size_t b) {
    const std::uint64_t begin = b * kSplitBlock;
    const std::uint64_t end = std::min(n, begin + kSplitBlock);
    Xoshiro256 rng = master.long_jumped(lo + begin);
    for (std::uint64_t i = begin; i < end; ++i) out[i] = rng.split();
  };
  if (blocks <= 1) {
    if (blocks == 1) fill_block(0);
    return;
  }
  parallel::ThreadPool pool(
      std::min<std::size_t>(blocks, parallel::resolve_thread_count(0)));
  pool.parallel_for_each(blocks, fill_block);
}

double uniform01(Xoshiro256& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Xoshiro256& rng, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(rng);
}

double exponential(Xoshiro256& rng, double rate) noexcept {
  // 1 - U in (0, 1] avoids log(0).
  return -std::log1p(-uniform01(rng)) / rate;
}

double standard_normal(Xoshiro256& rng) noexcept {
  double u1 = uniform01(rng);
  while (u1 <= 0.0) u1 = uniform01(rng);
  const double u2 = uniform01(rng);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

bool bernoulli(Xoshiro256& rng, double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(rng) < p;
}

std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  using u128 = unsigned __int128;
  std::uint64_t x = rng();
  u128 m = static_cast<u128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<u128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace mec::random
