#include "mec/random/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace mec::random {
namespace {

TEST(Xoshiro256, IsDeterministicForEqualSeeds) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsProduceDifferentStreams) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  EXPECT_EQ(Xoshiro256::min(), 0u);
  EXPECT_EQ(Xoshiro256::max(), ~std::uint64_t{0});
}

TEST(Xoshiro256, LongJumpChangesTheStream) {
  Xoshiro256 a(7);
  Xoshiro256 b = a;
  b.long_jump();
  EXPECT_NE(a, b);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro256, SplitStreamsArePairwiseDistinct) {
  Xoshiro256 parent(99);
  Xoshiro256 c1 = parent.split();
  Xoshiro256 c2 = parent.split();
  Xoshiro256 c3 = parent.split();
  std::set<std::uint64_t> firsts{c1(), c2(), c3(), parent()};
  EXPECT_EQ(firsts.size(), 4u);
}

TEST(Xoshiro256, SplitChildEqualsPreSplitParentStream) {
  Xoshiro256 parent(4321);
  Xoshiro256 reference = parent;  // copy before split
  Xoshiro256 child = parent.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child(), reference());
}

/// Blackman & Vigna's long jump written out step by step: 256 engine steps,
/// xoring together the states the jump polynomial selects.
Xoshiro256 reference_long_jump(Xoshiro256 rng) {
  constexpr std::array<std::uint64_t, 4> kJump = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        const std::array<std::uint64_t, 4> s = rng.state();
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s[i];
      }
      rng();
    }
  }
  return Xoshiro256::from_state(acc);
}

TEST(Xoshiro256, LongJumpMatchesTheReferencePolynomial) {
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) rng();
    for (int jump = 0; jump < 3; ++jump) {
      const Xoshiro256 expected = reference_long_jump(rng);
      rng.long_jump();
      ASSERT_EQ(rng, expected) << "seed=" << seed << " jump=" << jump;
    }
  }
}

TEST(Xoshiro256, LongJumpedEqualsRepeatedLongJumps) {
  const Xoshiro256 start(0xC0FFEE);
  Xoshiro256 reference = start;
  std::uint64_t jumps = 0;
  for (const std::uint64_t n : {0, 1, 2, 63, 64, 1000, 16385}) {
    for (; jumps < n; ++jumps) reference.long_jump();
    EXPECT_EQ(start.long_jumped(n), reference) << "n=" << n;
  }
}

TEST(Xoshiro256, LongJumpedComposes) {
  // L^a * L^b = L^(a+b): jumping from a jumped state lands where one jump of
  // the summed length does, which is what lets split blocks start anywhere.
  const Xoshiro256 start(17);
  EXPECT_EQ(start.long_jumped(300).long_jumped(777), start.long_jumped(1077));
  EXPECT_EQ(start.long_jumped(std::uint64_t{1} << 40).long_jumped(5),
            start.long_jumped((std::uint64_t{1} << 40) + 5));
}

/// The per-device streams a serial split() loop over Xoshiro256(seed) gives.
std::vector<Xoshiro256> serial_streams(std::uint64_t seed, std::size_t n) {
  Xoshiro256 master(seed);
  std::vector<Xoshiro256> out(n);
  for (Xoshiro256& rng : out) rng = master.split();
  return out;
}

TEST(SplitStreams, BlockParallelFillEqualsSerialSplitWordForWord) {
  // Four 2^14-device blocks, the last one partial: blocks 1-3 start from a
  // long_jumped() state rather than from the seed.
  constexpr std::size_t kDevices = 3 * (std::size_t{1} << 14) + 7;
  const std::vector<Xoshiro256> reference = serial_streams(2024, kDevices);
  std::vector<Xoshiro256> streams(kDevices);
  split_streams(2024, 0, streams);
  for (std::size_t i = 0; i < kDevices; ++i)
    ASSERT_EQ(streams[i].state(), reference[i].state()) << "device " << i;
}

TEST(SplitStreams, SliceStartingMidPopulationMatchesTheSerialSequence) {
  // A worker deriving only its slice [lo, hi) must get the coordinator's
  // streams for those devices, including a slice that straddles blocks.
  constexpr std::size_t kDevices = 3 * (std::size_t{1} << 14) + 7;
  const std::vector<Xoshiro256> reference = serial_streams(9, kDevices);
  for (const std::size_t lo : {std::size_t{1}, std::size_t{5000},
                               std::size_t{1} << 14, kDevices - 1}) {
    std::vector<Xoshiro256> slice(kDevices - lo);
    split_streams(9, lo, slice);
    for (std::size_t i = 0; i < slice.size(); ++i)
      ASSERT_EQ(slice[i].state(), reference[lo + i].state())
          << "lo=" << lo << " device " << lo + i;
  }
}

TEST(Uniform01, StaysInHalfOpenUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double u = uniform01(rng);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, HasCorrectFirstTwoMoments) {
  Xoshiro256 rng(6);
  double sum = 0.0, sum2 = 0.0;
  const int n = 1000000;
  for (int i = 0; i < n; ++i) {
    const double u = uniform01(rng);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 2e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 2e-3);
}

TEST(Uniform, RespectsBoundsAndMean) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = uniform(rng, -3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 1.0, 2e-2);
}

TEST(Exponential, HasCorrectMeanAndVariance) {
  Xoshiro256 rng(8);
  const double rate = 2.5;
  double sum = 0.0, sum2 = 0.0;
  const int n = 500000;
  for (int i = 0; i < n; ++i) {
    const double v = exponential(rng, rate);
    EXPECT_GE(v, 0.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0 / rate, 3e-3);
  EXPECT_NEAR(sum2 / n - mean * mean, 1.0 / (rate * rate), 5e-3);
}

TEST(StandardNormal, HasCorrectMomentsAndSymmetry) {
  Xoshiro256 rng(9);
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0;
  const int n = 500000;
  for (int i = 0; i < n; ++i) {
    const double v = standard_normal(rng);
    sum += v;
    sum2 += v * v;
    sum3 += v * v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 5e-3);
  EXPECT_NEAR(sum2 / n, 1.0, 1e-2);
  EXPECT_NEAR(sum3 / n, 0.0, 2e-2);  // skewness ~ 0
}

TEST(Bernoulli, MatchesRequestedProbability) {
  Xoshiro256 rng(10);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += bernoulli(rng, 0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 5e-3);
}

TEST(Bernoulli, HandlesDegenerateProbabilities) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
    EXPECT_FALSE(bernoulli(rng, -0.5));
    EXPECT_TRUE(bernoulli(rng, 1.5));
  }
}

TEST(UniformIndex, CoversTheFullRangeUniformly) {
  Xoshiro256 rng(12);
  constexpr std::uint64_t n = 10;
  std::array<int, n> counts{};
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t idx = uniform_index(rng, n);
    ASSERT_LT(idx, n);
    ++counts[idx];
  }
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 5e-3);
}

TEST(UniformIndex, SingleElementAlwaysZero) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_index(rng, 1), 0u);
}

}  // namespace
}  // namespace mec::random
