#include "mec/random/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"

namespace mec::random {

// Print parameters by what they are, not by their bytes: the default printer
// dumps the shared model pointer, which would make the parameterised test
// names (and the CTest names derived from them) change with every run.
// CMake lists cannot carry ';' or brackets, so those are mapped to ',' and
// parentheses.
void PrintTo(const Distribution& d, std::ostream* os) {
  for (const char c : d.describe()) {
    *os << (c == ';' ? ',' : c == '[' ? '(' : c == ']' ? ')' : c);
  }
}

namespace {

double sample_mean(const Distribution& d, int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += d.sample(rng);
  return acc / n;
}

void expect_within_bounds(const Distribution& d, int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, d.lower_bound());
    EXPECT_LE(v, d.upper_bound());
  }
}

TEST(EmptyDistribution, SamplingThrows) {
  Distribution d;
  Xoshiro256 rng(1);
  EXPECT_FALSE(d.valid());
  EXPECT_THROW(d.sample(rng), ContractViolation);
  EXPECT_THROW(d.mean(), ContractViolation);
  EXPECT_EQ(d.describe(), "<empty>");
}

TEST(UniformDistribution, MeanAndBounds) {
  const Distribution d = make_uniform(2.0, 8.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 2.0);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 8.0);
  EXPECT_NEAR(sample_mean(d, 200000, 1), 5.0, 2e-2);
  expect_within_bounds(d, 10000, 2);
}

TEST(UniformDistribution, RejectsInvertedBounds) {
  EXPECT_THROW(make_uniform(3.0, 1.0), ContractViolation);
}

TEST(ConstantDistribution, AlwaysReturnsTheValue) {
  const Distribution d = make_constant(4.2);
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 4.2);
  EXPECT_DOUBLE_EQ(d.mean(), 4.2);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 4.2);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 4.2);
}

TEST(TruncatedExponential, SampleMeanMatchesAnalyticTruncatedMean) {
  const Distribution d = make_truncated_exponential(2.0, 6.0);
  EXPECT_LT(d.mean(), 2.0);  // truncation pulls the mean down
  EXPECT_NEAR(sample_mean(d, 300000, 4), d.mean(), 2e-2);
  expect_within_bounds(d, 10000, 5);
}

TEST(TruncatedExponential, RejectsBadParameters) {
  EXPECT_THROW(make_truncated_exponential(-1.0, 5.0), ContractViolation);
  EXPECT_THROW(make_truncated_exponential(4.0, 0.5), ContractViolation);
}

TEST(TruncatedNormal, SampleMeanMatchesAnalyticTruncatedMean) {
  const Distribution d = make_truncated_normal(3.0, 2.0, 0.0, 5.0);
  EXPECT_NEAR(sample_mean(d, 300000, 6), d.mean(), 2e-2);
  expect_within_bounds(d, 10000, 7);
}

TEST(TruncatedNormal, AsymmetricTruncationShiftsMean) {
  // Cutting the right tail of N(0,1) at 0.5 must give a negative mean.
  const Distribution d = make_truncated_normal(0.0, 1.0, -10.0, 0.5);
  EXPECT_LT(d.mean(), 0.0);
  EXPECT_NEAR(sample_mean(d, 300000, 8), d.mean(), 2e-2);
}

TEST(TruncatedLognormal, SampleMeanMatchesAnalyticTruncatedMean) {
  const Distribution d = make_truncated_lognormal(0.0, 0.5, 10.0);
  EXPECT_NEAR(sample_mean(d, 300000, 9), d.mean(), 2e-2);
  expect_within_bounds(d, 10000, 10);
}

TEST(TruncatedGamma, SampleMeanMatchesNumericalTruncatedMean) {
  const Distribution d = make_truncated_gamma(2.0, 1.5, 12.0);
  EXPECT_NEAR(sample_mean(d, 300000, 11), d.mean(), 3e-2);
  expect_within_bounds(d, 10000, 12);
}

TEST(TruncatedGamma, ShapeBelowOneIsSupported) {
  const Distribution d = make_truncated_gamma(0.5, 2.0, 10.0);
  EXPECT_NEAR(sample_mean(d, 300000, 13), d.mean(), 3e-2);
}

TEST(Resampling, DrawsOnlyFromTheGivenData) {
  const Distribution d = make_resampling({1.0, 2.0, 4.0}, "trace");
  Xoshiro256 rng(14);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 4.0);
  }
  EXPECT_NEAR(d.mean(), 7.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 1.0);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 4.0);
}

TEST(Resampling, RejectsEmptyOrNegativeData) {
  EXPECT_THROW(make_resampling({}, "x"), ContractViolation);
  EXPECT_THROW(make_resampling({1.0, -0.1}, "x"), ContractViolation);
}

TEST(Mixture, MeanIsWeightedAverageOfComponents) {
  const Distribution d = make_mixture(
      {make_constant(1.0), make_constant(5.0)}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);  // 0.75*1 + 0.25*5
  EXPECT_NEAR(sample_mean(d, 200000, 15), 2.0, 2e-2);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 1.0);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 5.0);
}

TEST(Mixture, RejectsMismatchedOrDegenerateWeights) {
  EXPECT_THROW(make_mixture({make_constant(1.0)}, {1.0, 2.0}),
               ContractViolation);
  EXPECT_THROW(make_mixture({make_constant(1.0)}, {0.0}), ContractViolation);
  EXPECT_THROW(make_mixture({make_constant(1.0)}, {-1.0}), ContractViolation);
  EXPECT_THROW(make_mixture({}, {}), ContractViolation);
}

TEST(Affine, TransformsMeanAndBounds) {
  const Distribution d = make_affine(make_uniform(0.0, 1.0), 4.0, 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 1.0);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 5.0);
  EXPECT_NEAR(sample_mean(d, 200000, 16), 3.0, 2e-2);
}

TEST(Affine, NegativeScaleSwapsBounds) {
  const Distribution d = make_affine(make_uniform(0.0, 1.0), -2.0, 0.0);
  EXPECT_DOUBLE_EQ(d.lower_bound(), -2.0);
  EXPECT_DOUBLE_EQ(d.upper_bound(), 0.0);
}

TEST(Affine, ClampAtZeroNeverGoesNegative) {
  const Distribution d =
      make_affine(make_uniform(0.0, 1.0), 2.0, -1.0, /*clamp=*/true);
  Xoshiro256 rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.sample(rng), 0.0);
  EXPECT_DOUBLE_EQ(d.lower_bound(), 0.0);
}

TEST(Describe, MentionsTheDistributionFamily) {
  EXPECT_NE(make_uniform(0, 1).describe().find("U("), std::string::npos);
  EXPECT_NE(make_constant(2).describe().find("const"), std::string::npos);
  EXPECT_NE(make_resampling({1.0}, "yolo").describe().find("yolo"),
            std::string::npos);
}

// Property sweep: sampling respects declared bounds for a family of setups.
class DistributionBoundsTest
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(DistributionBoundsTest, SamplesStayWithinDeclaredSupport) {
  expect_within_bounds(GetParam(), 20000, 99);
}

TEST_P(DistributionBoundsTest, SampleMeanIsCloseToDeclaredMean) {
  const Distribution& d = GetParam();
  const double spread = d.upper_bound() - d.lower_bound();
  EXPECT_NEAR(sample_mean(d, 300000, 100), d.mean(),
              std::max(1e-3, 0.01 * spread));
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionBoundsTest,
    ::testing::Values(make_uniform(0.0, 4.0), make_uniform(1.0, 5.0),
                      make_constant(3.0),
                      make_truncated_exponential(1.0, 5.0),
                      make_truncated_normal(2.0, 1.0, 0.0, 4.0),
                      make_truncated_lognormal(0.2, 0.4, 8.0),
                      make_truncated_gamma(3.0, 0.5, 6.0),
                      make_resampling({0.5, 1.5, 2.5, 3.5}, "grid"),
                      make_mixture({make_uniform(0.0, 1.0),
                                    make_uniform(2.0, 3.0)},
                                   {1.0, 1.0})));

}  // namespace
}  // namespace mec::random
