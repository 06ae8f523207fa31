// Sampler bit-identity: the inline switch of sim::Sampler must make the
// same draws, in the same order, as the per-kind closures the engine used
// to call through std::function.  Those closures are kept here, verbatim in
// their arithmetic, as the reference: for every spec kind and role, 10^4
// draws over a varied population must match bit for bit, and so must the
// RNG state after the last draw.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/user.hpp"
#include "mec/random/empirical.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/samplers.hpp"

namespace mec {
namespace {

using sim::Sampler;
using sim::SamplerSpec;
using Kind = SamplerSpec::Kind;
using Reference =
    std::function<double(random::Xoshiro256&, const core::UserParams&)>;

SamplerSpec spec(Kind kind, double param = 0.0,
                 std::vector<double> data = {}) {
  return {kind, param, std::move(data)};
}

// --- the reference closures (the engine's former sampler factories) -------

Reference exponential_service() {
  return [](random::Xoshiro256& rng, const core::UserParams& u) {
    return random::exponential(rng, u.service_rate);
  };
}

Reference deterministic_service() {
  return [](random::Xoshiro256&, const core::UserParams& u) {
    return 1.0 / u.service_rate;
  };
}

Reference empirical_service(random::EmpiricalDataset times) {
  const double dataset_mean = times.mean();
  return [times = std::move(times), dataset_mean](
             random::Xoshiro256& rng, const core::UserParams& u) {
    return times.resample(rng) / (dataset_mean * u.service_rate);
  };
}

Reference erlang_service(std::size_t stages) {
  return [stages](random::Xoshiro256& rng, const core::UserParams& u) {
    const double stage_rate = static_cast<double>(stages) * u.service_rate;
    double total = 0.0;
    for (std::size_t i = 0; i < stages; ++i)
      total += random::exponential(rng, stage_rate);
    return total;
  };
}

Reference hyperexponential_service(double scv) {
  const double p = 0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
  return [p](random::Xoshiro256& rng, const core::UserParams& u) {
    const bool first = random::bernoulli(rng, p);
    const double rate =
        first ? 2.0 * p * u.service_rate : 2.0 * (1.0 - p) * u.service_rate;
    return random::exponential(rng, rate);
  };
}

Reference exponential_latency() {
  return [](random::Xoshiro256& rng, const core::UserParams& u) {
    if (u.offload_latency <= 0.0) return 0.0;
    return random::exponential(rng, 1.0 / u.offload_latency);
  };
}

Reference deterministic_latency() {
  return [](random::Xoshiro256&, const core::UserParams& u) {
    return u.offload_latency;
  };
}

Reference empirical_latency(random::EmpiricalDataset latencies) {
  const double dataset_mean = latencies.mean();
  return [latencies = std::move(latencies), dataset_mean](
             random::Xoshiro256& rng, const core::UserParams& u) {
    return latencies.resample(rng) * (u.offload_latency / dataset_mean);
  };
}

// --- the comparison ----------------------------------------------------------

/// Heterogeneous devices, including a zero-latency one (the exponential
/// latency's early return) and non-integer rates.
std::vector<core::UserParams> devices() {
  std::vector<core::UserParams> users;
  for (int i = 0; i < 7; ++i) {
    core::UserParams u;
    u.service_rate = 0.7 + 1.3 * i;
    u.offload_latency = i == 3 ? 0.0 : 0.05 + 0.4 * i;
    users.push_back(u);
  }
  return users;
}

/// Unshuffled, so the spec path's own sort is exercised.
std::vector<double> unsorted_samples() {
  return {0.9, 0.1, 2.5, 0.33, 1.7, 0.02, 4.1, 0.6};
}

void expect_bit_identical(const SamplerSpec& recipe, Sampler::Role role,
                          const Reference& reference, std::uint64_t seed) {
  const Sampler sampler(recipe, role);
  const std::vector<core::UserParams> users = devices();
  random::Xoshiro256 a(seed);
  random::Xoshiro256 b(seed);
  for (std::size_t i = 0; i < 10000; ++i) {
    const core::UserParams& u = users[i % users.size()];
    const double got = sampler(a, u);
    const double want = reference(b, u);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "draw " << i << ": " << got << " vs " << want;
  }
  EXPECT_TRUE(a == b) << "RNG state diverged after the draws";
}

TEST(SamplerBitIdentity, ServiceKindsMatchTheClosureFormulas) {
  const auto svc = Sampler::Role::kService;
  expect_bit_identical(spec(Kind::kExponential), svc,
                       exponential_service(), 1);
  expect_bit_identical(spec(Kind::kDeterministic), svc,
                       deterministic_service(), 2);
  for (const std::size_t k : {1u, 2u, 4u, 7u})
    expect_bit_identical(
        spec(Kind::kErlang, static_cast<double>(k)), svc,
        erlang_service(k), 3 + k);
  for (const double scv : {1.0, 1.5, 4.0, 25.0})
    expect_bit_identical(spec(Kind::kHyperExponential, scv),
                         svc, hyperexponential_service(scv), 11);
  expect_bit_identical(
      spec(Kind::kEmpirical, 0.0, unsorted_samples()), svc,
      empirical_service(random::EmpiricalDataset(unsorted_samples(), "ref")),
      12);
  const random::EmpiricalDataset yolo =
      random::synthetic_yolo_processing_times();
  expect_bit_identical(spec(Kind::kEmpirical, 0.0, yolo.samples()),
                       svc, empirical_service(yolo), 13);
}

TEST(SamplerBitIdentity, LatencyKindsMatchTheClosureFormulas) {
  const auto lat = Sampler::Role::kLatency;
  expect_bit_identical(spec(Kind::kExponential), lat,
                       exponential_latency(), 21);
  expect_bit_identical(spec(Kind::kDeterministic), lat,
                       deterministic_latency(), 22);
  expect_bit_identical(
      spec(Kind::kEmpirical, 0.0, unsorted_samples()), lat,
      empirical_latency(random::EmpiricalDataset(unsorted_samples(), "ref")),
      23);
  const random::EmpiricalDataset wifi =
      random::synthetic_wifi_offload_latencies();
  expect_bit_identical(spec(Kind::kEmpirical, 0.0, wifi.samples()),
                       lat, empirical_latency(wifi), 24);
}

TEST(SamplerSpecValidation, RejectsSpecsTheRoleCannotUse) {
  const auto expect_rejected = [](const SamplerSpec& recipe,
                                  Sampler::Role role,
                                  const std::string& needle) {
    try {
      Sampler(recipe, role);
      ADD_FAILURE() << "spec must be rejected: " << needle;
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  const auto svc = Sampler::Role::kService;
  const auto lat = Sampler::Role::kLatency;
  expect_rejected(spec(Kind::kErlang), svc, "stage count");
  expect_rejected(spec(Kind::kErlang, 2.5), svc, "stage count");
  expect_rejected(spec(Kind::kHyperExponential, 0.5), svc, "SCV");
  expect_rejected(spec(Kind::kEmpirical), svc, "no samples");
  expect_rejected(spec(Kind::kEmpirical, 0.0, {0.0, 0.0}), lat,
                  "positive sample mean");
  expect_rejected(spec(Kind::kErlang, 4.0), lat, "latency");
  expect_rejected(spec(Kind::kHyperExponential, 4.0), lat,
                  "latency");
  expect_rejected(spec(static_cast<Kind>(9)), svc, "unknown");
}

}  // namespace
}  // namespace mec
