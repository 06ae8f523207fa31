// Phase-type service distributions and the exact TRO queue under them.
// Validated against: closed-form moments, the exponential special case
// (Eq. 7-8), and the discrete-event simulator with matching samplers.
#include "mec/queueing/phase_type.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/general_service.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::queueing {
namespace {

TEST(PhaseTypeMoments, ExponentialHasMeanOneOverRateAndScvOne) {
  const PhaseType pt = exponential_phase(2.5);
  EXPECT_NEAR(pt.mean(), 0.4, 1e-12);
  EXPECT_NEAR(pt.scv(), 1.0, 1e-12);
}

TEST(PhaseTypeMoments, ErlangHasScvOneOverK) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const PhaseType pt = erlang_phase(k, 3.0);
    EXPECT_NEAR(pt.mean(), 3.0, 1e-10) << "k=" << k;
    EXPECT_NEAR(pt.scv(), 1.0 / static_cast<double>(k), 1e-10) << "k=" << k;
  }
}

TEST(PhaseTypeMoments, HyperexponentialMatchesMixtureFormulas) {
  // Mixture of Exp(1) w.p. 0.3 and Exp(4) w.p. 0.7.
  const PhaseType pt = hyperexponential_phase({0.3, 0.7}, {1.0, 4.0});
  const double mean = 0.3 / 1.0 + 0.7 / 4.0;
  const double m2 = 2.0 * (0.3 / 1.0 + 0.7 / 16.0);
  EXPECT_NEAR(pt.mean(), mean, 1e-12);
  EXPECT_NEAR(pt.scv(), (m2 - mean * mean) / (mean * mean), 1e-10);
  EXPECT_GE(pt.scv(), 1.0);
}

TEST(PhaseTypeMoments, ScvFitRoundTrips) {
  for (const double scv : {1.0, 1.5, 3.0, 8.0}) {
    const PhaseType pt = hyperexponential_from_scv(2.0, scv);
    EXPECT_NEAR(pt.mean(), 2.0, 1e-10) << "scv=" << scv;
    EXPECT_NEAR(pt.scv(), scv, 1e-9) << "scv=" << scv;
  }
  EXPECT_THROW(hyperexponential_from_scv(1.0, 0.5), ContractViolation);
}

TEST(PhaseTypeMoments, ScalingPreservesShape) {
  const PhaseType pt = hyperexponential_from_scv(2.0, 4.0);
  const PhaseType scaled = pt.scaled_to_mean(0.25);
  EXPECT_NEAR(scaled.mean(), 0.25, 1e-10);
  EXPECT_NEAR(scaled.scv(), 4.0, 1e-9);  // SCV is scale-invariant
}

TEST(PhaseTypeValidation, RejectsMalformedDistributions) {
  PhaseType bad;
  bad.initial = {0.5, 0.4};  // doesn't sum to 1
  bad.phase_change = {{0.0, 1.0}, {0.0, 0.0}};
  bad.completion = {0.0, 1.0};
  EXPECT_THROW(bad.check(), ContractViolation);
  bad.initial = {0.5, 0.5};
  bad.completion = {0.0, 0.0};
  bad.phase_change = {{0.0, 0.0}, {0.0, 0.0}};  // phase 1 has no way out
  EXPECT_THROW(bad.check(), ContractViolation);
  EXPECT_THROW(erlang_phase(0, 1.0), ContractViolation);
  EXPECT_THROW(exponential_phase(0.0), ContractViolation);
}

// The crucial consistency check: with exponential service the CTMC route
// must reproduce the Eq. (7)-(8) closed forms exactly.
class PhaseTypeExponentialConsistency
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PhaseTypeExponentialConsistency, MatchesClosedFormTro) {
  const auto [theta, x] = GetParam();
  const double s = 2.0;
  const double a = theta * s;
  const TroMetrics closed = tro_metrics(theta, x);
  const TroMetrics ctmc =
      tro_metrics_phase_type(a, exponential_phase(s), x);
  EXPECT_NEAR(ctmc.mean_queue_length, closed.mean_queue_length, 1e-8)
      << "theta=" << theta << " x=" << x;
  EXPECT_NEAR(ctmc.offload_probability, closed.offload_probability, 1e-9)
      << "theta=" << theta << " x=" << x;
  EXPECT_NEAR(ctmc.p_empty, closed.p_empty, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PhaseTypeExponentialConsistency,
    ::testing::Combine(::testing::Values(0.3, 1.0, 2.0, 4.0),
                       ::testing::Values(0.0, 0.5, 1.0, 2.25, 5.0, 8.75)));

TEST(PhaseTypeTro, FlowBalanceHoldsForAllShapes) {
  // a(1 - alpha) = (1/mean_service) * (1 - pi_0) for every service law.
  const double a = 3.0;
  const std::vector<PhaseType> shapes = {
      exponential_phase(2.0), erlang_phase(4, 0.5),
      hyperexponential_from_scv(0.5, 5.0)};
  for (const auto& shape : shapes) {
    for (const double x : {0.5, 1.0, 3.25, 6.0}) {
      const TroMetrics m = tro_metrics_phase_type(a, shape, x);
      EXPECT_NEAR(a * (1.0 - m.offload_probability),
                  (1.0 - m.p_empty) / shape.mean(), 1e-8)
          << "x=" << x;
    }
  }
}

TEST(PhaseTypeTro, LowVariabilityServiceOffloadsLess) {
  // At equal mean and threshold, Erlang-4 (SCV 1/4) keeps the queue shorter
  // than exponential, which in turn beats a bursty H2 (SCV 4), so offload
  // probabilities are ordered by variability.
  const double a = 1.5, mean_service = 0.5, x = 3.0;
  const TroMetrics erl =
      tro_metrics_phase_type(a, erlang_phase(4, mean_service), x);
  const TroMetrics exp =
      tro_metrics_phase_type(a, exponential_phase(1.0 / mean_service), x);
  const TroMetrics h2 = tro_metrics_phase_type(
      a, hyperexponential_from_scv(mean_service, 4.0), x);
  EXPECT_LT(erl.offload_probability, exp.offload_probability);
  EXPECT_LT(exp.offload_probability, h2.offload_probability);
}

TEST(PhaseTypeTro, ZeroThresholdOffloadsEverything) {
  const TroMetrics m =
      tro_metrics_phase_type(2.0, erlang_phase(3, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(m.offload_probability, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_queue_length, 0.0);
}

TEST(PhaseTypeTro, AgreesWithDiscreteEventSimulation) {
  // Erlang-3 service on 200 homogeneous devices: the analytic CTMC numbers
  // must match long-run DES measurements using the matching sampler.
  const double a = 2.0, s = 2.5, x = 2.5;
  std::vector<core::UserParams> users(200);
  for (auto& u : users) {
    u.arrival_rate = a;
    u.service_rate = s;
    u.offload_latency = 0.1;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  sim::SimulationOptions o;
  o.warmup = 50.0;
  o.horizon = 1500.0;
  o.seed = 77;
  o.fixed_gamma = 0.2;
  o.service.kind = sim::SamplerSpec::Kind::kErlang;
  o.service.param = 3.0;
  sim::MecSimulation des(users, 10.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r =
      des.run_tro(std::vector<double>(users.size(), x));

  const TroMetrics exact =
      tro_metrics_phase_type(a, erlang_phase(3, 1.0 / s), x);
  EXPECT_NEAR(r.mean_offload_fraction, exact.offload_probability, 0.01);
  EXPECT_NEAR(r.mean_queue_length, exact.mean_queue_length, 0.03);
}

TEST(PhaseTypeTro, HyperexponentialAgreesWithSimulation) {
  const double a = 1.2, s = 2.0, x = 3.0, scv = 4.0;
  std::vector<core::UserParams> users(200);
  for (auto& u : users) {
    u.arrival_rate = a;
    u.service_rate = s;
    u.offload_latency = 0.1;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  sim::SimulationOptions o;
  o.warmup = 50.0;
  o.horizon = 1500.0;
  o.seed = 78;
  o.fixed_gamma = 0.2;
  o.service.kind = sim::SamplerSpec::Kind::kHyperExponential;
  o.service.param = scv;
  sim::MecSimulation des(users, 10.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r =
      des.run_tro(std::vector<double>(users.size(), x));

  const TroMetrics exact = tro_metrics_phase_type(
      a, hyperexponential_from_scv(1.0 / s, scv), x);
  EXPECT_NEAR(r.mean_offload_fraction, exact.offload_probability, 0.015);
  EXPECT_NEAR(r.mean_queue_length, exact.mean_queue_length, 0.05);
}

// --- General-service best response / equilibrium (mec/core) ---

TEST(GeneralService, PhaseTypeCostMatchesExponentialCostForExpShape) {
  core::UserParams u;
  u.arrival_rate = 2.0;
  u.service_rate = 3.0;
  u.offload_latency = 0.5;
  u.energy_local = 1.5;
  u.energy_offload = 0.5;
  for (const double x : {0.0, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(core::phase_type_cost(u, exponential_phase(1.0), x, 0.7),
                core::tro_cost(u, x, 0.7), 1e-8);
  }
}

TEST(GeneralService, ExponentialShapeRecoversLemmaOneThreshold) {
  core::UserParams u;
  u.arrival_rate = 3.0;
  u.service_rate = 2.0;
  u.offload_latency = 1.0;
  u.energy_local = 2.0;
  u.energy_offload = 0.5;
  for (const double g : {0.5, 2.0, 5.0}) {
    EXPECT_EQ(core::best_threshold_phase_type(u, exponential_phase(1.0), g),
              core::best_threshold(u, g))
        << "g=" << g;
  }
}

TEST(GeneralService, BestThresholdBeatsNeighborsUnderErlang) {
  core::UserParams u;
  u.arrival_rate = 2.5;
  u.service_rate = 2.0;
  u.offload_latency = 0.8;
  u.energy_local = 1.0;
  u.energy_offload = 0.4;
  const PhaseType shape = erlang_phase(4, 1.0);
  const double g = 2.0;
  const auto x = core::best_threshold_phase_type(u, shape, g);
  const double c_opt =
      core::phase_type_cost(u, shape, static_cast<double>(x), g);
  for (std::int64_t dx = -2; dx <= 2; ++dx) {
    const std::int64_t cand = x + dx;
    if (cand < 0) continue;
    EXPECT_LE(c_opt, core::phase_type_cost(
                          u, shape, static_cast<double>(cand), g) +
                         1e-10);
  }
}

TEST(GeneralService, EquilibriumExistsAndIsAFixedPoint) {
  std::vector<core::UserParams> users;
  for (int i = 0; i < 60; ++i) {
    core::UserParams u;
    u.arrival_rate = 1.0 + 0.05 * i;
    u.service_rate = 2.0 + 0.03 * i;
    u.offload_latency = 0.2 + 0.01 * i;
    u.energy_local = 1.0;
    u.energy_offload = 0.3;
    users.push_back(u);
  }
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const PhaseType shape = erlang_phase(2, 1.0);
  const core::PhaseTypeEquilibrium eq =
      core::solve_phase_type_equilibrium(users, shape, delay, 5.0, 1e-4);
  EXPECT_GT(eq.gamma_star, 0.0);
  EXPECT_LT(eq.gamma_star, 1.0);
  EXPECT_NEAR(core::phase_type_best_response(users, shape, delay, 5.0,
                                             eq.gamma_star),
              eq.gamma_star, 5e-3);
  EXPECT_EQ(eq.thresholds.size(), users.size());
}

}  // namespace
}  // namespace mec::queueing
