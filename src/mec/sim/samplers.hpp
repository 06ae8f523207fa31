// Service- and latency-time samplers: the pluggable distribution layer of
// SimulationOptions.
//
// A sampler is data.  SamplerSpec names a kind, one parameter and a sample
// set, so the same recipe configures an in-process run, ships to a remote
// rank in the population frame, and rebuilds there into the same draws.
// Sampler is a spec made ready to draw from, built once per run; its draw
// is an inline switch, so the event loop pays one predictable branch per
// sample instead of an indirect call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mec/core/user.hpp"
#include "mec/random/empirical.hpp"
#include "mec/random/rng.hpp"

namespace mec::sim {

/// Sampler recipe.  Service kinds have mean 1/s_n per device; latency kinds
/// (exponential, deterministic, empirical) have mean tau_n.
struct SamplerSpec {
  enum class Kind : std::uint8_t {
    kExponential = 0,
    kDeterministic = 1,
    /// param = stage count k >= 1 (service only; SCV = 1/k).
    kErlang = 2,
    /// param = SCV >= 1 (service only; balanced-means two-phase fit).
    kHyperExponential = 3,
    /// data = samples to resample (rescaled per device to the target mean).
    kEmpirical = 4,
  };
  Kind kind = Kind::kExponential;
  double param = 0.0;
  std::vector<double> data;

  bool operator==(const SamplerSpec&) const = default;
};

/// A SamplerSpec validated for one role, with the kind's constants
/// precomputed and an empirical spec's samples held as a (sorted)
/// EmpiricalDataset, so a spec rebuilt on another rank draws identically.
class Sampler {
 public:
  enum class Role : std::uint8_t { kService, kLatency };

  /// Throws mec::RuntimeError on a spec the role cannot use: a bad param
  /// or data for its kind, or an erlang/hyperexponential latency.
  Sampler(const SamplerSpec& spec, Role role);

  /// One draw for device `u`: a local service time (kService) or a
  /// wireless offload latency (kLatency).
  double operator()(random::Xoshiro256& rng,
                    const core::UserParams& u) const {
    switch (draw_) {
      case Draw::kExponentialService:
        return random::exponential(rng, u.service_rate);
      case Draw::kDeterministicService:
        return 1.0 / u.service_rate;
      case Draw::kErlangService: {
        const double stage_rate =
            static_cast<double>(stages_) * u.service_rate;
        double total = 0.0;
        for (std::size_t i = 0; i < stages_; ++i)
          total += random::exponential(rng, stage_rate);
        return total;
      }
      case Draw::kHyperExponentialService: {
        const bool first = random::bernoulli(rng, p_);
        const double rate = first ? 2.0 * p_ * u.service_rate
                                  : 2.0 * (1.0 - p_) * u.service_rate;
        return random::exponential(rng, rate);
      }
      case Draw::kEmpiricalService:
        return data_->resample(rng) / (mean_ * u.service_rate);
      case Draw::kExponentialLatency:
        if (u.offload_latency <= 0.0) return 0.0;
        return random::exponential(rng, 1.0 / u.offload_latency);
      case Draw::kDeterministicLatency:
        return u.offload_latency;
      case Draw::kEmpiricalLatency:
        return data_->resample(rng) * (u.offload_latency / mean_);
    }
    return 0.0;  // unreachable: the constructor admits only the labels above
  }

 private:
  enum class Draw : std::uint8_t {
    kExponentialService,
    kDeterministicService,
    kErlangService,
    kHyperExponentialService,
    kEmpiricalService,
    kExponentialLatency,
    kDeterministicLatency,
    kEmpiricalLatency,
  };

  Draw draw_ = Draw::kExponentialService;
  std::size_t stages_ = 0;  ///< erlang stage count
  double p_ = 0.0;          ///< hyperexponential branch probability
  double mean_ = 0.0;       ///< empirical dataset mean
  std::optional<random::EmpiricalDataset> data_;
};

}  // namespace mec::sim
