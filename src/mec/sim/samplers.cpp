// Sampler construction: spec validation and the per-kind constants.  Split
// from the engine so distribution changes never touch — or recompile — the
// event-loop translation units beyond the inline draw.
#include "mec/sim/samplers.hpp"

#include <cmath>
#include <string>

#include "mec/common/error.hpp"

namespace mec::sim {

Sampler::Sampler(const SamplerSpec& spec, Role role) {
  const bool service = role == Role::kService;
  switch (spec.kind) {
    case SamplerSpec::Kind::kExponential:
      draw_ = service ? Draw::kExponentialService : Draw::kExponentialLatency;
      return;
    case SamplerSpec::Kind::kDeterministic:
      draw_ =
          service ? Draw::kDeterministicService : Draw::kDeterministicLatency;
      return;
    case SamplerSpec::Kind::kErlang:
      if (!service) break;
      if (!(spec.param >= 1.0) || spec.param != std::floor(spec.param))
        throw RuntimeError(
            "erlang service sampler spec needs an integer stage count >= 1");
      draw_ = Draw::kErlangService;
      stages_ = static_cast<std::size_t>(spec.param);
      return;
    case SamplerSpec::Kind::kHyperExponential:
      if (!service) break;
      if (!(spec.param >= 1.0))
        throw RuntimeError(
            "hyperexponential service sampler spec needs SCV >= 1");
      draw_ = Draw::kHyperExponentialService;
      // Balanced-means H2 fit (cf. queueing::hyperexponential_from_scv):
      // branch probability p with rates 2p*s and 2(1-p)*s for mean 1/s.
      p_ = 0.5 * (1.0 + std::sqrt((spec.param - 1.0) / (spec.param + 1.0)));
      return;
    case SamplerSpec::Kind::kEmpirical: {
      const char* what = service ? "service" : "latency";
      if (spec.data.empty())
        throw RuntimeError(std::string("empirical ") + what +
                           " sampler spec has no samples");
      // EmpiricalDataset keeps its samples sorted, so a dataset rebuilt
      // from a shipped spec resamples the exact sequence the original would.
      data_.emplace(spec.data, "spec");
      mean_ = data_->mean();
      if (!(mean_ > 0.0))
        throw RuntimeError(std::string("empirical ") + what +
                           " sampler spec needs a positive sample mean");
      draw_ = service ? Draw::kEmpiricalService : Draw::kEmpiricalLatency;
      return;
    }
  }
  if (!service)
    throw RuntimeError(
        "latency sampler spec supports exponential, deterministic, or "
        "empirical kinds only");
  throw RuntimeError("unknown service sampler spec kind " +
                     std::to_string(static_cast<int>(spec.kind)));
}

}  // namespace mec::sim
