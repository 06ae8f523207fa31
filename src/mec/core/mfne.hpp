// Mean-Field Nash Equilibrium solver (Theorem 1).
//
// V(gamma) is continuous and non-increasing with V(0) < 1 (because
// A_max < c), so h(gamma) = V(gamma) - gamma is continuous and strictly
// decreasing with h(1) < 0; the unique root gamma* = V(gamma*) is found by
// bisection.  On a finite sampled population V is piecewise constant in
// gamma (thresholds are integers), so the "root" is the unique crossing
// point; bisection still brackets it to any tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/best_response.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

struct MfneOptions {
  double tolerance = 1e-10;   ///< bisection interval width at termination
  int max_iterations = 200;   ///< bisection guard (2^-200 << any tolerance)
};

struct MfneResult {
  double gamma_star = 0.0;                ///< the equilibrium utilization
  double best_response_value = 0.0;       ///< V(gamma_star)
  std::vector<std::int64_t> thresholds;   ///< equilibrium thresholds
  int iterations = 0;                     ///< bisection iterations used
  /// True when the bracket reached `tolerance`; false when the bisection
  /// was cut off by `max_iterations` (e.g. a tolerance below one ulp of
  /// gamma*, where the interval stops shrinking) and gamma_star is only
  /// the midpoint of the last bracket.
  bool converged = false;
};

/// Finds gamma* with |V(gamma*) crossing| bracketed within
/// options.tolerance. Requires valid delay, capacity > 0, non-empty users,
/// and (checked) V(0) < 1.  Each step re-runs the Lemma-1 oracle only for
/// users whose threshold differs between the bracket's ends; from 2^16 users
/// up those calls run on a thread pool scoped to this call (joined before it
/// returns).  The result is bit-identical to a full-sweep serial bisection
/// for any thread count.
MfneResult solve_mfne(std::span<const UserParams> users, const EdgeDelay& delay,
                      double capacity, const MfneOptions& options = {});

}  // namespace mec::core
