#include "mec/core/mfne.hpp"

#include <cstddef>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/parallel/thread_pool.hpp"

namespace mec::core {

namespace {

// Populations below this are solved on the calling thread: a pool's thread
// start-up would not pay for itself, and the small-N callers (table3's
// sequential engine, sweep cells) already run solve_mfne inside pool
// workers, where spawning more threads would oversubscribe the machine.
constexpr std::size_t kParallelFloor = std::size_t{1} << 16;

/// Theorem-1 bisection over bit-exact evaluators of V(gamma) alone
/// (`v_at`, every step) and of the full best response (`br_at`, the final
/// thresholds).
template <class UtilizationAt, class BestResponseAt>
MfneResult bisect(const UtilizationAt& v_at, const BestResponseAt& br_at,
                  const MfneOptions& options) {
  const double v0 = v_at(0.0);
  MEC_EXPECTS_MSG(v0 < 1.0,
                  "V(0) >= 1: capacity too small (model requires A_max < c)");
  if (v0 == 0.0) {
    // Degenerate: nobody offloads even at zero edge delay penalty.
    MfneResult r;
    r.gamma_star = 0.0;
    r.best_response_value = 0.0;
    r.thresholds = br_at(0.0).thresholds;
    r.converged = true;  // exact: gamma* = 0
    return r;
  }

  // h(gamma) = V(gamma) - gamma: h(0) = v0 > 0, h(1) = V(1) - 1 < 0.
  double lo = 0.0, hi = 1.0;
  int iters = 0;
  while (hi - lo > options.tolerance && iters < options.max_iterations) {
    const double mid = 0.5 * (lo + hi);
    const double v = v_at(mid);
    if (v > mid)
      lo = mid;
    else
      hi = mid;
    ++iters;
  }

  MfneResult r;
  r.gamma_star = 0.5 * (lo + hi);
  BestResponse last = br_at(r.gamma_star);
  r.best_response_value = last.utilization;
  r.thresholds = std::move(last.thresholds);
  r.iterations = iters;
  r.converged = hi - lo <= options.tolerance;
  MEC_ENSURES(r.gamma_star >= 0.0 && r.gamma_star <= 1.0);
  return r;
}

}  // namespace

MfneResult solve_mfne(std::span<const UserParams> users, const EdgeDelay& delay,
                      double capacity, const MfneOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(options.tolerance > 0.0);
  const auto serial = [&](double gamma) {
    return best_response(users, delay, capacity, gamma);
  };
  if (users.size() < kParallelFloor)
    return bisect(
        [&](double gamma) { return serial(gamma).utilization; }, serial,
        options);
  // The pool lives for this call only, so no thread outlives it (callers
  // may fork right after, e.g. for the process transport).  Both pool
  // sweeps reduce in user order, so every step is bit-identical to the
  // serial overload; the steps share one rate buffer.
  parallel::ThreadPool pool;
  std::vector<double> rates(users.size());
  return bisect(
      [&](double gamma) {
        return best_response_utilization(users, delay, capacity, gamma, pool,
                                         rates);
      },
      [&](double gamma) {
        return best_response(users, delay, capacity, gamma, pool);
      },
      options);
}

}  // namespace mec::core
