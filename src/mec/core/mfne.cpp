#include "mec/core/mfne.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/parallel/thread_pool.hpp"

namespace mec::core {

namespace {

// Populations below this are solved on the calling thread: a pool's thread
// start-up would not pay for itself, and the small-N callers (table3's
// sequential engine, sweep cells) already run solve_mfne inside pool
// workers, where spawning more threads would oversubscribe the machine.
constexpr std::size_t kParallelFloor = std::size_t{1} << 16;

// Users per pool chunk, as in best_response's pool sweep: the Lemma-1
// oracle costs ~100ns/user.
constexpr std::size_t kUserGrain = 256;

/// Theorem-1 bisection that runs the Lemma-1 oracle only for users whose
/// threshold is still open.  x_lo/x_hi hold every user's threshold at the
/// bracket ends; g and the oracle are non-decreasing, so a user with
/// x_lo == x_hi plays that threshold anywhere inside the bracket, and its
/// rate slot keeps the bits a fresh oracle call would give.  V(gamma) is
/// still the serial in-order sum over all users, so every step, gamma*,
/// V(gamma*) and the thresholds are bit-identical to a full-sweep
/// bisection.  `pool` (null: the calling thread) runs the oracle calls.
MfneResult bisect(std::span<const UserParams> users, const EdgeDelay& delay,
                  double capacity, const MfneOptions& options,
                  parallel::ThreadPool* pool) {
  const std::size_t n_users = users.size();
  std::vector<std::int64_t> x_lo(n_users), x_mid(n_users);
  std::vector<std::int64_t> x_hi(n_users, -1);  // unknown until hi < 1
  std::vector<double> rates(n_users);
  std::vector<std::uint32_t> open;  // users whose threshold is not settled
  const auto open_all = [&] {
    open.resize(n_users);
    std::iota(open.begin(), open.end(), 0u);
  };
  open_all();
  // Thresholds of the open users at edge delay g into x; returns V.
  const auto sweep = [&](double g, std::vector<std::int64_t>& x) {
    const auto one = [&](std::size_t k) {
      const std::uint32_t n = open[k];
      x[n] = best_threshold(users[n], g);
      rates[n] = user_offload_rate(users[n], static_cast<double>(x[n]));
    };
    if (pool != nullptr)
      pool->parallel_for_each(open.size(), one, kUserGrain);
    else
      for (std::size_t k = 0; k < open.size(); ++k) one(k);
    double acc = 0.0;
    for (const double r : rates) acc += r;
    return acc / (static_cast<double>(n_users) * capacity);
  };

  MfneResult r;
  double g_lo = delay(0.0);
  const double v0 = sweep(g_lo, x_lo);
  MEC_EXPECTS_MSG(v0 < 1.0,
                  "V(0) >= 1: capacity too small (model requires A_max < c)");
  if (v0 == 0.0) {
    // Degenerate: nobody offloads even at zero edge delay penalty.
    r.thresholds = std::move(x_lo);
    r.converged = true;  // exact: gamma* = 0
    return r;
  }

  // h(gamma) = V(gamma) - gamma: h(0) = v0 > 0, h(1) = V(1) - 1 < 0.
  double lo = 0.0, hi = 1.0;
  double g_hi = std::numeric_limits<double>::infinity();
  // Re-opens every user when rounding ever put g(gamma) outside
  // [g(lo), g(hi)]: the bracket then no longer bounds the thresholds.
  const auto delay_in_bracket = [&](double gamma) {
    const double g = delay(gamma);
    if (!(g_lo <= g && g <= g_hi)) open_all();
    return g;
  };
  int iters = 0;
  while (hi - lo > options.tolerance && iters < options.max_iterations) {
    const double mid = 0.5 * (lo + hi);
    const double g = delay_in_bracket(mid);
    const bool up = sweep(g, x_mid) > mid;
    (up ? lo : hi) = mid;
    (up ? g_lo : g_hi) = g;
    std::vector<std::int64_t>& end = up ? x_lo : x_hi;
    for (const std::uint32_t n : open) end[n] = x_mid[n];
    std::erase_if(open, [&](std::uint32_t n) { return x_lo[n] == x_hi[n]; });
    ++iters;
  }

  r.gamma_star = 0.5 * (lo + hi);
  r.best_response_value = sweep(delay_in_bracket(r.gamma_star), x_mid);
  for (const std::uint32_t n : open) x_lo[n] = x_mid[n];
  r.thresholds = std::move(x_lo);
  r.iterations = iters;
  r.converged = hi - lo <= options.tolerance;
  MEC_ENSURES(r.best_response_value >= 0.0);
  MEC_ENSURES(r.gamma_star >= 0.0 && r.gamma_star <= 1.0);
  return r;
}

}  // namespace

MfneResult solve_mfne(std::span<const UserParams> users, const EdgeDelay& delay,
                      double capacity, const MfneOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(options.tolerance > 0.0);
  // From the floor up, the pool lives for this call only, so no thread
  // outlives it (callers may fork right after, e.g. for the process
  // transport).
  if (users.size() < kParallelFloor)
    return bisect(users, delay, capacity, options, nullptr);
  parallel::ThreadPool pool;
  return bisect(users, delay, capacity, options, &pool);
}

}  // namespace mec::core
