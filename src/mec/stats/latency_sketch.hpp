// Mergeable streaming quantile sketch over positive latencies.
//
// The sharded simulation engine accumulates per-task latency distributions
// independently per shard and merges them at the end of a run, so the
// container must be *exactly* mergeable: merging K partial sketches has to
// give the same object as feeding one sketch the union of the samples, in
// any order.  P-square estimators are order-dependent and cannot be
// combined, so the simulator uses this log-binned histogram
// instead: integer bin counts make add/merge associative, commutative, and
// bit-exact, at the price of a bounded relative quantile error (one bin
// width, ~1.1% with 64 bins per octave).
//
// The exact minimum and maximum are tracked alongside the bins and every
// quantile estimate is clamped into [min, max]; a degenerate stream of
// identical values therefore reports that value exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mec::stats {

/// Log-binned quantile sketch; add/merge in any order give identical state.
class LatencySketch {
 public:
  LatencySketch() = default;

  /// Records one sample.  Values outside the binned range (2^-32 .. 2^32,
  /// and any v <= 0) clamp into the edge bins; the tracked min/max keep the
  /// reported quantiles inside the observed values regardless.
  void add(double value) noexcept;

  /// Folds `other` into this sketch.  Exact: the result is bit-identical to
  /// a single sketch fed both sample streams, in any order.
  void merge(const LatencySketch& other);

  std::uint64_t count() const noexcept { return count_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Quantile estimate for q in [0, 1], clamped to [min, max]; 0 when empty.
  double quantile(double q) const noexcept;

  double p50() const noexcept { return quantile(0.50); }
  double p95() const noexcept { return quantile(0.95); }
  double p99() const noexcept { return quantile(0.99); }

  /// Number of log-spaced bins; fixed by the binning constants, exposed so
  /// serializers can pin the wire layout.
  static constexpr std::size_t bin_count() noexcept { return kBins; }

  /// Raw bin counts in bin order; empty when no sample was ever added (the
  /// bins are lazily allocated).
  std::span<const std::uint64_t> bin_counts() const noexcept {
    return counts_;
  }

  /// Rebuilds a sketch from serialized state.  `bins` must be empty for
  /// count == 0 and exactly bin_count() entries otherwise; the result is
  /// bit-identical to the sketch the state was read from, so a sketch can
  /// cross a process boundary without perturbing merged quantiles.
  static LatencySketch restore(std::uint64_t count, double min, double max,
                               std::span<const std::uint64_t> bins);

 private:
  static constexpr int kBinsPerOctave = 64;  ///< ~1.09% geometric bin width
  static constexpr int kMinExp = -32;        ///< smallest binned octave
  static constexpr int kMaxExp = 32;         ///< one past the largest octave
  static constexpr std::size_t kBins =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kBinsPerOctave);

  static std::size_t bin_of(double value) noexcept;

  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// Lazily sized to kBins on the first add (empty sketches stay 16 bytes
  /// of vector header; SimulationResult copies are then cheap when latency
  /// tracking never ran).
  std::vector<std::uint64_t> counts_;
};

}  // namespace mec::stats
