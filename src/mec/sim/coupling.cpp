#include "mec/sim/coupling.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "mec/parallel/thread_pool.hpp"

namespace mec::sim {
namespace {

/// Phase-1 factor slot value meaning "computed by the serial chain".
constexpr double kNoFactor = -1.0;

/// Runs fn(0..n) on `pool`, or inline when there is none.
void for_each_task(parallel::ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for_each(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

double GammaReplay::clamped_gamma(double rate, std::size_t cluster) const {
  // Single-cluster bit-compat: caps_[0] == edge_capacity (share 1.0) and
  // cluster_scale stays 1.0 without cluster faults, so this reduces to the
  // pre-cluster `rate / (edge_capacity * scale)` bit-for-bit.
  return std::clamp(rate / capacity_of(cluster), 0.0, 1.0);
}

void GammaReplay::consume(
    std::span<const std::span<const OffloadRecord>> logs,
    double* offload_delay_sums, stats::LatencySketch& offload_delays,
    parallel::ThreadPool* pool) {
  const std::size_t shards = logs.size();
  offsets_.assign(shards + 1, 0);
  std::size_t largest = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    offsets_[s + 1] = offsets_[s] + logs[s].size();
    if (logs[s].size() > logs[largest].size()) largest = s;
  }
  const std::size_t total = offsets_[shards];
  if (total == 0) return;
  const std::size_t slices = std::max<std::size_t>(1, total / kSliceRecords);
  if (slices == 1) pool = nullptr;  // below the grain: no dispatch at all

  // Slice boundaries: splitter times from the largest log at fixed
  // fractions, each shard cut at the first record not earlier than the
  // splitter.  Equal times therefore always share a slice, and the
  // (time, shard) merge of each slice, concatenated in slice order, is the
  // global merge.
  cuts_.assign((slices + 1) * shards, 0);
  const std::span<const OffloadRecord> big = logs[largest];
  for (std::size_t j = 1; j < slices; ++j) {
    const double split = big[j * big.size() / slices].time;
    for (std::size_t s = 0; s < shards; ++s)
      cuts_[j * shards + s] = static_cast<std::size_t>(
          std::lower_bound(logs[s].begin(), logs[s].end(), split,
                           [](const OffloadRecord& r, double t) {
                             return r.time < t;
                           }) -
          logs[s].begin());
  }
  for (std::size_t s = 0; s < shards; ++s)
    cuts_[slices * shards + s] = logs[s].size();

  // A phase-1 factor exp(-(t - t_prev)/tau) equals the one decay_to would
  // compute iff the cluster's last decay instant is t_prev when the chain
  // reaches t.  Within one consume() the chain visits records in time
  // order, so that holds whenever t_prev is not older than any bank's
  // pre-consume decay instant (always, in the engine: records never
  // precede the last grid read).
  double floor = 0.0;
  for (const EwmaRate& rate : bank_) floor = std::max(floor, rate.last());

  merged_shard_.resize(total);
  slot_values_.resize(total);
  for_each_task(pool, slices,
                [&](std::size_t j) { merge_slice(logs, j, floor); });
  replay_chain(logs);

  shard_totals_.resize(shards);
  for_each_task(pool, shards, [&](std::size_t s) {
    apply_shard(logs[s], s, offload_delay_sums);
  });
  for (ShardTotals& totals : shard_totals_) {
    deliveries_ += totals.deliveries;
    flip_trigger_ |= totals.flip_trigger;
    offload_delays.merge(totals.delays);  // exact in any order
  }
}

void GammaReplay::merge_slice(
    std::span<const std::span<const OffloadRecord>> logs, std::size_t slice,
    double floor) {
  constexpr double kExhausted = std::numeric_limits<double>::infinity();
  const std::size_t shards = logs.size();
  const std::size_t* begin = cuts_.data() + slice * shards;
  const std::size_t* end = begin + shards;
  std::vector<std::size_t> heads(begin, end);
  // Head record time per shard, +inf once the shard's part is merged
  // (record times are finite).
  std::vector<double> head_time(shards);
  std::size_t out = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    out += heads[s];
    head_time[s] = heads[s] < end[s] ? logs[s][heads[s]].time : kExhausted;
  }
  // Time of the cluster's previous record in this slice; -inf when none.
  std::vector<double> prev(bank_.size(), -kExhausted);
  for (;;) {
    // K-way merge head: earliest record, lowest shard first at exact ties.
    std::size_t best = 0;
    for (std::size_t s = 1; s < shards; ++s)
      if (head_time[s] < head_time[best]) best = s;
    if (head_time[best] == kExhausted) break;
    const std::size_t i = heads[best]++;
    head_time[best] =
        heads[best] < end[best] ? logs[best][heads[best]].time : kExhausted;
    const OffloadRecord& r = logs[best][i];
    double& p = prev[r.cluster];
    slot_values_[offsets_[best] + i] =
        p >= floor ? bank_[r.cluster].decay_factor(p, r.time) : kNoFactor;
    p = r.time;
    merged_shard_[out++] = static_cast<std::uint32_t>(best);
  }
}

void GammaReplay::replay_chain(
    std::span<const std::span<const OffloadRecord>> logs) {
  cursors_.assign(logs.size(), 0);
  capacities_.resize(bank_.size());
  const auto refresh = [&] {
    for (std::size_t k = 0; k < bank_.size(); ++k)
      capacities_[k] = capacity_of(k);
  };
  refresh();
  for (const std::uint32_t s : merged_shard_) {
    const std::size_t i = cursors_[s]++;
    const OffloadRecord& r = logs[s][i];
    // A fault event at the same instant as a task event popped first in the
    // single-queue engine (scheduled earlier => lower sequence number), so
    // environment actions apply up to and including the record's time.
    const std::size_t walked = walk_.cursor;
    walk_.advance_to(r.time, /*inclusive=*/true);
    if (walk_.cursor != walked) refresh();
    double& value = slot_values_[offsets_[s] + i];
    const double rate = bank_[r.cluster].read_and_record(r.time, value);
    value = std::clamp(rate / capacities_[r.cluster], 0.0, 1.0);
  }
}

void GammaReplay::apply_shard(std::span<const OffloadRecord> log,
                              std::size_t shard, double* offload_delay_sums) {
  // Task-local totals: per-shard state written per record from several
  // threads would share cache lines.
  ShardTotals totals;
  const double* gammas = slot_values_.data() + offsets_[shard];
  for (std::size_t i = 0; i < log.size(); ++i) {
    const OffloadRecord& r = log[i];
    double delay_value = (*delay_)(gammas[i]);
    if (r.penalized) delay_value += r.penalty;
    // Same associativity as the engine's queue.push(now + latency + dv).
    const double delivery = r.time + r.latency + delay_value;
    if (delivery <= t_end_) {
      ++totals.deliveries;
      if (delivery >= warmup_) totals.flip_trigger = true;
    }
    if (r.measured) {
      // A device's records all sit in this shard, in time order: the same
      // additions in the same order as the serial merge.
      offload_delay_sums[r.device] += r.latency + delay_value;
      totals.delays.add(r.latency + delay_value);
    }
  }
  shard_totals_[shard] = std::move(totals);
}

}  // namespace mec::sim
