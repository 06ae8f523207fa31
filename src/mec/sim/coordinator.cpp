#include "mec/sim/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/common/instrument.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/stream.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/observer.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::sim::engine {
namespace {

/// Self-describing meta frame for a run's stream log: scenario shape,
/// cadences, gamma mode, and the counter catalogue.  Values here describe
/// the run, so they are identical for every shard count except `shards`
/// itself — and deliberately carry nothing transport-specific, which is
/// what lets CI byte-compare a process-transport stream against the
/// in-process one.  Determinism tests compare window frames, not metadata.
obs::RunLogMeta make_stream_meta(const CoordinatorContext& cc) {
  const SimulationOptions& options = *cc.options;
  obs::RunLogMeta meta;
  meta.emplace_back("n_devices", std::to_string(cc.n_devices));
  meta.emplace_back("n_initial", std::to_string(cc.n_initial));
  meta.emplace_back("capacity", obs::meta_double(cc.capacity));
  meta.emplace_back("clusters", std::to_string(options.topology.clusters));
  meta.emplace_back("seed", std::to_string(options.seed));
  meta.emplace_back("warmup", obs::meta_double(options.warmup));
  meta.emplace_back("horizon", obs::meta_double(options.horizon));
  meta.emplace_back("window", obs::meta_double(options.sample_interval));
  meta.emplace_back("epoch_period", obs::meta_double(options.epoch_period));
  meta.emplace_back("gamma",
                    options.fixed_gamma.has_value()
                        ? "fixed=" + obs::meta_double(*options.fixed_gamma)
                        : std::string("tracked"));
  meta.emplace_back("shards", std::to_string(cc.shard_count));
  meta.emplace_back("faults", cc.with_faults ? "1" : "0");
  std::string catalogue;
  for (std::uint16_t id = 0; id < obs::kCounterCount; ++id) {
    if (!catalogue.empty()) catalogue += ';';
    catalogue += std::to_string(id) + "=" +
                 obs::counter_name(static_cast<obs::Counter>(id));
  }
  meta.emplace_back("counters", catalogue);
  return meta;
}

}  // namespace

SimulationResult coordinator_run(const CoordinatorContext& cc,
                                 parallel::Transport& transport) {
  const SimulationOptions& options = *cc.options;
  const fault::FaultPlan& plan = *cc.plan;
  const bool has_fixed_gamma = options.fixed_gamma.has_value();

  // Streaming telemetry (src/mec/obs/): a StreamingSink folds each sample
  // instant into one window frame at the barrier.  Everything here runs at
  // barrier cadence only — a run without a stream log takes none of these
  // branches inside the legs themselves.
  std::unique_ptr<obs::StreamingSink> stream;
  std::vector<std::uint32_t> thresh_hist;  ///< per-window scratch
  std::vector<obs::CounterValue> counter_scratch;
  if (!options.stream_log.empty()) {
    stream = std::make_unique<obs::StreamingSink>(
        options.stream_log, make_stream_meta(cc),
        options.stream_counters && obs_counters_compiled());
    thresh_hist.assign(obs::kThresholdBins, 0);
  }
  const bool counters_on = stream != nullptr && stream->counters_enabled();

  std::optional<GammaReplay> replay;
  // Tracked-mode per-device offload-delay sums, accumulated by the replay.
  // Kept coordinator-side (device states may live in worker processes); a
  // device's final delay sum is this entry in tracked mode and the rank's
  // DeviceTotals field in fixed-gamma mode — never a mix (the rank-side
  // field provably stays 0.0 in tracked mode).
  std::vector<double> replay_delay;
  if (!has_fixed_gamma) {
    replay.emplace(*cc.delay, options.utilization_ewma_tau,
                   options.initial_gamma, cc.edge_capacity, options.warmup,
                   cc.t_end, cc.n_initial, plan.actions, options.topology);
    replay_delay.assign(cc.n_devices, 0.0);
  }
  // Per-cluster gamma reads, shared by the window frames and the
  // on_cluster_epoch hook.  Quasi-stationary runs replicate the pinned
  // value; tracked runs read the replay's per-cluster EWMA bank.
  std::vector<double> fixed_cluster_gammas;
  if (has_fixed_gamma)
    fixed_cluster_gammas.assign(cc.n_clusters, *options.fixed_gamma);
  const auto cluster_gammas_at = [&](double at) -> std::span<const double> {
    if (has_fixed_gamma) return fixed_cluster_gammas;
    return replay->cluster_gammas(at);
  };
  std::vector<std::uint64_t> cluster_off_scratch;  ///< per-window sums
  stats::LatencySketch local_sojourns;
  stats::LatencySketch offload_delays;
  // Feeds the legs' offload logs — fully drained, they cover exactly the
  // records before the current barrier — through the replay.  Ranks free
  // their logs at the start of the next advance.
  std::vector<std::span<const OffloadRecord>> log_spans;
  std::uint64_t replay_backlog = 0;  ///< records drained since last counters
  double replay_seconds = 0.0;       ///< consume() wall time, same window
  const auto drain_logs =
      [&](std::span<const parallel::ShardBarrierView> views) {
        if (has_fixed_gamma) return;
        log_spans.clear();
        for (const parallel::ShardBarrierView& v : views) {
          log_spans.push_back(v.log);
          replay_backlog += v.log.size();
        }
        const auto t0 = std::chrono::steady_clock::now();
        replay->consume(log_spans, replay_delay.data(), offload_delays,
                        cc.replay_pool);
        replay_seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      };

  // Environment cursor for sample reads in fixed-gamma mode (the replay
  // carries its own in tracked mode).
  fault::EnvWalk sample_walk;
  sample_walk.actions = plan.actions;
  sample_walk.active = cc.n_initial;

  TimelineRecorder recorder;
  // Cursor over the resolved fault plan (time-sorted): actions strictly
  // before a barrier have all been popped by the exclusive legs, so the
  // count is exact — and K-invariant — at every barrier.
  std::size_t fault_cursor = 0;
  // Per-window cumulative sketch snapshots (merged in shard order; the
  // log-binned merge is order-invariant and exact, so the snapshot equals
  // what a single queue would have accumulated so far).
  stats::LatencySketch window_sojourns;
  stats::LatencySketch window_offload_delays;
  std::vector<double> thresh_scratch;  ///< post-epoch broadcast buffer
  std::uint64_t counter_prev_events = 0;
  const ObservationGrid grid(options.sample_interval, options.epoch_period,
                             cc.t_end);
  for (const GridInstant& g : grid.instants()) {
    parallel::BarrierRequest req;
    req.limit = g.time;
    req.inclusive = false;
    req.want_q = g.sample;
    req.want_q2 = g.sample && stream != nullptr;
    req.want_sketches = g.sample && stream != nullptr;
    req.want_queue_stats = counters_on && g.sample;
    const std::span<const parallel::ShardBarrierView> views =
        transport.advance(req);
    drain_logs(views);
    if (g.sample) {
      TimelinePoint p;
      p.time = g.time;
      double scale = 1.0;
      std::uint64_t active = cc.n_devices;
      if (has_fixed_gamma) {
        p.utilization_estimate = *options.fixed_gamma;
        if (cc.with_faults) {
          sample_walk.advance_to(g.time, /*inclusive=*/false);
          scale = sample_walk.scale;
          active = sample_walk.active;
        }
      } else {
        p.utilization_estimate = replay->gamma_at(g.time);
        if (cc.with_faults) {
          scale = replay->capacity_scale();
          active = replay->active_devices();
        }
      }
      const double total_q = transport.total_q();
      const double total_q2 = transport.total_q2();
      if (cc.with_faults) {
        // Dead/retired queues are empty, so the sum already covers exactly
        // the active population.
        p.capacity_scale = scale;
        p.active_devices = active;
        p.mean_queue_length =
            active == 0 ? 0.0 : total_q / static_cast<double>(active);
      } else {
        p.active_devices = cc.n_devices;
        p.mean_queue_length = total_q / static_cast<double>(cc.n_devices);
      }
      std::uint64_t so_far = 0;
      for (const parallel::ShardBarrierView& v : views)
        so_far += v.offloads_in_window;
      p.offloads_so_far = so_far;
      if (options.record_timeline) recorder.on_sample(p);
      if (stream != nullptr) {
        stream->on_sample(p);
        obs::WindowExtras extras;
        extras.queue_second_moment =
            p.active_devices == 0
                ? 0.0
                : total_q2 / static_cast<double>(p.active_devices);
        // Cumulative event total at this barrier: shard task-event pops
        // (order-invariant sum) + fault actions popped (cursor) + replay
        // deliveries (serial) — each term K-invariant by construction.
        std::uint64_t events_now = 0;
        for (const parallel::ShardBarrierView& v : views)
          events_now += v.events;
        if (cc.with_faults) {
          while (fault_cursor < plan.actions.size() &&
                 plan.actions[fault_cursor].time < g.time)
            ++fault_cursor;
          events_now += fault_cursor;
          std::uint64_t lost = 0, rejected = 0, penalized = 0;
          for (const parallel::ShardBarrierView& v : views) {
            lost += v.tasks_lost;
            rejected += v.offloads_rejected;
            penalized += v.offloads_penalized;
          }
          extras.tasks_lost = lost;
          extras.offloads_rejected = rejected;
          extras.offloads_penalized = penalized;
          extras.fault_events_applied = fault_cursor;
        }
        if (!has_fixed_gamma) events_now += replay->deliveries();
        extras.events_so_far = events_now;
        window_sojourns = stats::LatencySketch{};
        for (const parallel::ShardBarrierView& v : views)
          window_sojourns.merge(*v.local_sojourns);
        extras.sojourns = &window_sojourns;
        if (has_fixed_gamma) {
          window_offload_delays = stats::LatencySketch{};
          for (const parallel::ShardBarrierView& v : views)
            window_offload_delays.merge(*v.offload_delays);
          extras.offload_delays = &window_offload_delays;
        } else {
          extras.offload_delays = &offload_delays;
        }
        std::fill(thresh_hist.begin(), thresh_hist.end(), 0u);
        for (std::uint32_t d = 0; d < cc.n_devices; ++d) {
          const double th = cc.threshold_of(d);
          if (th < 0.0) continue;
          const std::size_t bin =
              th >= static_cast<double>(obs::kThresholdBins - 1)
                  ? obs::kThresholdBins - 1
                  : static_cast<std::size_t>(th);
          ++thresh_hist[bin];
        }
        extras.threshold_histogram = thresh_hist;
        cluster_off_scratch.assign(cc.n_clusters, 0);
        for (const parallel::ShardBarrierView& v : views)
          for (std::uint32_t k = 0; k < cc.n_clusters; ++k)
            cluster_off_scratch[k] += v.cluster_offloads[k];
        extras.cluster_gamma = cluster_gammas_at(g.time);
        extras.cluster_offloads = cluster_off_scratch;
        stream->commit_window(extras);
        if (counters_on) {
          counter_scratch.clear();
          const auto add = [&](obs::Counter id, std::uint16_t shard,
                               double value) {
            counter_scratch.push_back(
                {static_cast<std::uint16_t>(id), shard, value});
          };
          double leg_min = views[0].leg_seconds;
          double leg_max = views[0].leg_seconds;
          for (const parallel::ShardBarrierView& v : views) {
            const auto sid = static_cast<std::uint16_t>(v.shard);
            add(obs::Counter::kShardEvents, sid,
                static_cast<double>(v.events));
            add(obs::Counter::kShardQueueDepth, sid, v.queue_depth);
            add(obs::Counter::kShardLegSeconds, sid, v.leg_seconds);
            leg_min = std::min(leg_min, v.leg_seconds);
            leg_max = std::max(leg_max, v.leg_seconds);
          }
          add(obs::Counter::kBarrierWaitSeconds, obs::kGlobalShard,
              cc.shard_count > 1 ? leg_max - leg_min : 0.0);
          add(obs::Counter::kReplayRecords, obs::kGlobalShard,
              static_cast<double>(replay_backlog));
          replay_backlog = 0;
          if (!has_fixed_gamma)
            add(obs::Counter::kReplayDeliveries, obs::kGlobalShard,
                static_cast<double>(replay->deliveries()));
          if (cc.with_faults)
            add(obs::Counter::kFaultEventsApplied, obs::kGlobalShard,
                static_cast<double>(fault_cursor));
          add(obs::Counter::kEventsPerSecond, obs::kGlobalShard,
              leg_max > 0.0 ? static_cast<double>(events_now -
                                                  counter_prev_events) /
                                  leg_max
                            : 0.0);
          counter_prev_events = events_now;
          if (!has_fixed_gamma)
            add(obs::Counter::kReplaySeconds, obs::kGlobalShard,
                replay_seconds);
          replay_seconds = 0.0;
          if (transport.framed()) {
            for (std::size_t r = 0; r < transport.ranks(); ++r) {
              const parallel::RankStats rs = transport.rank_stats(r);
              const auto rid = static_cast<std::uint16_t>(r);
              add(obs::Counter::kRankBarrierWaitSeconds, rid,
                  rs.barrier_wait_seconds);
              add(obs::Counter::kRankPayloadBytes, rid,
                  static_cast<double>(rs.payload_bytes));
              add(obs::Counter::kTransportFramesSent, rid,
                  static_cast<double>(rs.frames_sent));
              add(obs::Counter::kTransportFramesReceived, rid,
                  static_cast<double>(rs.frames_received));
            }
          }
          stream->append_counters(counter_scratch);
        }
      }
    }
    if (g.epoch) {
      if (options.on_epoch) {
        const double gamma = has_fixed_gamma ? *options.fixed_gamma
                                             : replay->gamma_at(g.time);
        options.on_epoch(g.time, gamma);
      }
      // Fires after on_epoch; epoch instants are barriers, so controller
      // state mutated here is seen identically by every shard count.
      if (options.on_cluster_epoch)
        options.on_cluster_epoch(g.time, cluster_gammas_at(g.time));
      // Epoch callbacks are the only place thresholds change; ranks holding
      // mirrored policy copies get the post-epoch values before their next
      // leg.  Shards always see a frozen policy between barriers either
      // way, so the mirror is exactly as fresh as the live pointers.
      if (transport.framed() &&
          (options.on_epoch || options.on_cluster_epoch)) {
        thresh_scratch.resize(cc.n_devices);
        for (std::uint32_t d = 0; d < cc.n_devices; ++d)
          thresh_scratch[d] = cc.threshold_of(d);
        transport.broadcast_thresholds(thresh_scratch);
      }
    }
  }
  parallel::BarrierRequest final_req;
  final_req.limit = cc.t_end;
  final_req.inclusive = true;
  final_req.want_sketches = true;  // run-end percentile merges below
  const std::span<const parallel::ShardBarrierView> final_views =
      transport.advance(final_req);
  drain_logs(final_views);

  // Close the measurement window.  A shard whose own events never crossed
  // the warm-up boundary still needs its devices reset if *any* pop did in
  // the single-queue engine — its own, another shard's, a fault action, or
  // an edge delivery (central in tracked-gamma mode).
  bool flipped = cc.measuring_from_start;
  for (const parallel::ShardBarrierView& v : final_views)
    flipped |= v.flipped;
  if (cc.with_faults) flipped |= plan.flip_trigger;
  if (!has_fixed_gamma) flipped |= replay->delivery_flip_trigger();

  // Everything view-derived is folded *before* finalize(): the final
  // views reference rank-side storage the finalize exchange may replace.
  std::uint64_t events = 0;
  std::uint64_t offloads_in_window = 0;
  std::vector<std::uint64_t> cluster_offloads(cc.n_clusters, 0);
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  for (const parallel::ShardBarrierView& v : final_views) {
    events += v.events;
    offloads_in_window += v.offloads_in_window;
    for (std::uint32_t k = 0; k < cc.n_clusters; ++k)
      cluster_offloads[k] += v.cluster_offloads[k];
    local_sojourns.merge(*v.local_sojourns);
    if (has_fixed_gamma) offload_delays.merge(*v.offload_delays);
    tasks_lost += v.tasks_lost;
    offloads_rejected += v.offloads_rejected;
    offloads_penalized += v.offloads_penalized;
  }
  if (cc.with_faults)
    events += plan.actions.size();  // every schedule action popped once
  if (!has_fixed_gamma) events += replay->deliveries();

  // Ranks reset never-flipped shards, integrate every device to t_end, and
  // (process mode) ship their DeviceTotals.
  transport.finalize(flipped);

  double scale_integral = options.horizon;
  fault::EnvWindowStats env;
  if (cc.with_faults) {
    env = fault::integrate_environment(plan.actions, options.warmup, cc.t_end,
                                       flipped);
    scale_integral = env.scale_integral;
    // A run so short no event crossed the warm-up boundary (or a fully
    // dark window): treat the whole window as nominal so the utilization
    // denominator stays finite.
    if (scale_integral == 0.0) scale_integral = options.horizon;
  }

  SimulationResult result;
  result.horizon = options.horizon;
  result.total_events = events;
  result.local_sojourn_percentiles = std::move(local_sojourns);
  result.offload_delay_percentiles = std::move(offload_delays);
  result.timeline = recorder.take();
  result.devices.reserve(cc.n_devices);
  const double window = options.horizon;

  double cost_acc = 0.0, q_acc = 0.0, alpha_acc = 0.0;
  std::uint32_t participating = 0;
  // Under faults the denominator is the *time-averaged* available capacity
  // over the window (edge_capacity * mean scale * window); fault-free it
  // reduces to the familiar offloads / (window * N * c).
  double gamma_denom = window * cc.edge_capacity;
  if (cc.with_faults) gamma_denom = cc.edge_capacity * scale_integral;
  const double gamma_measured =
      static_cast<double>(offloads_in_window) / gamma_denom;
  for (std::uint32_t n = 0; n < cc.n_devices; ++n) {
    if (cc.with_faults) {
      // Churn slots that never joined report all-zero stats and must not
      // dilute the population means (their empirical cost is not zero —
      // the Eq.-(1) functional of an idle device is w*p_L).
      if (n >= cc.n_initial + plan.joins) {
        result.devices.emplace_back();
        continue;
      }
    }
    ++participating;
    const parallel::DeviceTotals dev = transport.device_totals(n);
    const core::UserParams& u = cc.users[n];
    const double delay_sum =
        has_fixed_gamma ? dev.offload_delay_sum : replay_delay[n];
    DeviceStats s;
    s.arrivals = dev.arrivals;
    s.offloaded = dev.offloaded;
    s.local_completed = dev.local_completed;
    s.mean_queue_length = dev.queue_integral / window;
    s.offload_fraction =
        dev.arrivals > 0
            ? static_cast<double>(dev.offloaded) /
                  static_cast<double>(dev.arrivals)
            : 0.0;
    s.mean_local_sojourn =
        dev.local_completed > 0
            ? dev.local_sojourn_sum / static_cast<double>(dev.local_completed)
            : 0.0;
    s.mean_offload_delay =
        dev.offloaded > 0
            ? delay_sum / static_cast<double>(dev.offloaded)
            : 0.0;
    s.energy_per_task =
        dev.arrivals > 0
            ? dev.energy_sum / static_cast<double>(dev.arrivals)
            : 0.0;
    // Empirical Eq.-(1) cost: measured alpha, measured mean queue, measured
    // per-offload delay (latency + edge processing).
    s.empirical_cost =
        u.weight * u.energy_local * (1.0 - s.offload_fraction) +
        s.mean_queue_length / u.arrival_rate +
        (u.weight * u.energy_offload + s.mean_offload_delay) *
            s.offload_fraction;
    cost_acc += s.empirical_cost;
    q_acc += s.mean_queue_length;
    alpha_acc += s.offload_fraction;
    result.devices.push_back(s);
  }
  result.measured_utilization = gamma_measured;
  // Per-cluster utilization divides each cluster's offload count by its
  // capacity share of the same denominator; with one cluster share(0) is
  // exactly 1.0, so cluster_utilization[0] == measured_utilization bitwise.
  result.cluster_offloads = std::move(cluster_offloads);
  result.cluster_utilization.reserve(cc.n_clusters);
  for (std::uint32_t k = 0; k < cc.n_clusters; ++k)
    result.cluster_utilization.push_back(
        static_cast<double>(result.cluster_offloads[k]) /
        (gamma_denom * options.topology.share(k)));
  result.mean_cost = cost_acc / static_cast<double>(participating);
  result.mean_queue_length = q_acc / static_cast<double>(participating);
  result.mean_offload_fraction = alpha_acc / static_cast<double>(participating);
  if (cc.with_faults) {
    FaultStats fs;
    fs.crashes = plan.crashes;
    fs.restarts = plan.restarts;
    fs.churn_joined = plan.churn_joined;
    fs.churn_departed = plan.churn_departed;
    fs.tasks_lost = tasks_lost;
    fs.offloads_rejected = offloads_rejected;
    fs.offloads_penalized = offloads_penalized;
    fs.min_capacity_scale = env.min_capacity_scale;
    fs.mean_capacity_scale = scale_integral / window;
    fs.degraded_time = env.degraded_time;
    fs.participating_devices = participating;
    result.faults = fs;
  }
  if (stream != nullptr) {
    obs::RunFooter footer;
    footer.windows = stream->windows();
    footer.total_events = result.total_events;
    footer.measured_utilization = result.measured_utilization;
    footer.mean_cost = result.mean_cost;
    footer.horizon = result.horizon;
    stream->finish(footer);
  }
  return result;
}

}  // namespace mec::sim::engine
