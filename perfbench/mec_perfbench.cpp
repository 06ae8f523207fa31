// End-to-end and per-layer benchmark program for the mec library.
//
// Calls each layer's public functions in the order `mec simulate` and
// `mec closedloop` call them (sample_population -> solve_mfne ->
// MecSimulation constructor -> run_tro, or run_closed_loop) and times every
// call from outside.  One invocation measures one workload for a fixed wall
// budget, repeating the whole path as often as the budget allows; each
// repetition is one operation, checked and counted.  The last line of
// stdout is the JSON result that perfbench/run.py relays.
//
//   mec_perfbench --workload W --seed S --seconds T --trace 0|1
//                 [--smoke 0|1] [--trace-dir DIR] [--expect-digest HEX]
//   mec_perfbench --workload W --seed S --reference 1 [--smoke 0|1]
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// and traced operations (the traced ones stream a .meclog with engine
// counters into --trace-dir), derives the per-layer metrics from the
// counters and from direct timings of public layer functions, and reports
// traced minus untraced wall time as the tracing overhead.  --reference 1
// runs the workload once on the in-process transport and prints its result
// digest, which the measured process-transport runs must reproduce
// (determinism contract #8, docs/ARCHITECTURE.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mec/core/mfne.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/des.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark workload.  Every workload runs the theoretical scenario at
/// E[A] = E[S]; they differ in population size, sharding, transport and
/// whether gamma is pinned at gamma* or tracked by the closed loop.
struct Workload {
  std::string name;
  std::size_t n = 0;
  std::size_t shards = 1;
  double warmup = 0.0;
  double horizon = 0.0;
  bool closed_loop = false;
  sim::TransportKind transport = sim::TransportKind::kInProcess;
  std::size_t workers = 0;
  double period = 0.0;
  /// Largest accepted |gamma - gamma*| (measured gamma for fixed-gamma
  /// runs, the final broadcast estimate for the closed loop).
  double gamma_tolerance = 0.0;
};

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  // Smoke mode keeps each workload's shape (shards, transport, horizon) and
  // divides the population by 100.
  const std::size_t scale = smoke ? 100 : 1;
  Workload w;
  w.name = name;
  if (name == "setup_1m") {
    w.n = 1'000'000 / scale;
    w.shards = 4;
    w.warmup = 1.0;
    w.horizon = 5.0;
    w.gamma_tolerance = smoke ? 0.03 : 0.01;
  } else if (name == "dtu_process") {
    w.n = 100'000 / scale;
    w.shards = 4;
    w.closed_loop = true;
    w.transport = sim::TransportKind::kProcess;
    w.workers = 2;
    w.period = 2.0;
    w.horizon = 100.0;
    w.gamma_tolerance = smoke ? 0.05 : 0.03;
  } else {
    return std::nullopt;
  }
  return w;
}

/// Everything one operation produced, timed from outside each call.
struct OpResult {
  double population_s = 0.0;
  double mfne_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  int mfne_iterations = 0;
  double gamma_star = 0.0;
  double gamma = 0.0;  ///< measured gamma, or the closed loop's final estimate
  bool settled = true;
  sim::SimulationResult result;

  double setup_s() const { return population_s + mfne_s + construct_s; }
  double wall_s() const { return setup_s() + run_s; }
  double gamma_abs_err() const { return std::fabs(gamma - gamma_star); }
};

/// total_events plus hexfloat gamma and mean cost: identical for every run
/// of one seed, whatever the transport or the shard count.
std::string digest(const OpResult& op) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%llu:%a:%a",
                static_cast<unsigned long long>(op.result.total_events),
                op.gamma, op.result.mean_cost);
  return buf;
}

OpResult run_op(const Workload& w, std::uint64_t seed,
                sim::TransportKind transport, const std::string& trace_path) {
  OpResult op;
  const auto cfg =
      population::theoretical_scenario(population::LoadRegime::kAtService, w.n);

  auto t = Clock::now();
  const population::Population pop = population::sample_population(cfg, seed);
  op.population_s = seconds_since(t);

  t = Clock::now();
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  op.mfne_s = seconds_since(t);
  op.mfne_iterations = mfne.iterations;
  op.gamma_star = mfne.gamma_star;

  if (w.closed_loop) {
    sim::ClosedLoopOptions opt;
    opt.update_period = w.period;
    opt.horizon = w.horizon;
    opt.seed = seed;
    opt.shards = w.shards;
    opt.transport = transport;
    opt.workers = w.workers;
    if (!trace_path.empty()) {
      // Samples on the epoch grid add no barriers of their own.
      opt.sample_interval = w.period;
      opt.stream_log = trace_path;
    }
    // The simulator is built inside run_closed_loop, so its construction
    // is part of run_s here.
    t = Clock::now();
    sim::ClosedLoopResult r =
        sim::run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
    op.run_s = seconds_since(t);
    op.gamma = r.final_gamma_hat;
    op.settled = r.estimate_settled;
    op.result = std::move(r.run);
  } else {
    sim::SimulationOptions so;
    so.warmup = w.warmup;
    so.horizon = w.horizon;
    so.seed = seed;
    so.fixed_gamma = mfne.gamma_star;
    so.shards = w.shards;
    so.transport = transport;
    so.workers = w.workers;
    if (!trace_path.empty()) {
      so.sample_interval = 1.0;
      so.stream_log = trace_path;
    }
    const std::vector<double> xs(mfne.thresholds.begin(),
                                 mfne.thresholds.end());
    t = Clock::now();
    const sim::MecSimulation des(pop.users, cfg.capacity, cfg.delay, so);
    op.construct_s = seconds_since(t);
    t = Clock::now();
    op.result = des.run_tro(xs);
    op.run_s = seconds_since(t);
    op.gamma = op.result.measured_utilization;
  }
  return op;
}

/// Output checks of one operation; returns the failed checks, empty when
/// the operation is correct.
std::vector<std::string> check_op(const Workload& w, const OpResult& op,
                                  const std::string& first_digest,
                                  const std::string& expect_digest) {
  std::vector<std::string> failed;
  if (op.result.total_events == 0) failed.push_back("events > 0");
  if (!(op.gamma_abs_err() <= w.gamma_tolerance))
    failed.push_back("gamma_abs_err <= tolerance");
  if (!op.settled) failed.push_back("estimate_settled");
  if (!std::isfinite(op.result.mean_cost)) failed.push_back("finite mean cost");
  const std::string d = digest(op);
  if (!first_digest.empty() && d != first_digest)
    failed.push_back("digest equals this seed's first run");
  if (!expect_digest.empty() && d != expect_digest)
    failed.push_back("digest equals the in-process run");
  return failed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process or of its largest child (the process
/// transport's forked ranks), in MiB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Engine-counter rollups of one traced run's .meclog.
struct CounterSummary {
  double leg_s_max = 0.0, leg_s_sum = 0.0;
  double events = 0.0;
  double queue_depth_max = 0.0, queue_depth_mean = 0.0;
  double gear_switches = 0.0, calendar_retunes = 0.0;
  double barrier_wait_s = 0.0, replay_records = 0.0, replay_deliveries = 0.0;
  double rank_wait_s = 0.0, payload_bytes = 0.0;
  double frames_sent = 0.0, frames_received = 0.0;
  std::size_t frames = 0;
};

CounterSummary summarize_counters(const obs::LogScan& scan) {
  using obs::Counter;
  const auto is = [](const obs::CounterValue& c, Counter id) {
    return c.id == static_cast<std::uint16_t>(id);
  };
  CounterSummary s;
  s.frames = scan.counters.size();
  std::map<std::uint16_t, double> leg_per_shard;
  double depth_sum = 0.0;
  std::size_t depth_samples = 0;
  for (const auto& frame : scan.counters)
    for (const obs::CounterValue& c : frame) {
      if (is(c, Counter::kShardLegSeconds)) leg_per_shard[c.shard] += c.value;
      if (is(c, Counter::kShardQueueDepth)) {
        s.queue_depth_max = std::max(s.queue_depth_max, c.value);
        depth_sum += c.value;
        ++depth_samples;
      }
      if (is(c, Counter::kBarrierWaitSeconds)) s.barrier_wait_s += c.value;
      if (is(c, Counter::kReplayRecords)) s.replay_records += c.value;
      if (is(c, Counter::kRankBarrierWaitSeconds)) s.rank_wait_s += c.value;
    }
  for (const auto& [shard, seconds] : leg_per_shard) {
    s.leg_s_max = std::max(s.leg_s_max, seconds);
    s.leg_s_sum += seconds;
  }
  if (depth_samples > 0)
    s.queue_depth_mean = depth_sum / static_cast<double>(depth_samples);
  // Cumulative counters: the last frame holds the run totals.
  if (!scan.counters.empty())
    for (const obs::CounterValue& c : scan.counters.back()) {
      // Tracked-gamma runs count edge deliveries as events too.
      if (is(c, Counter::kShardEvents) || is(c, Counter::kReplayDeliveries))
        s.events += c.value;
      if (is(c, Counter::kReplayDeliveries)) s.replay_deliveries = c.value;
      if (is(c, Counter::kShardGearSwitches)) s.gear_switches += c.value;
      if (is(c, Counter::kShardCalendarRetunes)) s.calendar_retunes += c.value;
      if (is(c, Counter::kRankPayloadBytes)) s.payload_bytes += c.value;
      if (is(c, Counter::kTransportFramesSent)) s.frames_sent += c.value;
      if (is(c, Counter::kTransportFramesReceived))
        s.frames_received += c.value;
    }
  return s;
}

/// Wall budget of one run: operations start until it is spent, but one
/// that would end more than half its expected length past the budget is
/// not started, so every run measures close to `seconds`.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  bool more(std::size_t done, std::size_t min_ops) {
    const double now = seconds_since(start_);
    if (done > 0) last_op_ = now - last_start_;
    last_start_ = now;
    return done < min_ops || now + 0.5 * last_op_ < seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  double last_start_ = 0.0;
  double last_op_ = 0.0;
};

/// Keeps a benchmarked result alive past the optimizer.
volatile double g_sink = 0.0;

/// Median wall seconds of `body` over `reps` repetitions.
template <typename F>
double time_median(int reps, F&& body) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// N x Xoshiro256::split(), the per-device stream derivation the engine
/// performs at shard init.
double time_rng_split(std::size_t n, std::uint64_t seed) {
  std::vector<random::Xoshiro256> rngs(n);
  return time_median(5, [&] {
    random::Xoshiro256 master(seed);
    for (std::size_t i = 0; i < n; ++i) rngs[i] = master.split();
  });
}

/// EventQueue hold model at `depth` pending events: each operation pops the
/// earliest event and schedules its successor an Exp(1) delay later.
/// Returns nanoseconds per push+pop pair.
double time_event_queue(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  constexpr std::size_t kOps = 2'000'000;
  random::Xoshiro256 rng(seed);
  std::vector<double> delays(kOps + depth);
  for (double& d : delays) d = random::exponential(rng, 1.0);
  const double s = time_median(3, [&] {
    sim::EventQueue q;
    for (std::size_t i = 0; i < depth; ++i)
      q.push(delays[i], sim::EventKind::kArrival,
             static_cast<std::uint32_t>(i & 0xFFFFF));
    for (std::size_t i = 0; i < kOps; ++i) {
      const sim::Event e = q.pop();
      q.push(e.time + delays[depth + i], e.kind, e.device);
    }
    g_sink = q.next_time();
  });
  return s / static_cast<double>(kOps) * 1e9;
}

/// Nanoseconds per LatencySketch::add over exponential latencies.
double time_sketch_add(std::uint64_t seed) {
  constexpr std::size_t kAdds = 4'000'000;
  random::Xoshiro256 rng(seed);
  std::vector<double> values(kAdds);
  for (double& v : values) v = random::exponential(rng, 1.0);
  const double s = time_median(3, [&] {
    stats::LatencySketch sketch;
    for (const double v : values) sketch.add(v);
    g_sink = sketch.p50();
  });
  return s / static_cast<double>(kAdds) * 1e9;
}

/// Seconds to encode, frame, unframe and decode one barrier payload of
/// `payload_bytes` (two shards' offload logs, the process workload's rank
/// shape) through the public codec in parallel/transport.hpp.
double time_codec(double payload_bytes, std::uint64_t seed) {
  namespace pw = parallel::wire;
  constexpr std::size_t kShardsPerRank = 2;
  const std::uint64_t cluster_offloads[1] = {0};
  std::vector<std::vector<sim::OffloadRecord>> logs(kShardsPerRank);
  const auto make_views = [&] {
    std::vector<parallel::ShardBarrierView> views(kShardsPerRank);
    for (std::size_t s = 0; s < kShardsPerRank; ++s) {
      views[s].shard = static_cast<std::uint32_t>(s);
      views[s].log = logs[s];
      views[s].cluster_offloads = cluster_offloads;
    }
    return views;
  };
  const std::size_t base =
      pw::encode_barrier_payload(make_views(), true, 0.0, 0.0).size();
  const std::size_t records = static_cast<std::size_t>(
      std::max(0.0, payload_bytes - static_cast<double>(base)) /
      static_cast<double>(pw::kOffloadRecordWireSize * kShardsPerRank));
  random::Xoshiro256 rng(seed);
  for (auto& log : logs) {
    log.resize(records);
    double time = 0.0;
    for (sim::OffloadRecord& r : log) {
      time += random::exponential(rng, 1.0);
      r.time = time;
      r.latency = random::exponential(rng, 1.0);
      r.device = static_cast<std::uint32_t>(rng() & 0xFFFFF);
      r.measured = true;
    }
  }
  const std::vector<parallel::ShardBarrierView> views = make_views();
  const double s = time_median(5, [&] {
    const std::vector<std::uint8_t> payload =
        pw::encode_barrier_payload(views, true, 1.0, 1.0);
    const std::vector<std::uint8_t> frame =
        pw::encode_frame(pw::kFrameBarrier, payload);
    const pw::DecodedFrame f = pw::decode_frame(frame);
    g_sink = static_cast<double>(
        pw::decode_barrier_payload(f.payload).shards.size());
  });
  return s;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  if (failed == 0)
    std::printf("output checks: passed on all %zu operations\n", attempted);
  else
    std::printf("output checks: FAILED on %zu of %zu operations\n", failed,
                attempted);
  for (const Metric& m : metrics)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  bool reference = false;
  std::string trace_dir = ".";
  std::string expect_digest;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mec_perfbench --workload W --seed S "
               "--seconds T --trace 0|1 [--smoke 0|1] [--trace-dir DIR] "
               "[--expect-digest HEX] [--reference 1]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value != "0";
    else if (key == "--smoke") a.smoke = value != "0";
    else if (key == "--reference") a.reference = value != "0";
    else if (key == "--trace-dir") a.trace_dir = value;
    else if (key == "--expect-digest") a.expect_digest = value;
    else usage(("unknown flag " + key).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.reference && !(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

int run_end_to_end(const Workload& w, const Args& a) {
  std::vector<double> wall, setup, run, eps, gamma_err;
  std::size_t attempted = 0, failed = 0;
  std::string first_digest;
  Budget budget(a.seconds);
  while (budget.more(attempted, 1)) {
    ++attempted;
    try {
      const OpResult op = run_op(w, a.seed, w.transport, "");
      const auto bad = check_op(w, op, first_digest, a.expect_digest);
      if (first_digest.empty()) first_digest = digest(op);
      for (const std::string& c : bad)
        std::printf("op %zu: check failed: %s\n", attempted, c.c_str());
      std::printf("op %zu: digest %s  gamma_abs_err %.6g  setup %.4f s  run %.4f s\n",
                  attempted, digest(op).c_str(), op.gamma_abs_err(),
                  op.setup_s(), op.run_s);
      if (!bad.empty()) {
        ++failed;
        continue;
      }
      wall.push_back(op.wall_s());
      setup.push_back(op.setup_s());
      run.push_back(op.run_s);
      eps.push_back(static_cast<double>(op.result.total_events) / op.run_s);
      gamma_err.push_back(op.gamma_abs_err());
    } catch (const std::exception& e) {
      std::printf("op %zu: threw: %s\n", attempted, e.what());
      ++failed;
    }
  }
  std::printf("workload %s seed %llu: %zu ops, %zu failed\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), attempted, failed);
  // Deterministic per seed, so it varies across seeds far beyond any
  // timing bound: reported here and by the traced run, checked against the
  // workload's tolerance, but not one of the end-to-end metrics.
  std::printf("  %-28s %.6g (tolerance %g)\n", "gamma_abs_err", median(gamma_err),
              w.gamma_tolerance);
  print_result(failed == 0, attempted, failed,
               {{"wall_s", median(wall), "s"},
                {"setup_s", median(setup), "s"},
                {"run_s", median(run), "s"},
                {"events_per_s", median(eps), "1/s"},
                {"peak_rss_mb", peak_rss_mb(), "MiB"}});
  return 0;
}

int run_traced(const Workload& w, const Args& a) {
  std::filesystem::create_directories(a.trace_dir);
  const std::string path = (std::filesystem::path(a.trace_dir) /
                            (w.name + "-" + std::to_string(a.seed) + ".meclog"))
                               .string();
  std::vector<double> untraced_wall, traced_wall;
  std::vector<double> population_s, mfne_s, construct_s, run_s;
  std::vector<double> leg_max, leg_sum, overhead, balance, log_bytes;
  std::optional<CounterSummary> counters;
  std::optional<OpResult> last;
  std::size_t attempted = 0, failed = 0;
  std::string first_digest;
  Budget budget(a.seconds);
  // Untraced and traced operations alternate, so both see the same machine
  // state; at least one of each runs.
  while (budget.more(attempted, 2)) {
    const bool traced = attempted % 2 == 1;
    ++attempted;
    try {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      OpResult op = run_op(w, a.seed, w.transport, traced ? path : "");
      std::vector<std::string> bad =
          check_op(w, op, first_digest, a.expect_digest);
      if (first_digest.empty()) first_digest = digest(op);
      std::optional<CounterSummary> cs;
      if (traced) {
        const obs::LogScan scan = obs::scan_log(path);
        cs = summarize_counters(scan);
        if (!scan.complete()) bad.push_back("complete .meclog");
        if (cs->frames == 0) bad.push_back("counter frames present");
        if (cs->events != static_cast<double>(op.result.total_events))
          bad.push_back("counter events == total_events");
        const bool wire = w.transport != sim::TransportKind::kInProcess;
        if (!wire && (cs->rank_wait_s != 0.0 || cs->payload_bytes != 0.0 ||
                      cs->frames_sent != 0.0 || cs->frames_received != 0.0))
          bad.push_back("parallel counters zero in-process");
        if (wire && (cs->rank_wait_s <= 0.0 || cs->payload_bytes <= 0.0))
          bad.push_back("parallel counters non-zero over the wire");
      }
      for (const std::string& c : bad)
        std::printf("op %zu: check failed: %s\n", attempted, c.c_str());
      std::printf("op %zu (%s): digest %s  wall %.4f s\n", attempted,
                  traced ? "traced" : "untraced", digest(op).c_str(),
                  op.wall_s());
      if (!bad.empty()) {
        ++failed;
        continue;
      }
      population_s.push_back(op.population_s);
      mfne_s.push_back(op.mfne_s);
      construct_s.push_back(op.construct_s);
      if (!traced) {
        untraced_wall.push_back(op.wall_s());
        continue;
      }
      traced_wall.push_back(op.wall_s());
      run_s.push_back(op.run_s);
      leg_max.push_back(cs->leg_s_max);
      leg_sum.push_back(cs->leg_s_sum);
      overhead.push_back(op.run_s - cs->leg_s_max);
      balance.push_back(cs->leg_s_max > 0.0
                            ? cs->leg_s_sum / (static_cast<double>(w.shards) *
                                               cs->leg_s_max)
                            : 0.0);
      log_bytes.push_back(
          static_cast<double>(std::filesystem::file_size(path)));
      counters = cs;
      last = std::move(op);
    } catch (const std::exception& e) {
      std::printf("op %zu: threw: %s\n", attempted, e.what());
      ++failed;
    }
  }
  if (!counters || untraced_wall.empty()) {
    std::printf("no traced/untraced pair succeeded\n");
    print_result(false, attempted, std::max<std::size_t>(failed, 1), {});
    return 0;
  }
  const CounterSummary& c = *counters;
  // Layer micro-measurements at the shapes the traced run observed.
  const double split_s = time_rng_split(w.n, a.seed);
  const double queue_ns = time_event_queue(
      static_cast<std::size_t>(std::llround(c.queue_depth_mean)), a.seed);
  const double sketch_ns = time_sketch_add(a.seed);
  const double codec_s =
      c.frames_received > 0.0
          ? time_codec(c.payload_bytes / c.frames_received, a.seed) *
                c.frames_received
          : 0.0;
  std::printf("workload %s seed %llu (traced): %zu ops, %zu failed\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              attempted, failed);
  print_result(
      failed == 0, attempted, failed,
      {{"population.sample_s", median(population_s), "s"},
       {"core.mfne_s", median(mfne_s), "s"},
       {"core.mfne_iterations", static_cast<double>(last->mfne_iterations),
        "count"},
       {"gamma_abs_err", last->gamma_abs_err(), "1"},
       {"sim.construct_s", median(construct_s), "s"},
       {"random.split_s", split_s, "s"},
       {"sim.run_s", median(run_s), "s"},
       {"sim.leg_s_max", median(leg_max), "s"},
       {"sim.leg_s_sum", median(leg_sum), "s"},
       {"sim.run_overhead_s", median(overhead), "s"},
       {"sim.shard_balance", median(balance), "1"},
       {"sim.events", c.events, "count"},
       {"sim.queue_depth_max", c.queue_depth_max, "count"},
       {"sim.gear_switches", c.gear_switches, "count"},
       {"sim.calendar_retunes", c.calendar_retunes, "count"},
       {"sim.event_queue_ns_per_op", queue_ns, "ns"},
       {"stats.sketch_add_ns", sketch_ns, "ns"},
       {"sim.barrier_wait_s", c.barrier_wait_s, "s"},
       {"sim.replay_records", c.replay_records, "count"},
       {"sim.replay_deliveries", c.replay_deliveries, "count"},
       {"parallel.rank_wait_s", c.rank_wait_s, "s"},
       {"parallel.payload_bytes", c.payload_bytes, "B"},
       {"parallel.frames_sent", c.frames_sent, "count"},
       {"parallel.frames_received", c.frames_received, "count"},
       {"parallel.codec_s", codec_s, "s"},
       {"obs.log_bytes", median(log_bytes), "B"},
       {"obs.trace_overhead_s", median(traced_wall) - median(untraced_wall),
        "s"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const std::optional<Workload> w = find_workload(a.workload, a.smoke);
    if (!w) usage(("unknown workload " + a.workload).c_str());
    if (a.reference) {
      const OpResult op =
          run_op(*w, a.seed, sim::TransportKind::kInProcess, "");
      std::printf("digest %s\n", digest(op).c_str());
      return 0;
    }
    return a.trace ? run_traced(*w, a) : run_end_to_end(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
