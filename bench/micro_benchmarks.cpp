// Ablation X5: google-benchmark micro-benchmarks of the hot paths — the TRO
// closed forms, the Lemma-1 oracle, a full V(gamma) population sweep, the
// MFNE bisection, the discrete-event simulator's event throughput, and the
// parallel replication engine's scaling across thread counts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/parallel/sequential.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/queueing/threshold_queue.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

using namespace mec;

const population::Population& shared_population(std::size_t n) {
  static const population::Population pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       10000),
      1);
  (void)n;
  return pop;
}

void BM_TroMetrics(benchmark::State& state) {
  const double theta = 1.0 + static_cast<double>(state.range(0)) / 10.0;
  const double x = static_cast<double>(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(queueing::tro_metrics(theta, x));
}
BENCHMARK(BM_TroMetrics)->Args({5, 2})->Args({5, 20})->Args({20, 100});

void BM_BestThresholdOracle(benchmark::State& state) {
  core::UserParams u;
  u.arrival_rate = 3.0;
  u.service_rate = 2.0;
  u.offload_latency = 0.5;
  u.energy_local = 1.0;
  u.energy_offload = 0.3;
  const double g = static_cast<double>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::best_threshold(u, g));
}
BENCHMARK(BM_BestThresholdOracle)->Arg(1)->Arg(5)->Arg(10);

void BM_BestResponseSweep(benchmark::State& state) {
  const auto& pop = shared_population(10000);
  const auto users = std::span<const core::UserParams>(
      pop.users.data(), static_cast<std::size_t>(state.range(0)));
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::best_response(users, delay, 10.0, 0.3).utilization);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BestResponseSweep)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MfneSolve(benchmark::State& state) {
  const auto& pop = shared_population(10000);
  const auto users = std::span<const core::UserParams>(
      pop.users.data(), static_cast<std::size_t>(state.range(0)));
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::solve_mfne(users, delay, 10.0).gamma_star);
}
BENCHMARK(BM_MfneSolve)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_DesEventThroughput(benchmark::State& state) {
  const auto& pop = shared_population(10000);
  const auto users = std::span<const core::UserParams>(
      pop.users.data(), static_cast<std::size_t>(state.range(0)));
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 20.0;
  o.fixed_gamma = 0.2;
  sim::MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const std::vector<double> xs(users.size(), 2.0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::SimulationResult r = sim.run_tro(xs);
    events += r.total_events;
    benchmark::DoNotOptimize(r.mean_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DesEventThroughput)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Same workload with windowed telemetry streamed to a .meclog (one window
// per simulated second, in-memory timeline off).  The delta against
// BM_DesEventThroughput is the full cost of the streaming path: counter
// sampling, window folding, and the per-frame flush.
void BM_DesStreamedThroughput(benchmark::State& state) {
  const auto& pop = shared_population(10000);
  const auto users = std::span<const core::UserParams>(
      pop.users.data(), static_cast<std::size_t>(state.range(0)));
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 20.0;
  o.fixed_gamma = 0.2;
  o.sample_interval = 1.0;
  o.stream_log = "micro_stream_bench.meclog";
  o.record_timeline = false;
  sim::MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  const std::vector<double> xs(users.size(), 2.0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::SimulationResult r = sim.run_tro(xs);
    events += r.total_events;
    benchmark::DoNotOptimize(r.mean_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  std::remove("micro_stream_bench.meclog");
}
BENCHMARK(BM_DesStreamedThroughput)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Scaling of the replication engine on a Fig.-7-sized workload (practical
// scenario, N = 1000, empirical service/latency): 8 independent DES
// replications spread over range(0) threads.  The replications are
// embarrassingly parallel with a serial merge at the end, so on a machine
// with >= 4 cores the wall-clock time should drop near-linearly from the
// --threads=1 row (the aggregate stays bit-identical; see test_parallel).
// UseRealTime is required: the work happens on pool threads, so CPU time of
// the benchmark thread alone would under-report.
void BM_RunReplicationsScaling(benchmark::State& state) {
  static const population::Population pop = population::sample_population(
      population::practical_scenario(population::LoadRegime::kAtService), 21);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  sim::SimulationOptions so;
  so.service = {.kind = sim::SamplerSpec::Kind::kEmpirical,
                .data = random::synthetic_yolo_processing_times().samples()};
  so.latency = {.kind = sim::SamplerSpec::Kind::kEmpirical,
                .data = random::synthetic_wifi_offload_latencies().samples()};
  so.fixed_gamma = 0.44;
  so.horizon = 60.0;
  so.warmup = 10.0;
  const std::vector<double> xs(pop.users.size(), 2.0);
  parallel::ReplicationOptions ro;
  ro.replications = 8;
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const parallel::ReplicationResult r = parallel::run_replications(
        pop.users, 10.0, delay, so, xs, ro, &pool);
    benchmark::DoNotOptimize(r.mean_cost.mean());
  }
  state.counters["threads"] =
      static_cast<double>(pool.thread_count());
}
BENCHMARK(BM_RunReplicationsScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Sequential stopping vs a fixed budget: run-until-confident on a small DES
// workload with a relative CI-width target.  The counter reports how many
// replications the stopping rule actually spent per iteration — the wall
// clock to compare against is BM_RunReplicationsScaling's fixed R = 8.
void BM_RunUntilConfident(benchmark::State& state) {
  static const population::Population pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       200),
      7);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  sim::SimulationOptions so;
  so.fixed_gamma = 0.2;
  so.horizon = 40.0;
  so.warmup = 5.0;
  const std::vector<double> xs(pop.users.size(), 2.0);
  parallel::SequentialOptions sq;
  sq.target_relative = 1e-3 * static_cast<double>(state.range(0));
  sq.min_replications = 4;
  sq.wave = 4;
  sq.max_replications = 256;
  parallel::ThreadPool pool(0);
  std::uint64_t replications = 0;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    const parallel::SequentialResult r = parallel::run_until_confident(
        pop.users, 10.0, delay, so, xs, sq, &pool);
    replications += r.replications;
    ++iterations;
    benchmark::DoNotOptimize(r.aggregate.mean_cost.mean());
  }
  state.counters["reps/iter"] = static_cast<double>(replications) /
                                static_cast<double>(iterations);
}
BENCHMARK(BM_RunUntilConfident)
    ->Arg(20)  // 2% relative target
    ->Arg(5)   // 0.5% relative target
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Scaling of the parallel V(gamma) sweep: one best_response over N = 10^5
// users per iteration, spread over range(0) threads in 256-user chunks.
void BM_ParallelBestResponse(benchmark::State& state) {
  static const population::Population pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       100000),
      1);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  parallel::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::best_response(pop.users, delay, 10.0, 0.3, pool).utilization);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pop.users.size()));
}
BENCHMARK(BM_ParallelBestResponse)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// google-benchmark keeps its own flag parser, so the experiment hands it a
// synthetic argv: the runner's --filter maps to --benchmark_filter, and
// --smoke pins the two cheapest closed-form benchmarks so the CI smoke
// matrix stays fast.
int run(mec::bench::Context& ctx) {
  std::string filter = ctx.get_string("filter");
  if (filter.empty() && ctx.smoke())
    filter = "BM_TroMetrics|BM_BestThresholdOracle";

  std::vector<std::string> argv_storage = {"micro_benchmarks"};
  if (!filter.empty())
    argv_storage.push_back("--benchmark_filter=" + filter);
  std::vector<char*> argv;
  argv.reserve(argv_storage.size());
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());

  benchmark::Initialize(&argc, argv.data());
  if (benchmark::ReportUnrecognizedArguments(argc, argv.data()))
    throw std::runtime_error("micro_benchmarks: bad benchmark arguments");
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (ran == 0)
    throw std::runtime_error("micro_benchmarks: filter '" + filter +
                             "' matched no benchmarks");
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"micro_benchmarks",
     "Ablation X5: google-benchmark micro-benchmarks of the hot paths",
     {{"filter", mec::bench::FlagKind::kString, "",
       "regex passed to --benchmark_filter (smoke pins the closed forms)"}},
     run});

}  // namespace
