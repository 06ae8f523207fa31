// mec — command-line explorer for the threshold-offloading library.
//
//   mec scenarios
//       List the built-in scenario presets.
//   mec mfne     --scenario=<name> --regime=<low|eq|high> [--n=..] [--seed=..]
//       Solve the Mean-Field Nash Equilibrium.
//   mec dtu      --scenario=.. --regime=.. [--eta0=..] [--epsilon=..]
//                [--async=<prob>] [--trace]
//       Run the Distributed Threshold Update algorithm and print the trace.
//   mec simulate --scenario=.. --regime=.. [--horizon=..] [--warmup=..]
//                [--service=<exp|erlang4|hyperexp4|empirical>]
//                [--replications=R] [--threads=T] [--confidence=0.95]
//                [--target-ci=W | --target-rel=F] [--max-replications=..]
//                [--wave=..] [--metric=..]
//       Simulate the MFNE thresholds in the discrete-event simulator.
//       With R > 1, runs R independent replications (seed_r = seed +
//       golden-ratio * (r+1)) across T threads and reports mean +/- CI;
//       the aggregate is bit-identical for every T.  With a --target-ci /
//       --target-rel, replications instead grow in waves until the metric's
//       CI half-width meets the target (sequential stopping); any stopped
//       run is replayable by --replications=<stopped R>.
//   mec compare  --scenario=.. --regime=..
//       DTU vs the probabilistic baselines on one population.
//
// Common flags: --n (population size), --seed, --capacity, --latency-mean.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mec/baseline/dpo.hpp"
#include "mec/common/error.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/fault/fault_text.hpp"
#include "mec/io/args.hpp"
#include "mec/io/csv.hpp"
#include "mec/io/json.hpp"
#include "mec/io/table.hpp"
#include "mec/net/address.hpp"
#include "mec/net/worker.hpp"
#include "mec/obs/tail.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/parallel/sequential.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/population/scenario_text.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

using namespace mec;

constexpr const char* kUsage = R"(usage: mec <command> [flags]

commands:
  scenarios                      list scenario presets
  mfne      solve the Mean-Field Nash Equilibrium
  dtu       run the Distributed Threshold Update algorithm
  simulate  DES-validate the equilibrium thresholds
  closedloop  run Algorithm 1 live inside the simulator
  compare   DTU vs probabilistic baselines
  tail      view a .meclog telemetry stream (live or post-hoc)
  worker    serve simulation ranks to a remote coordinator over TCP

common flags:
  --scenario=<theoretical|comparison|practical>   (default theoretical)
  --config=<file.mec>            load a scenario config file instead
  --regime=<low|eq|high>                          (default eq)
  --n=<users> --seed=<seed> --capacity=<c> --latency-mean=<s>

sharded execution (simulate, closedloop):
  --shards=<k>                   partition one run's devices over k event
                                 queues (bit-identical for any k; default
                                 honors MEC_SHARDS, then 1)
  --transport=<inproc|process|tcp>  run shard legs in this process
                                 (default), in forked worker processes, or
                                 in `mec worker` daemons reached over TCP;
                                 results are byte-identical in every case
  --workers=<w>                  worker-process count for
                                 --transport=process (default 2, capped at
                                 the shard count)
  --workers=<host:port,...>      for --transport=tcp: one `mec worker`
                                 daemon address per rank

worker daemon:
  mec worker --listen=<host:port> [--max-runs=<n>] [--quiet=<0|1>]
                                 serve simulation ranks on host:port; one
                                 run per coordinator connection, forever
                                 unless --max-runs is set

multi-cluster edge (simulate):
  --clusters=<k>                 split the edge capacity over k clusters
                                 (device n feeds cluster n mod k; equal
                                 shares; default 1 = the classic model)
  --topology=<s0,s1,...>         explicit per-cluster capacity shares
                                 (must sum to 1; sets the cluster count)
  --policy=<tro|price|minority>  offloading policy family (default tro):
                                 price = per-cluster congestion prices,
                                 dual ascent toward --gamma-target;
                                 minority = minority-game server activation
  --gamma-target=<g> --update-period=<s>   price/minority controls

fault injection (simulate, closedloop):
  --fault-schedule=<file.fault>  deterministic fault/churn schedule
                                 (also embeddable as `fault = ...` lines of
                                 a --config file); closedloop then resumes
                                 Algorithm 1 on utilization drift, and
                                 --csv=<file> dumps the epoch trajectory.

sequential stopping (simulate):
  --target-ci=<w>                grow replications in waves until the CI
                                 half-width of --metric is <= w
  --target-rel=<f>               ... or <= f * |mean| (either or both)
  --metric=<mean-cost|queue-length|offload-fraction|utilization|
            local-sojourn|offload-delay>          (default mean-cost)
  --max-replications=<cap> --wave=<step>          (defaults 512, 8)
  --replications then sets the minimum before the first look

streaming telemetry (simulate, closedloop):
  --stream-log=<run.meclog>      stream windowed metrics + engine counters
                                 to a self-describing binary log; follow it
                                 live with `mec tail <run.meclog> --follow`
  --window=<seconds>             observation-grid spacing for the stream
                                 (and the in-memory timeline; default 1.0
                                 when --stream-log is set)
  --counters=<0|1>               engine-counter frames in the stream log
                                 (default 1; counters are wall-clock
                                 diagnostics — disable them when byte-
                                 comparing logs across shard counts or
                                 transports)

tail flags:
  mec tail <run.meclog> [--follow] [--check] [--interval=<ms>]
                        [--csv=<file>] [--hist-csv=<file>]
run `mec <command> --help` for command-specific flags.
)";

sim::TransportKind parse_transport(const std::string& name) {
  if (name == "inproc") return sim::TransportKind::kInProcess;
  if (name == "process") return sim::TransportKind::kProcess;
  if (name == "tcp") return sim::TransportKind::kTcp;
  throw RuntimeError("unknown --transport '" + name +
                     "' (inproc|process|tcp)");
}

/// Resolves the dual-grammar --workers flag: a count for
/// --transport=process, a host:port list for --transport=tcp, rejected for
/// inproc.  Fills `workers` or `worker_addresses` accordingly.
void parse_workers_flag(const io::Args& args, sim::TransportKind transport,
                        std::size_t& workers,
                        std::vector<std::string>& worker_addresses) {
  if (transport == sim::TransportKind::kTcp) {
    if (!args.has("workers"))
      throw RuntimeError(
          "--transport=tcp needs --workers=<host:port,host:port,...> (one "
          "mec worker daemon per rank)");
    for (const net::Address& a :
         net::parse_worker_list(args.get_string("workers", "")))
      worker_addresses.push_back(a.str());
    return;
  }
  if (args.has("workers") && transport != sim::TransportKind::kProcess)
    throw RuntimeError(
        "--workers only applies to --transport=process or --transport=tcp");
  workers = static_cast<std::size_t>(args.get_long("workers", 0));
}

/// Flags shared by `simulate` and `closedloop`: they fill the RunOptions
/// block every run takes, whatever policy drives it.
const std::set<std::string> kRunFlags = {"shards", "stream-log", "window",
                                         "transport", "workers", "counters"};

/// Reads the seed and kRunFlags into `run`.
void read_run_flags(const io::Args& args, sim::RunOptions& run) {
  run.seed = static_cast<std::uint64_t>(args.get_long("seed", 42));
  run.shards = static_cast<std::size_t>(args.get_long("shards", 0));
  run.stream_log = args.get_path("stream-log");
  if (args.has("window") || !run.stream_log.empty())
    run.sample_interval = args.get_double("window", 1.0);
  run.transport = parse_transport(args.get_string("transport", "inproc"));
  parse_workers_flag(args, run.transport, run.workers, run.worker_addresses);
  run.stream_counters = args.get_long("counters", 1) != 0;
}

population::LoadRegime parse_regime(const std::string& name) {
  if (name == "low") return population::LoadRegime::kBelowService;
  if (name == "eq") return population::LoadRegime::kAtService;
  if (name == "high") return population::LoadRegime::kAboveService;
  throw RuntimeError("unknown regime '" + name + "' (low|eq|high)");
}

population::ScenarioConfig build_scenario(const io::Args& args) {
  if (args.has("config")) {
    population::ScenarioConfig cfg =
        population::load_scenario_file(args.get_path("config"));
    if (args.has("n"))
      cfg.n_users = static_cast<std::size_t>(args.get_long("n", 1));
    if (args.has("capacity")) cfg.capacity = args.get_double("capacity", 0.0);
    cfg.check();
    return cfg;
  }
  const std::string name = args.get_string("scenario", "theoretical");
  const auto regime = parse_regime(args.get_string("regime", "eq"));
  const auto n = static_cast<std::size_t>(args.get_long("n", 0));

  population::ScenarioConfig cfg;
  if (name == "theoretical") {
    cfg = population::theoretical_scenario(regime, n ? n : 10000);
  } else if (name == "comparison") {
    cfg = population::theoretical_comparison_scenario(regime, n ? n : 1000);
  } else if (name == "practical") {
    cfg = population::practical_scenario(regime, n ? n : 1000,
                                         args.get_double("latency-mean", 0.4));
  } else {
    throw RuntimeError("unknown scenario '" + name +
                       "' (theoretical|comparison|practical)");
  }
  if (args.has("capacity")) cfg.capacity = args.get_double("capacity", 0.0);
  cfg.check();
  return cfg;
}

/// --clusters / --topology on top of the scenario's own cluster keys:
/// --topology fixes the shares (and the count); --clusters alone asks for
/// an equal split.
sim::ClusterTopology build_topology(const io::Args& args,
                                    const population::ScenarioConfig& cfg) {
  sim::ClusterTopology topology;
  topology.clusters = cfg.clusters;
  topology.shares = cfg.cluster_shares;
  if (args.has("topology")) {
    topology.shares.clear();
    std::string spec = args.get_string("topology", "");
    std::size_t start = 0;
    for (std::size_t i = 0; i <= spec.size(); ++i)
      if (i == spec.size() || spec[i] == ',') {
        const std::string token = spec.substr(start, i - start);
        start = i + 1;
        try {
          std::size_t pos = 0;
          const double share = std::stod(token, &pos);
          if (pos != token.size()) throw RuntimeError("trailing");
          topology.shares.push_back(share);
        } catch (const std::exception&) {
          throw RuntimeError("--topology expects comma-separated shares, got '" +
                             token + "'");
        }
      }
    topology.clusters = topology.shares.size();
  }
  if (args.has("clusters")) {
    const auto k = static_cast<std::size_t>(args.get_long("clusters", 1));
    if (args.has("topology")) {
      if (k != topology.clusters)
        throw RuntimeError("--clusters disagrees with the --topology share count");
    } else {
      topology.clusters = k;
      if (topology.shares.size() != k) topology.shares.clear();
    }
  }
  try {
    topology.check();
  } catch (const ContractViolation& e) {
    throw RuntimeError(std::string("invalid cluster topology: ") + e.what());
  }
  return topology;
}

const std::set<std::string> kCommonFlags = {
    "scenario", "regime", "n",    "seed",
    "capacity", "latency-mean",   "config", "help"};

/// Builds the fault schedule from --fault-schedule or the scenario's
/// embedded `fault =` lines; null when neither is present.
std::shared_ptr<const fault::FaultSchedule> build_faults(
    const io::Args& args, const population::ScenarioConfig& cfg) {
  if (args.has("fault-schedule"))
    return std::make_shared<const fault::FaultSchedule>(
        fault::load_fault_schedule_file(args.get_path("fault-schedule"),
                                        &cfg));
  if (!cfg.fault_lines.empty()) {
    std::string text;
    for (const std::string& line : cfg.fault_lines) {
      text += line;
      text += '\n';
    }
    return std::make_shared<const fault::FaultSchedule>(
        fault::parse_fault_schedule(text, &cfg));
  }
  return nullptr;
}

int cmd_scenarios() {
  io::TextTable table("built-in scenario presets");
  table.set_header({"name", "paper section", "N", "c", "notes"});
  table.add_row({"theoretical", "IV-A (Table I, Fig. 5)", "10000", "10",
                 "uniform marginals, T~U(0,1)"});
  table.add_row({"comparison", "IV-C (Table III)", "1000", "10",
                 "theoretical with T~U(0,5)"});
  table.add_row({"practical", "IV-B (Table II, Fig. 7)", "1000", "8.5",
                 "measured S/T datasets, E[S]=8.9437"});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_mfne(const io::Args& args) {
  auto known = kCommonFlags;
  known.insert("json");
  args.reject_unknown(known);
  const auto cfg = build_scenario(args);
  const auto pop = population::sample_population(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 42)));
  const core::MfneResult r =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  std::vector<double> xs(r.thresholds.begin(), r.thresholds.end());
  const double cost =
      core::average_cost(pop.users, xs, cfg.delay, r.gamma_star);
  double mean_x = 0.0;
  for (const auto x : r.thresholds) mean_x += static_cast<double>(x);
  mean_x /= static_cast<double>(pop.size());

  if (args.get_bool("json", false)) {
    const io::Json out = io::Json::object({
        {"scenario", io::Json::string(cfg.name)},
        {"n_users", io::Json::integer(static_cast<long long>(pop.size()))},
        {"capacity", io::Json::number(cfg.capacity)},
        {"gamma_star", io::Json::number(r.gamma_star)},
        {"best_response", io::Json::number(r.best_response_value)},
        {"bisection_steps", io::Json::integer(r.iterations)},
        {"average_cost", io::Json::number(cost)},
        {"mean_threshold", io::Json::number(mean_x)},
    });
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  std::printf("scenario: %s  N=%zu  c=%.2f\n", cfg.name.c_str(), pop.size(),
              cfg.capacity);
  std::printf("gamma* = %.6f   (V(gamma*) = %.6f, %d bisection steps)\n",
              r.gamma_star, r.best_response_value, r.iterations);
  std::printf("average cost at equilibrium = %.6f\n", cost);
  std::printf("mean equilibrium threshold  = %.3f\n", mean_x);
  return 0;
}

int cmd_dtu(const io::Args& args) {
  auto known = kCommonFlags;
  known.insert({"eta0", "epsilon", "async", "trace", "max-iterations"});
  args.reject_unknown(known);
  const auto cfg = build_scenario(args);
  const auto pop = population::sample_population(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 42)));

  core::DtuOptions opt;
  opt.eta0 = args.get_double("eta0", opt.eta0);
  opt.epsilon = args.get_double("epsilon", opt.epsilon);
  opt.max_iterations =
      static_cast<int>(args.get_long("max-iterations", opt.max_iterations));
  const double async = args.get_double("async", 1.0);
  if (async < 1.0) opt.update_gate = core::make_bernoulli_gate(async, 1);

  core::AnalyticUtilization source(pop.users, cfg.capacity);
  const core::DtuResult r = run_dtu(pop.users, cfg.delay, source, opt);
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;

  std::printf("scenario: %s  N=%zu  eta0=%.3f  epsilon=%.3f  async=%.2f\n",
              cfg.name.c_str(), pop.size(), opt.eta0, opt.epsilon, async);
  std::printf("converged=%s after %d iterations\n", r.converged ? "yes" : "no",
              r.iterations);
  std::printf("gamma_hat = %.5f   true gamma = %.5f   MFNE gamma* = %.5f\n",
              r.final_gamma_hat, r.final_gamma, star);
  if (args.get_bool("trace", false)) {
    std::printf("\n  t   gamma_t    gamma_hat  eta\n");
    for (const auto& it : r.trace)
      std::printf("  %-3d %-10.5f %-10.5f %-8.5f\n", it.t, it.gamma,
                  it.gamma_hat, it.eta);
  }
  return 0;
}

int cmd_simulate(const io::Args& args) {
  auto known = kCommonFlags;
  known.insert(kRunFlags.begin(), kRunFlags.end());
  known.insert({"horizon", "warmup", "service", "replications", "threads",
                "confidence", "fault-schedule", "target-ci", "target-rel",
                "max-replications", "wave", "metric", "clusters", "topology",
                "policy", "gamma-target", "update-period"});
  args.reject_unknown(known);
  const auto cfg = build_scenario(args);
  const auto pop = population::sample_population(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 42)));
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  const auto faults = build_faults(args, cfg);
  const sim::ClusterTopology topology = build_topology(args, cfg);

  sim::SimulationOptions so;
  so.topology = topology;
  so.horizon = args.get_double("horizon", 200.0);
  so.warmup = args.get_double("warmup", 20.0);
  so.fixed_gamma = mfne.gamma_star;
  so.faults = faults;
  read_run_flags(args, so);
  const std::string service = args.get_string("service", "exp");
  if (service == "erlang4") {
    so.service.kind = sim::SamplerSpec::Kind::kErlang;
    so.service.param = 4.0;
  } else if (service == "hyperexp4") {
    so.service.kind = sim::SamplerSpec::Kind::kHyperExponential;
    so.service.param = 4.0;
  } else if (service == "empirical") {
    so.service.kind = sim::SamplerSpec::Kind::kEmpirical;
    so.service.data = random::synthetic_yolo_processing_times().samples();
  } else if (service != "exp") {
    throw RuntimeError("unknown --service (exp|erlang4|hyperexp4|empirical)");
  }

  std::vector<double> xs(mfne.thresholds.begin(), mfne.thresholds.end());
  if (faults && faults->churn_arrivals() > 0) {
    // Churn joiners also best-respond to the equilibrium utilization.
    const double g_star = cfg.delay(mfne.gamma_star);
    for (const core::UserParams& u : faults->churn_users())
      xs.push_back(static_cast<double>(core::best_threshold(u, g_star)));
  }
  const std::string policy = args.get_string("policy", "tro");
  if (policy != "tro" && policy != "price" && policy != "minority")
    throw RuntimeError("unknown --policy (tro|price|minority)");
  if (policy != "tro") {
    if (args.has("replications") || args.has("target-ci") ||
        args.has("target-rel"))
      throw RuntimeError("--policy=" + policy +
                         " runs one closed-loop simulation; it cannot "
                         "combine with replications or sequential stopping");
    if (policy == "price") {
      sim::PriceBasedOptions po;
      static_cast<sim::RunOptions&>(po) = so;
      po.gamma_target = args.get_double("gamma-target", mfne.gamma_star);
      po.update_period = args.get_double("update-period", 5.0);
      po.warmup = so.warmup;
      const sim::PriceBasedResult r =
          sim::run_price_based(pop.users, cfg.capacity, cfg.delay, po);
      std::printf(
          "scenario: %s  policy=price  clusters=%zu  target gamma=%.4f\n",
          cfg.name.c_str(), topology.clusters, po.gamma_target);
      for (std::size_t k = 0; k < r.final_prices.size(); ++k)
        std::printf("cluster %zu: price=%.4f  gamma=%.4f\n", k,
                    r.final_prices[k],
                    k < r.run.cluster_utilization.size()
                        ? r.run.cluster_utilization[k]
                        : 0.0);
      std::printf("%s", sim::summarize(r.run).c_str());
      if (!so.stream_log.empty())
        std::printf("telemetry stream written to %s (view: mec tail %s)\n",
                    so.stream_log.c_str(), so.stream_log.c_str());
      return 0;
    }
    sim::MinorityGameRunOptions mo;
    static_cast<sim::RunOptions&>(mo) = so;
    mo.game.seed = so.seed;
    mo.thresholds = xs;
    mo.update_period = args.get_double("update-period", 5.0);
    mo.warmup = so.warmup;
    const sim::MinorityGameRunResult r =
        sim::run_minority_game(pop.users, cfg.capacity, cfg.delay, mo);
    std::printf(
        "scenario: %s  policy=minority  clusters=%zu  rounds=%zu  mean "
        "attendance=%.2f\n",
        cfg.name.c_str(), topology.clusters, r.attendance.size(),
        r.mean_attendance);
    std::printf("%s", sim::summarize(r.run).c_str());
    if (!so.stream_log.empty())
      std::printf("telemetry stream written to %s (view: mec tail %s)\n",
                  so.stream_log.c_str(), so.stream_log.c_str());
    return 0;
  }
  const auto replications =
      static_cast<std::size_t>(args.get_long("replications", 1));
  const bool sequential = args.has("target-ci") || args.has("target-rel");
  if (so.transport != sim::TransportKind::kInProcess &&
      (sequential || replications > 1))
    throw RuntimeError(
        "--transport=process and --transport=tcp run a single simulation; "
        "replicated runs already parallelize across replicas (drop "
        "--transport or the replication flags)");
  if (sequential) {
    if (!so.stream_log.empty())
      throw RuntimeError(
          "--stream-log streams a single run; it cannot combine with "
          "sequential replication (the replicas would race on one file)");
    parallel::SequentialOptions sq;
    sq.metric = parallel::parse_metric(args.get_string("metric", "mean-cost"));
    sq.confidence = args.get_double("confidence", 0.95);
    sq.target_half_width = args.get_double("target-ci", 0.0);
    sq.target_relative = args.get_double("target-rel", 0.0);
    if (args.has("replications"))
      sq.min_replications = std::max<std::size_t>(replications, 2);
    sq.max_replications = static_cast<std::size_t>(
        args.get_long("max-replications", 512));
    sq.wave = static_cast<std::size_t>(args.get_long("wave", 8));
    sq.threads = static_cast<std::size_t>(args.get_long("threads", 0));
    const parallel::SequentialResult r = parallel::run_until_confident(
        pop.users, cfg.capacity, cfg.delay, so, xs, sq);
    std::printf("scenario: %s  service=%s  gamma*=%.4f  threads=%zu\n",
                cfg.name.c_str(), service.c_str(), mfne.gamma_star,
                parallel::resolve_thread_count(sq.threads));
    std::printf("%s", parallel::summarize(r, sq.metric).c_str());
    std::printf("%s", parallel::summarize(r.aggregate).c_str());
    std::printf(
        "replay: mec simulate ... --replications=%zu reproduces this "
        "aggregate bit-identically\n",
        r.replications);
    return 0;
  }
  if (replications > 1) {
    if (!so.stream_log.empty())
      throw RuntimeError(
          "--stream-log streams a single run; it cannot combine with "
          "--replications > 1 (the replicas would race on one file)");
    parallel::ReplicationOptions ro;
    ro.replications = replications;
    ro.threads = static_cast<std::size_t>(args.get_long("threads", 0));
    ro.confidence = args.get_double("confidence", 0.95);
    const parallel::ReplicationResult r = parallel::run_replications(
        pop.users, cfg.capacity, cfg.delay, so, xs, ro);
    std::printf(
        "scenario: %s  service=%s  gamma*=%.4f  threads=%zu\n",
        cfg.name.c_str(), service.c_str(), mfne.gamma_star,
        parallel::resolve_thread_count(ro.threads));
    std::printf("%s", parallel::summarize(r).c_str());
    return 0;
  }
  sim::MecSimulation des(pop.users, cfg.capacity, cfg.delay, so);
  const sim::SimulationResult r = des.run_tro(xs);
  std::printf("scenario: %s  service=%s  gamma*=%.4f\n", cfg.name.c_str(),
              service.c_str(), mfne.gamma_star);
  std::printf("%s", sim::summarize(r).c_str());
  if (!so.stream_log.empty())
    std::printf("telemetry stream written to %s (view: mec tail %s)\n",
                so.stream_log.c_str(), so.stream_log.c_str());
  return 0;
}

int cmd_closedloop(const io::Args& args) {
  auto known = kCommonFlags;
  known.insert(kRunFlags.begin(), kRunFlags.end());
  known.insert({"horizon", "period", "eta0", "epsilon", "async", "trace",
                "fault-schedule", "drift-margin", "csv"});
  args.reject_unknown(known);
  const auto cfg = build_scenario(args);
  const auto pop = population::sample_population(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 42)));
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;

  sim::ClosedLoopOptions opt;
  opt.update_period = args.get_double("period", opt.update_period);
  opt.horizon = args.get_double("horizon", opt.horizon);
  opt.eta0 = args.get_double("eta0", opt.eta0);
  opt.epsilon = args.get_double("epsilon", opt.epsilon);
  read_run_flags(args, opt);
  const double async = args.get_double("async", 1.0);
  if (async < 1.0) opt.update_gate = core::make_bernoulli_gate(async, 1);
  opt.faults = build_faults(args, cfg);
  if (opt.faults) {
    // Under a fault schedule Algorithm 1 must not stay frozen when the
    // environment moves; the margin is tunable for sensitivity studies.
    opt.resume_on_drift = true;
    opt.drift_margin = args.get_double("drift-margin", opt.drift_margin);
  }

  const sim::ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  std::printf(
      "scenario: %s  N=%zu  period=%.1fs  horizon=%.0fs  async=%.2f\n",
      cfg.name.c_str(), pop.size(), opt.update_period, opt.horizon, async);
  std::printf("epochs=%zu  settled=%s  drift-resumes=%u\n", r.epochs.size(),
              r.estimate_settled ? "yes" : "no", r.drift_resumes);
  std::printf(
      "gamma_hat = %.5f   run-wide measured gamma = %.5f   oracle gamma* = "
      "%.5f\n",
      r.final_gamma_hat, r.run.measured_utilization, star);
  std::printf("%s", sim::summarize(r.run).c_str());
  if (args.has("csv")) {
    // Epoch trajectory for external plotting: the DTU re-convergence figure
    // is gamma_hat/gamma_measured vs time with the capacity scale overlaid.
    std::vector<double> t, gm, gh, eta, mx, scale;
    for (const auto& e : r.epochs) {
      t.push_back(e.time);
      gm.push_back(e.gamma_measured);
      gh.push_back(e.gamma_hat);
      eta.push_back(e.eta);
      mx.push_back(e.mean_threshold);
      scale.push_back(opt.faults ? opt.faults->capacity_scale_at(e.time)
                                 : 1.0);
    }
    const std::string path = args.get_path("csv");
    io::write_csv(path,
                  {"time_s", "gamma_measured", "gamma_hat", "eta",
                   "mean_threshold", "capacity_scale"},
                  {t, gm, gh, eta, mx, scale});
    std::printf("epoch trajectory written to %s\n", path.c_str());
  }
  if (!opt.stream_log.empty())
    std::printf("telemetry stream written to %s (view: mec tail %s)\n",
                opt.stream_log.c_str(), opt.stream_log.c_str());
  if (args.get_bool("trace", false)) {
    std::printf("\n  time(s)  gamma_meas  gamma_hat  eta\n");
    for (const auto& e : r.epochs)
      std::printf("  %-8.1f %-11.5f %-10.5f %-8.5f\n", e.time,
                  e.gamma_measured, e.gamma_hat, e.eta);
  }
  return 0;
}

int cmd_worker(const io::Args& args) {
  args.reject_unknown({"listen", "max-runs", "quiet", "help"});
  if (!args.has("listen"))
    throw RuntimeError(
        "usage: mec worker --listen=<host:port> [--max-runs=<n>] "
        "[--quiet=<0|1>]");
  net::WorkerDaemon::Options opt;
  // Port 0 binds an ephemeral port (logged at startup) — handy for tests
  // and for running several daemons on one host without picking ports.
  opt.listen = net::parse_address(args.get_string("listen", ""),
                                  /*allow_port_zero=*/true);
  const long max_runs = args.get_long("max-runs", 0);
  if (max_runs < 0)
    throw RuntimeError("--max-runs must be >= 0 (0 = serve forever)");
  opt.max_runs = static_cast<std::size_t>(max_runs);
  opt.quiet = args.get_long("quiet", 0) != 0;
  net::WorkerDaemon daemon(opt);
  return daemon.serve();
}

int cmd_tail(const io::Args& args, const std::string& positional_path) {
  args.reject_unknown({"log", "follow", "check", "interval", "csv",
                       "hist-csv", "max-updates", "help"});
  const std::string path =
      positional_path.empty() ? args.get_path("log") : positional_path;
  if (path.empty())
    throw RuntimeError("usage: mec tail <run.meclog> [--follow] [--check]");
  obs::TailOptions opt;
  opt.follow = args.get_bool("follow", false);
  opt.check = args.get_bool("check", false);
  opt.interval_ms = static_cast<int>(args.get_long("interval", 500));
  opt.csv = args.get_path("csv");
  opt.hist_csv = args.get_path("hist-csv");
  opt.max_updates =
      static_cast<std::uint64_t>(args.get_long("max-updates", 0));
#if defined(__unix__) || defined(__APPLE__)
  opt.ansi = opt.follow && ::isatty(STDOUT_FILENO) != 0;
#endif
  return obs::run_tail(path, opt);
}

int cmd_compare(const io::Args& args) {
  args.reject_unknown(kCommonFlags);
  const auto cfg = build_scenario(args);
  const auto pop = population::sample_population(
      cfg, static_cast<std::uint64_t>(args.get_long("seed", 42)));

  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  std::vector<double> xs(mfne.thresholds.begin(), mfne.thresholds.end());
  const double dtu_cost =
      core::average_cost(pop.users, xs, cfg.delay, mfne.gamma_star);
  const auto dpo =
      baseline::solve_dpo_equilibrium(pop.users, cfg.delay, cfg.capacity);
  const auto one_rho =
      baseline::solve_common_rho_dpo(pop.users, cfg.delay, cfg.capacity);

  io::TextTable table("policy comparison on " + cfg.name);
  table.set_header({"policy", "avg cost", "edge gamma", "vs DTU"});
  const auto pct = [dtu_cost](double c) {
    return io::TextTable::fmt((c - dtu_cost) / dtu_cost * 100.0, 2) + "%";
  };
  table.add_row({"TRO @ MFNE (DTU)", io::TextTable::fmt(dtu_cost, 4),
                 io::TextTable::fmt(mfne.gamma_star, 4), "--"});
  table.add_row({"DPO per-user optimal", io::TextTable::fmt(dpo.average_cost, 4),
                 io::TextTable::fmt(dpo.gamma_star, 4),
                 pct(dpo.average_cost)});
  table.add_row({"DPO shared rho", io::TextTable::fmt(one_rho.average_cost, 4),
                 io::TextTable::fmt(one_rho.gamma, 4),
                 pct(one_rho.average_cost)});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  // `mec tail <path>` takes one positional operand; the flag grammar has
  // none, so lift it out before parsing.
  std::string tail_path;
  if (!raw.empty() && raw[0] == "tail" && raw.size() >= 2 &&
      raw[1].rfind("--", 0) != 0) {
    tail_path = raw[1];
    raw.erase(raw.begin() + 1);
  }
  try {
    const io::Args args = io::Args::parse(raw);
    if (args.command().empty() || args.get_bool("help", false) ||
        args.command() == "help") {
      std::printf("%s", kUsage);
      return args.command().empty() && !raw.empty() ? 1 : 0;
    }
    if (args.command() == "scenarios") return cmd_scenarios();
    if (args.command() == "mfne") return cmd_mfne(args);
    if (args.command() == "dtu") return cmd_dtu(args);
    if (args.command() == "simulate") return cmd_simulate(args);
    if (args.command() == "closedloop") return cmd_closedloop(args);
    if (args.command() == "compare") return cmd_compare(args);
    if (args.command() == "tail") return cmd_tail(args, tail_path);
    if (args.command() == "worker") return cmd_worker(args);
    std::fprintf(stderr, "unknown command '%s'\n%s", args.command().c_str(),
                 kUsage);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
