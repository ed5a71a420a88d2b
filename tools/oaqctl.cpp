// oaqctl — command-line front end to the oaq-constellation library.
//
//   oaqctl qos       --k 12 --tau 5 --mu 0.5 --nu 30
//   oaqctl measure   --lambda 5e-5 --eta 12 --tau 5 --mu 0.2
//   oaqctl capacity  --lambda 7e-5 --eta 10 --cycles 400
//   oaqctl plan      --k 9 --tau 5 --at 2.0
//   oaqctl simulate  --k 9 --tau 5 --mu 0.5 --episodes 20000 [--baq]
//                    [--trace out.jsonl] [--metrics out.json] [--profile]
//                    [--fault-plan plan.txt] [--loss P] [--reliable]
//                    [--self-heal] [--ge-loss PA,PB,P,R,LOSS]
//                    [--outage-train PA,PB,UP,DOWN]
//                    [--check-invariants] [--chaos-sweep]
//   oaqctl coverage  [--bands 18] [--constellation starlink]
//   oaqctl trace-summary trace.jsonl
//   oaqctl report    [--trace T] [--metrics M] [--spans S] [--manifest F]
//                    [--top N] [--json out.json]
//
// Every subcommand prints an aligned table; see `oaqctl help`.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/measure.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/plan.hpp"
#include "fault/plane_capacity.hpp"
#include "fault/process.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/campaign.hpp"
#include "oaq/planner.hpp"
#include "obs/jsonfmt.hpp"
#include "obs/ledger.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/coverage.hpp"

// Build provenance for the run manifest; the build system injects real
// values (tools/CMakeLists.txt), these are the out-of-tree fallbacks.
#ifndef OAQ_GIT_DESCRIBE
#define OAQ_GIT_DESCRIBE "unknown"
#endif
#ifndef OAQ_BUILD_TYPE
#define OAQ_BUILD_TYPE "unknown"
#endif

namespace oaq {
namespace {

/// Minimal --flag value parser. Every accessor records the key it reads,
/// so a command can reject flags it never looked at (reject_unread).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      OAQ_REQUIRE(key.rfind("--", 0) == 0, "flags must start with --");
      key.erase(0, 2);
      OAQ_REQUIRE(!key.empty(), "empty flag name");
      // A token starting with "--" is the next flag, so this one is a
      // boolean; anything else (including negative numbers) is the value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  /// Strict numeric parse: the whole value must be a finite number —
  /// `--tau 5x` or `--tau abc` is a one-line error, not silently 5 or 0.
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    double out = 0.0;
    try {
      out = std::stod(it->second, &used);
    } catch (const std::exception&) {
      fail(key, it->second, "a number");
    }
    if (used != it->second.size() || !std::isfinite(out)) {
      fail(key, it->second, "a finite number");
    }
    return out;
  }
  [[nodiscard]] int integer(const std::string& key, int fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    std::size_t used = 0;
    int out = 0;
    try {
      out = std::stoi(it->second, &used);
    } catch (const std::exception&) {
      fail(key, it->second, "an integer");
    }
    if (used != it->second.size()) fail(key, it->second, "an integer");
    return out;
  }
  /// number() constrained to [lo, hi].
  [[nodiscard]] double number_in(const std::string& key, double fallback,
                                 double lo, double hi) const {
    const double out = number(key, fallback);
    if (out < lo || out > hi) {
      throw std::invalid_argument("--" + key + " must be in [" +
                                  std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]");
    }
    return out;
  }
  /// number() constrained to be strictly positive.
  [[nodiscard]] double positive(const std::string& key,
                                double fallback) const {
    const double out = number(key, fallback);
    if (!(out > 0.0)) {
      throw std::invalid_argument("--" + key + " must be positive");
    }
    return out;
  }
  /// integer() constrained to be >= `floor`.
  [[nodiscard]] int at_least(const std::string& key, int fallback,
                             int floor) const {
    const int out = integer(key, fallback);
    if (out < floor) {
      throw std::invalid_argument("--" + key + " must be >= " +
                                  std::to_string(floor));
    }
    return out;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return find(key) != values_.end();
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Throw, naming the flag, when any given flag was never read — a
  /// misspelt or retired flag must not silently run another configuration.
  /// Call once the command has read all its flags, before it does any work.
  void reject_unread(const std::string& command) const {
    for (const auto& [key, value] : values_) {
      if (!read_.contains(key)) {
        throw std::invalid_argument("unknown flag --" + key + " for " +
                                    command);
      }
    }
  }

 private:
  [[nodiscard]] std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  [[noreturn]] static void fail(const std::string& key,
                                const std::string& value,
                                const std::string& expected) {
    throw std::invalid_argument("--" + key + ": expected " + expected +
                                ", got '" + value + "'");
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// A resolved --constellation value: the shells as specified (for the
/// manifest and canonical re-serialization) plus the built constellation.
struct ConstellationChoice {
  std::vector<WalkerShell> shells;
  Constellation constellation;
  std::string origin;  ///< "preset:NAME" or the file path
};

/// Parse --constellation <preset|file> (nullopt when absent). A value
/// matching a preset name loads that design point; anything else must be
/// a readable shell file in the canonical line format (tools/README.md).
/// Validation is strict either way: unknown names list the presets, and
/// malformed files fail with the offending line number.
std::optional<ConstellationChoice> load_constellation(const Args& args) {
  const std::string value = args.str("constellation");
  if (value.empty()) return std::nullopt;
  const auto& names = constellation_preset_names();
  std::vector<WalkerShell> shells;
  std::string origin;
  if (std::find(names.begin(), names.end(), value) != names.end()) {
    shells = constellation_preset(value);
    origin = "preset:" + value;
  } else {
    std::ifstream is(value);
    if (!is.good()) {
      std::string msg = "--constellation: '" + value +
                        "' is neither a preset (";
      for (std::size_t i = 0; i < names.size(); ++i) {
        msg += (i == 0 ? "" : ", ");
        msg += names[i];
      }
      msg += ") nor a readable shell file";
      throw std::invalid_argument(msg);
    }
    try {
      shells = parse_constellation(is);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("--constellation " + value + ": " +
                                  e.what());
    }
    origin = value;
  }
  return ConstellationChoice{shells, build_constellation(shells),
                             std::move(origin)};
}

/// Geometric-mode flags shared by simulate and campaign: --lat / --lon
/// place the target (degrees), --earth-rotation enables Earth rotation.
/// Without --constellation they would change nothing, so they are an error
/// there rather than silently ignored.
template <typename Config>
void apply_geometry_flags(const Args& args,
                          const std::optional<ConstellationChoice>& con,
                          Config& cfg) {
  const GeoPoint target =
      GeoPoint::from_degrees(args.number_in("lat", 0.0, -90.0, 90.0),
                             args.number_in("lon", 0.0, -180.0, 180.0));
  const bool earth_rotation = args.flag("earth-rotation");
  if (!con) {
    if (args.flag("lat") || args.flag("lon") || earth_rotation) {
      throw std::invalid_argument(
          "--lat, --lon and --earth-rotation need --constellation");
    }
    return;
  }
  cfg.constellation = &con->constellation;
  cfg.target = target;
  cfg.earth_rotation = earth_rotation;
}

/// Parse --fault-plan FILE (nullopt when absent). With `horizon` the
/// parser additionally rejects clauses scheduled past it (campaign mode,
/// where clause times are absolute run time).
std::optional<FaultPlan> load_fault_plan(
    const Args& args, std::optional<Duration> horizon = std::nullopt) {
  const std::string path = args.str("fault-plan");
  if (path.empty()) return std::nullopt;
  std::ifstream is(path);
  if (!is.good()) {
    throw std::invalid_argument("cannot open fault plan: " + path);
  }
  try {
    return horizon ? parse_fault_plan(is, *horizon) : parse_fault_plan(is);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("--fault-plan " + path + ": " + e.what());
  }
}

/// The plan a run arms: nullopt when it has no clause. Shell-relative
/// clauses are resolved against the --constellation shell layout, and are
/// an error without one.
std::optional<FaultPlan> resolve_fault_plan(
    const std::optional<FaultPlan>& plan,
    const std::optional<ConstellationChoice>& con) {
  if (!plan || plan->empty()) return std::nullopt;
  if (con) return plan->resolve(con->constellation);
  for (const auto& c : plan->clauses()) {
    if (c.shell >= 0) {
      throw std::invalid_argument(
          "--fault-plan uses shell-relative clauses; pass "
          "--constellation so they can be resolved");
    }
  }
  return plan;
}

/// Exact-arity comma-separated numeric flag value ("0,1,4.0,2.0,0.95").
std::vector<double> comma_numbers(const std::string& flag,
                                  const std::string& value,
                                  std::size_t arity) {
  std::vector<double> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(item, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != item.size() || item.empty() || !std::isfinite(v)) {
      throw std::invalid_argument("--" + flag + ": '" + item +
                                  "' is not a finite number");
    }
    out.push_back(v);
  }
  if (out.size() != arity) {
    throw std::invalid_argument(
        "--" + flag + ": expected " + std::to_string(arity) +
        " comma-separated numbers, got " + std::to_string(out.size()));
  }
  return out;
}

/// Stochastic-clause flags shared by simulate and campaign (appended to
/// the --fault-plan clauses, or to a fresh plan, over [0, window]):
///   --ge-loss PA,PB,P,R,LOSS      Gilbert–Elliott loss on link (PA, PB)
///   --outage-train PA,PB,UP,DOWN  alternating up/down outage on (PA, PB)
void append_stochastic_clauses(const Args& args,
                               std::optional<FaultPlan>& plan,
                               Duration window) {
  const std::string ge = args.str("ge-loss");
  const std::string train = args.str("outage-train");
  if (ge.empty() && train.empty()) return;
  if (!plan) plan.emplace();
  if (!ge.empty()) {
    const auto v = comma_numbers("ge-loss", ge, 5);
    plan->add(FaultPlan::ge_loss(static_cast<int>(v[0]),
                                 static_cast<int>(v[1]), v[2], v[3], v[4],
                                 Duration::zero(), window));
  }
  if (!train.empty()) {
    const auto v = comma_numbers("outage-train", train, 4);
    plan->add(FaultPlan::outage_train(static_cast<int>(v[0]),
                                      static_cast<int>(v[1]), v[2], v[3],
                                      Duration::zero(), window));
  }
}

/// Link-degradation flags shared by simulate and campaign:
/// --loss P --reliable --retries N --backoff B --self-heal.
void apply_link_flags(const Args& args, ProtocolConfig& protocol) {
  protocol.crosslink_loss_probability =
      args.number_in("loss", protocol.crosslink_loss_probability, 0.0, 1.0);
  if (args.flag("reliable")) protocol.reliable_links = true;
  protocol.link_retry_limit =
      args.at_least("retries", protocol.link_retry_limit, 0);
  protocol.link_backoff_base =
      args.number_in("backoff", protocol.link_backoff_base, 1.0, 64.0);
  if (args.flag("self-heal")) protocol.self_healing_links = true;
  protocol.link_health_alpha = args.number_in(
      "health-alpha", protocol.link_health_alpha, 0.0, 1.0);
}

/// Observability file sinks shared by `simulate` and `campaign`:
/// --trace PATH (JSONL events), --metrics PATH (JSON registry), --spans
/// PATH (Chrome trace-event JSON), --profile (BENCH_JSON reduce timings on
/// stdout). Any file sink also emits a run-manifest JSON next to it — a
/// SEPARATE file, so the golden-pinned trace/metrics bytes are untouched
/// (--manifest PATH overrides the derived name).
struct ObsSinks {
  std::string trace_path;
  std::string metrics_path;
  std::string spans_path;
  std::string manifest_path;
  bool want_profile = false;
  TraceCollector trace;
  MetricsRegistry metrics;
  ReduceProfile profile;
  SpanProfiler spans;
  RunManifest manifest;

  explicit ObsSinks(const Args& args)
      : trace_path(args.str("trace")),
        metrics_path(args.str("metrics")),
        spans_path(args.str("spans")),
        manifest_path(args.str("manifest")),
        want_profile(args.flag("profile")) {
    if (manifest_path.empty()) {
      // Derived: next to the first requested artifact.
      const std::string& anchor = !metrics_path.empty() ? metrics_path
                                  : !trace_path.empty() ? trace_path
                                                        : spans_path;
      if (!anchor.empty()) manifest_path = anchor + ".manifest.json";
    }
    manifest.git_describe = OAQ_GIT_DESCRIBE;
    manifest.build_type = OAQ_BUILD_TYPE;
    manifest.compiler = __VERSION__;
  }

  [[nodiscard]] TraceCollector* trace_ptr() {
    return trace_path.empty() ? nullptr : &trace;
  }
  [[nodiscard]] MetricsRegistry* metrics_ptr() {
    return metrics_path.empty() ? nullptr : &metrics;
  }
  [[nodiscard]] ReduceProfile* profile_ptr() {
    return want_profile ? &profile : nullptr;
  }
  [[nodiscard]] SpanProfiler* spans_ptr() {
    return spans_path.empty() ? nullptr : &spans;
  }

  /// Write the requested files and print the BENCH_JSON profile line.
  void finish(const std::string& bench_name) {
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      OAQ_REQUIRE(os.good(), "cannot open trace output file");
      trace.write_jsonl(os);
      std::cout << "trace: " << trace.total_recorded() << " events ("
                << trace.total_dropped() << " dropped) -> " << trace_path
                << "\n";
      manifest.add_artifact("trace", trace_path);
      manifest.trace = {trace.total_recorded(), trace.total_dropped()};
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      OAQ_REQUIRE(os.good(), "cannot open metrics output file");
      metrics.write_json(os);
      os << "\n";
      std::cout << "metrics: " << metrics.counters().size() << " counters, "
                << metrics.stats().size() << " stats -> " << metrics_path
                << "\n";
      manifest.add_artifact("metrics", metrics_path);
    }
    if (!spans_path.empty()) {
      std::ofstream os(spans_path);
      OAQ_REQUIRE(os.good(), "cannot open spans output file");
      spans.write_chrome_json(os);
      std::cout << "spans: " << spans.shards() << " shard arenas -> "
                << spans_path << "\n";
      manifest.add_artifact("spans", spans_path);
    }
    if (!manifest_path.empty()) {
      std::ofstream os(manifest_path);
      OAQ_REQUIRE(os.good(), "cannot open manifest output file");
      manifest.write_json(os);
      std::cout << "manifest: -> " << manifest_path << "\n";
    }
    if (want_profile) {
      std::cout << "BENCH_JSON ";
      profile.write_bench_json(std::cout, bench_name);
      std::cout << "\n";
    }
  }
};

QosModel make_model(const Args& args) {
  QosModelParams p;
  p.tau = Duration::minutes(args.positive("tau", 5.0));
  p.mu = Rate::per_minute(args.positive("mu", 0.5));
  p.nu = Rate::per_minute(args.positive("nu", 30.0));
  return QosModel(PlaneGeometry{}, p);
}

PlaneDependability make_dependability(const Args& args) {
  PlaneDependability dep;
  dep.satellite_failure_rate = Rate::per_hour(args.number("lambda", 5e-5));
  dep.policy.ground_threshold = args.integer("eta", 10);
  dep.policy.launch_lead_time =
      Duration::hours(args.number("launch-lead", 8000.0));
  dep.policy.expedited_lead_time =
      Duration::hours(args.number("expedited-lead", 150.0));
  dep.policy.scheduled_period =
      Duration::hours(args.number("phi", 30000.0));
  return dep;
}

int cmd_qos(const Args& args) {
  const auto model = make_model(args);
  const int k = args.integer("k", 12);
  args.reject_unread("qos");
  TablePrinter table({"scheme", "P(Y=0)", "P(Y=1)", "P(Y=2)", "P(Y=3)",
                      "P(Y>=2)"},
                     4);
  for (const Scheme s : {Scheme::kOaq, Scheme::kBaq}) {
    const auto pmf = model.conditional_pmf(k, s);
    table.add_row({std::string(s == Scheme::kOaq ? "OAQ" : "BAQ"), pmf[0],
                   pmf[1], pmf[2], pmf[3],
                   model.conditional_tail(k, 2, s)});
  }
  std::cout << "P(Y = y | k = " << k << "), tau = "
            << model.params().tau.to_minutes() << " min, mu = "
            << model.params().mu.per_minute_value() << "/min\n";
  table.print(std::cout);
  return 0;
}

int cmd_capacity(const Args& args) {
  const auto dep = make_dependability(args);
  const auto seed = static_cast<std::uint64_t>(args.integer("seed", 42));
  const int cycles = args.integer("cycles", 400);
  args.reject_unread("capacity");
  const auto pmf = plane_capacity_pmf(dep, seed, cycles);
  TablePrinter table({"k", "P(K = k)"}, 4);
  for (int k = dep.design_active; k >= 0; --k) {
    if (pmf.probability(k) < 1e-6) continue;
    table.add_row({static_cast<long long>(k), pmf.probability(k)});
  }
  std::cout << "Steady-state plane capacity, lambda = "
            << sci(dep.satellite_failure_rate.per_hour_value())
            << "/hr, eta = " << dep.policy.ground_threshold << "\n";
  table.print(std::cout);
  return 0;
}

int cmd_measure(const Args& args) {
  const auto model = make_model(args);
  const auto dep = make_dependability(args);
  const int cycles = args.integer("cycles", 400);
  args.reject_unread("measure");
  const auto pk = plane_capacity_pmf(dep, 42, cycles);
  TablePrinter table({"scheme", "P(Y>=1)", "P(Y>=2)", "P(Y>=3)"}, 4);
  for (const Scheme s : {Scheme::kOaq, Scheme::kBaq}) {
    const auto m = qos_measure(model, pk, s);
    table.add_row({std::string(s == Scheme::kOaq ? "OAQ" : "BAQ"), m.tail(1),
                   m.tail(2), m.tail(3)});
  }
  std::cout << "Eq. (3) QoS measure, lambda = "
            << sci(dep.satellite_failure_rate.per_hour_value()) << "/hr\n";
  table.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const int k = args.integer("k", 9);
  const AnalyticSchedule sched(PlaneGeometry{}, k,
                               Duration::minutes(args.number("phase", 0.0)));
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(args.number("tau", 5.0));
  const OpportunityPlanner planner(sched, cfg);
  const auto t0 = TimePoint::at(Duration::minutes(args.number("at", 2.0)));
  args.reject_unread("plan");
  const auto plan = planner.plan(t0);

  std::cout << "Opportunity from detection at t = "
            << t0.since_origin().to_minutes() << " min (k = " << k
            << ", tau = " << cfg.tau.to_minutes() << "):\n";
  if (plan.simultaneous_at) {
    std::cout << "  simultaneous coverage at t = "
              << plan.simultaneous_at->to_minutes() << " min\n";
  }
  TablePrinter table({"ordinal", "satellite slot", "arrival min",
                      "expected err km"},
                     2);
  for (const auto& step : plan.chain) {
    table.add_row({static_cast<long long>(step.ordinal),
                   static_cast<long long>(step.satellite.slot),
                   step.arrival.to_minutes(), step.expected_error_km});
  }
  table.print(std::cout);
  std::cout << "best achievable: " << to_string(plan.best_achievable)
            << " (" << plan.best_error_km << " km)\n";
  return 0;
}

/// `--chaos-sweep`: rerun the Monte-Carlo under a battery of degradation
/// scenarios (plus the --fault-plan file when given) and tabulate the QoS
/// damage. Every scenario runs with invariant checking on.
int run_chaos_sweep(QosSimulationConfig cfg,
                    const std::optional<FaultPlan>& file_plan) {
  const Duration tau = cfg.protocol.tau;
  struct Scenario {
    std::string name;
    FaultPlan plan;
  };
  std::vector<Scenario> scenarios(1);
  scenarios[0].name = "baseline";
  scenarios.push_back({"burst_loss 0.25", {}});
  scenarios.back().plan.add(
      FaultPlan::burst_loss(0.25, Duration::zero(), tau));
  scenarios.push_back({"delay_spike x3", {}});
  scenarios.back().plan.add(
      FaultPlan::delay_spike(3.0, Duration::zero(), tau));
  scenarios.push_back({"fail_silent 0/0", {}});
  scenarios.back().plan.add(
      FaultPlan::fail_silent({0, 0}, Duration::zero()));
  scenarios.push_back({"storm", {}});
  scenarios.back()
      .plan.add(FaultPlan::burst_loss(0.25, Duration::zero(), tau))
      .add(FaultPlan::delay_spike(3.0, Duration::zero(), tau))
      .add(FaultPlan::fail_silent({0, 0}, Duration::zero()));
  if (file_plan) scenarios.push_back({"fault-plan file", *file_plan});

  cfg.trace = nullptr;
  cfg.metrics = nullptr;
  cfg.profile = nullptr;
  cfg.check_invariants = true;

  // Cell seeds come off the reserved campaign-fault stream (stream 6 of
  // the master fork tree — tools/README.md "RNG stream layout"): cell i
  // runs with a seed drawn from Rng(seed).fork(6).fork(i). Scenarios are
  // therefore mutually independent: reordering or inserting one never
  // perturbs another cell's draws, and none of them shadows the plain
  // `simulate` run at the same --seed.
  const Rng sweep_master(cfg.seed);

  TablePrinter table({"scenario", "P(Y>=2)", "P(missed)", "duplicates",
                      "unresolved", "violations"},
                     4);
  std::int64_t total_violations = 0;
  std::vector<std::string> samples;
  for (std::size_t cell = 0; cell < scenarios.size(); ++cell) {
    const Scenario& s = scenarios[cell];
    Rng cell_rng = sweep_master.fork(6).fork(cell);
    cfg.seed = cell_rng.next_u64();
    cfg.fault_plan = s.plan.empty() ? nullptr : &s.plan;
    const auto sim = simulate_qos(cfg);
    table.add_row({s.name, sim.tail(QosLevel::kSequentialDual),
                   sim.probability(QosLevel::kMissed),
                   static_cast<long long>(sim.duplicates),
                   static_cast<long long>(sim.unresolved),
                   static_cast<long long>(sim.invariant_violations)});
    total_violations += sim.invariant_violations;
    for (const auto& sample : sim.invariant_samples) {
      if (samples.size() < 8) samples.push_back(s.name + ": " + sample);
    }
  }
  std::cout << "Chaos sweep, k = " << cfg.k << ", " << cfg.episodes
            << " episodes per scenario:\n";
  table.print(std::cout);
  for (const auto& sample : samples) {
    std::cout << "violation: " << sample << "\n";
  }
  std::cout << "invariants: " << total_violations << " violation(s)\n";
  return total_violations == 0 ? 0 : 1;
}

/// One stderr warning when stochastic fault clauses hit the expander's
/// per-clause interval cap: their sample paths stopped before their
/// windows ended, so the run saw less fault activity than its plan.
void warn_fault_truncations(std::int64_t truncations) {
  if (truncations == 0) return;
  std::cerr << "warning: " << truncations
            << " stochastic fault clause expansion(s) hit the "
            << FaultProcessExpander::kMaxIntervalsPerClause
            << "-interval cap and stopped before the clause window ended\n";
}

int cmd_simulate(const Args& args) {
  QosSimulationConfig cfg;
  cfg.k = args.at_least("k", 9, 1);
  cfg.episodes = args.at_least("episodes", 20000, 1);
  cfg.seed = static_cast<std::uint64_t>(args.at_least("seed", 1, 0));
  cfg.mu = Rate::per_minute(args.positive("mu", 0.5));
  cfg.opportunity_adaptive = !args.flag("baq");
  cfg.protocol.tau = Duration::minutes(args.positive("tau", 5.0));
  cfg.protocol.delta =
      Duration::seconds(args.number_in("delta-s", 12.0, 0.0, 1e6));
  cfg.protocol.tg = Duration::seconds(args.number_in("tg-s", 6.0, 0.0, 1e6));
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = args.at_least("jobs", 0, 0);
  apply_link_flags(args, cfg.protocol);

  // Geometric mode: --constellation <preset|file> (+ --lat/--lon target,
  // --earth-rotation). Shell-relative fault clauses are resolved against
  // the constellation's shell layout before arming.
  const auto con = load_constellation(args);
  apply_geometry_flags(args, con, cfg);

  auto plan = load_fault_plan(args);
  // Stochastic clause flags expand over [0, τ] — simulate's clause times
  // are relative to the signal start, and τ bounds the protocol window.
  append_stochastic_clauses(args, plan, cfg.protocol.tau);
  cfg.check_invariants = args.flag("check-invariants");
  ObsSinks obs(args);
  const bool chaos_sweep = args.flag("chaos-sweep");
  args.reject_unread("simulate");
  if (chaos_sweep) return run_chaos_sweep(cfg, plan);
  const auto resolved = resolve_fault_plan(plan, con);
  if (resolved) cfg.fault_plan = &*resolved;
  cfg.check_invariants = cfg.check_invariants || cfg.fault_plan != nullptr;

  cfg.trace = obs.trace_ptr();
  cfg.metrics = obs.metrics_ptr();
  cfg.profile = obs.profile_ptr();
  cfg.spans = obs.spans_ptr();

  obs.manifest.tool = "simulate";
  obs.manifest.seed = cfg.seed;
  obs.manifest.jobs = cfg.jobs;
  obs.manifest.add_config("k", std::to_string(cfg.k));
  obs.manifest.add_config("episodes", std::to_string(cfg.episodes));
  obs.manifest.add_config("scheme", cfg.opportunity_adaptive ? "oaq" : "baq");
  obs.manifest.add_config("tau_min",
                          std::to_string(cfg.protocol.tau.to_minutes()));
  obs.manifest.add_config("mu_per_min",
                          std::to_string(cfg.mu.per_minute_value()));
  obs.manifest.add_config(
      "loss", std::to_string(cfg.protocol.crosslink_loss_probability));
  obs.manifest.add_config("reliable",
                          cfg.protocol.reliable_links ? "1" : "0");
  obs.manifest.add_config("constellation", con ? con->origin : "");
  if (con) {
    obs.manifest.add_config("target_lat_deg",
                            std::to_string(cfg.target.lat_deg()));
    obs.manifest.add_config("target_lon_deg",
                            std::to_string(cfg.target.lon_deg()));
  }
  obs.manifest.add_config("fault_plan",
                          cfg.fault_plan != nullptr ? args.str("fault-plan")
                                                    : "");
  obs.manifest.add_config("check_invariants",
                          cfg.check_invariants ? "1" : "0");

  const auto sim = simulate_qos(cfg);
  warn_fault_truncations(sim.fault_truncations);
  TablePrinter table({"level", "probability"}, 4);
  for (int y = 0; y <= 3; ++y) {
    table.add_row({std::string(to_string(static_cast<QosLevel>(y))),
                   sim.level_pmf.probability(y)});
  }
  std::cout << (cfg.opportunity_adaptive ? "OAQ" : "BAQ")
            << " Monte-Carlo, k = " << cfg.k << ", " << cfg.episodes
            << " episodes:\n";
  table.print(std::cout);
  std::cout << "mean chain " << sim.mean_chain_length << ", duplicates "
            << sim.duplicates << ", unresolved " << sim.unresolved
            << ", late alerts " << sim.untimely << "\n";
  if (cfg.check_invariants) {
    std::cout << "invariants: " << sim.invariant_violations
              << " violation(s)\n";
    for (const auto& sample : sim.invariant_samples) {
      std::cout << "violation: " << sample << "\n";
    }
  }
  obs.finish("oaqctl.simulate");
  return cfg.check_invariants && sim.invariant_violations > 0 ? 1 : 0;
}

int cmd_campaign(const Args& args) {
  CampaignConfig cfg;
  cfg.k = args.at_least("k", 9, 1);
  cfg.signal_arrival_rate = Rate::per_hour(args.positive("per-hour", 10.0));
  cfg.horizon = Duration::hours(args.positive("hours", 100.0));
  cfg.protocol.tau = Duration::minutes(args.positive("tau", 5.0));
  cfg.protocol.nu = Rate::per_minute(args.positive("nu", 30.0));
  cfg.protocol.computation_cap =
      Duration::seconds(args.number_in("cap-s", 6.0, 0.0, 1e6));
  cfg.compute_contention = !args.flag("no-contention");
  cfg.seed = static_cast<std::uint64_t>(args.at_least("seed", 1, 0));
  cfg.replications = args.at_least("replications", 1, 1);
  cfg.jobs = args.at_least("jobs", 0, 0);
  apply_link_flags(args, cfg.protocol);

  // Geometric mode, exactly as in cmd_simulate.
  const auto con = load_constellation(args);
  apply_geometry_flags(args, con, cfg);

  // Campaign clause times are absolute run time, so the horizon-aware
  // parse rejects clauses that could never fire; stochastic clause flags
  // expand over the whole horizon.
  auto plan = load_fault_plan(args, cfg.horizon);
  append_stochastic_clauses(args, plan, cfg.horizon);
  const auto resolved = resolve_fault_plan(plan, con);
  if (resolved) cfg.fault_plan = &*resolved;
  cfg.check_invariants =
      args.flag("check-invariants") || cfg.fault_plan != nullptr;

  ObsSinks obs(args);
  cfg.trace = obs.trace_ptr();
  cfg.metrics = obs.metrics_ptr();
  cfg.profile = obs.profile_ptr();
  cfg.spans = obs.spans_ptr();
  EpisodeLedger ledger;
  const std::string ledger_path = args.str("ledger");
  if (!ledger_path.empty()) cfg.ledger = &ledger;
  args.reject_unread("campaign");

  obs.manifest.tool = "campaign";
  obs.manifest.seed = cfg.seed;
  obs.manifest.jobs = cfg.jobs;
  obs.manifest.add_config("k", std::to_string(cfg.k));
  obs.manifest.add_config(
      "per_hour", std::to_string(cfg.signal_arrival_rate.per_hour_value()));
  obs.manifest.add_config("hours", std::to_string(cfg.horizon.to_hours()));
  obs.manifest.add_config("replications",
                          std::to_string(cfg.replications));
  obs.manifest.add_config("scheme", cfg.opportunity_adaptive ? "oaq" : "baq");
  obs.manifest.add_config("tau_min",
                          std::to_string(cfg.protocol.tau.to_minutes()));
  obs.manifest.add_config("contention", cfg.compute_contention ? "1" : "0");
  obs.manifest.add_config(
      "loss", std::to_string(cfg.protocol.crosslink_loss_probability));
  obs.manifest.add_config("reliable",
                          cfg.protocol.reliable_links ? "1" : "0");
  obs.manifest.add_config("constellation", con ? con->origin : "");
  if (con) {
    obs.manifest.add_config("target_lat_deg",
                            std::to_string(cfg.target.lat_deg()));
    obs.manifest.add_config("target_lon_deg",
                            std::to_string(cfg.target.lon_deg()));
  }
  obs.manifest.add_config("fault_plan",
                          cfg.fault_plan != nullptr ? args.str("fault-plan")
                                                    : "");
  obs.manifest.add_config("check_invariants",
                          cfg.check_invariants ? "1" : "0");

  const auto r = run_campaign(cfg);
  warn_fault_truncations(r.fault_truncations);
  if (!ledger_path.empty()) {
    std::ofstream os(ledger_path);
    OAQ_REQUIRE(os.good(), "cannot open ledger output file");
    ledger.write_json(os);
    std::cout << "ledger: " << ledger.size() << " target rows -> "
              << ledger_path << "\n";
    obs.manifest.add_artifact("ledger", ledger_path);
  }
  TablePrinter table({"metric", "value"}, 4);
  table.add_row({std::string("replications"),
                 static_cast<long long>(r.replications)});
  table.add_row({std::string("signals"), static_cast<long long>(r.signals)});
  table.add_row({std::string("delivered"),
                 static_cast<long long>(r.delivered)});
  table.add_row({std::string("P(Y>=2)"),
                 r.tail(QosLevel::kSequentialDual)});
  table.add_row({std::string("P(missed)"),
                 r.probability(QosLevel::kMissed)});
  table.add_row({std::string("mean latency min"), r.mean_latency_min});
  table.add_row({std::string("contended computations"),
                 static_cast<long long>(r.contended_computations)});
  std::cout << "Campaign: k = " << cfg.k << ", "
            << args.number("per-hour", 10.0) << " signals/hour over "
            << cfg.horizon.to_hours() << " h\n";
  table.print(std::cout);
  if (cfg.check_invariants) {
    std::cout << "invariants: " << r.invariant_violations
              << " violation(s)\n";
    for (const auto& sample : r.invariant_samples) {
      std::cout << "violation: " << sample << "\n";
    }
  }
  obs.finish("oaqctl.campaign");
  return cfg.check_invariants && r.invariant_violations > 0 ? 1 : 0;
}

/// Whole file as a string; nullopt when unreadable.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// The --metrics reader of report. Nullopt, after an error naming the
/// file, unless the file parses, declares the current kMetricsSchema (older
/// files had other key sets) and holds its counters and stats objects.
std::optional<MiniJson> load_metrics(const std::string& path) {
  const auto text = slurp(path);
  if (!text) {
    std::cerr << "error: cannot open metrics file: " << path << '\n';
    return std::nullopt;
  }
  auto doc = MiniJson::parse(*text);
  const auto member_is_object = [&doc](std::string_view key) {
    const MiniJson* v = doc->find(key);
    return v != nullptr && v->is_object();
  };
  const MiniJson* schema = doc ? doc->find("schema") : nullptr;
  if (schema == nullptr || schema->text != kMetricsSchema ||
      !member_is_object("counters") || !member_is_object("stats")) {
    std::cerr << "error: " << path << " is not an " << kMetricsSchema
              << " metrics file\n";
    return std::nullopt;
  }
  return doc;
}

/// `counts[key]`, or 0 when the key is absent.
long long count_of(const std::map<std::string, std::int64_t>& counts,
                   const std::string& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

/// `oaqctl trace-summary trace.jsonl` — termination-cause × chain-length
/// table over a JSONL trace written by --trace.
int cmd_trace_summary(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "error: cannot open trace file: " << path << '\n';
    return 1;
  }
  const TraceSummary summary = summarize_trace(is);
  std::cout << "Trace " << path << ": " << summary.events << " events, "
            << summary.detections << " detections, "
            << summary.alerts_delivered << " alerts delivered, "
            << summary.terminations << " terminations\n";
  if (summary.drops > 0 || summary.retries > 0 ||
      summary.faults_injected > 0) {
    // Degradation accounting (PR 5): crosslink drops by reason, reliable
    // retries, and injected fault activations.
    std::cout << "degradation: " << summary.drops << " drops";
    const char* sep = " (";
    for (const auto& [reason, count] : summary.drops_by_reason) {
      std::cout << sep << reason << " " << count;
      sep = ", ";
    }
    if (!summary.drops_by_reason.empty()) std::cout << ")";
    std::cout << ", " << summary.retries << " retries, "
              << summary.faults_injected << " faults injected";
    if (summary.drops_unattributed > 0) {
      std::cout << ", " << summary.drops_unattributed
                << " drops unattributed";
    }
    std::cout << "\n";
  }
  if (summary.termination.empty()) {
    std::cout << "no termination events\n";
    return 0;
  }

  std::vector<std::string> headers{"termination cause"};
  for (int chain = 0; chain <= summary.max_chain; ++chain) {
    headers.push_back("n=" + std::to_string(chain));
  }
  headers.emplace_back("events");
  headers.emplace_back("episodes");
  headers.emplace_back("drops");
  TablePrinter table(headers, 0);
  for (const auto& [cause, by_chain] : summary.termination) {
    std::vector<Cell> row{cause};
    long long events = 0;
    for (int chain = 0; chain <= summary.max_chain; ++chain) {
      const auto it = by_chain.find(chain);
      const long long count = it == by_chain.end() ? 0 : it->second;
      row.emplace_back(count);
      events += count;
    }
    row.emplace_back(events);
    // The episodes whose first termination had this cause, and their
    // crosslink drops; `events` counts every term_* event of the cause.
    row.emplace_back(count_of(summary.episodes_by_cause, cause));
    row.emplace_back(count_of(summary.drops_by_cause, cause));
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// A report sample table: its size, percentiles `ps` and max, in minutes.
void print_sample(const std::string& title, const std::vector<double>& sorted,
                  std::initializer_list<int> ps) {
  if (sorted.empty()) return;
  TablePrinter table({title, "min"}, 3);
  table.add_row({std::string("episodes"),
                 static_cast<long long>(sorted.size())});
  for (const int p : ps) {
    table.add_row({"p" + std::to_string(p), percentile(sorted, p)});
  }
  table.add_row({std::string("max"), sorted.back()});
  table.print(std::cout);
}

/// The same sample as an oaq-report-v1 object (all 0 when empty).
void write_sample_json(std::ostream& os, const std::vector<double>& sorted,
                       std::initializer_list<int> ps) {
  os << "{\"episodes\":" << sorted.size();
  for (const int p : ps) {
    os << ",\"p" << p << "\":";
    write_json_double(os, percentile(sorted, p));
  }
  os << ",\"max\":";
  write_json_double(os, sorted.empty() ? 0.0 : sorted.back());
  os << "}";
}

/// One exported span, flattened from the Chrome trace-event JSON.
struct SpanEntry {
  std::string arena;  ///< thread name ("main", "shard-3")
  std::string name;
  double dur_us = 0.0;
  std::int64_t count = 0;
  std::int64_t items = 0;
};

/// Flatten a --spans file ("ph":"X" events; "ph":"M" thread_name records
/// name the arenas). Empty on parse failure.
std::vector<SpanEntry> parse_spans(const std::string& text) {
  std::vector<SpanEntry> out;
  const auto doc = MiniJson::parse(text);
  if (!doc) return out;
  const MiniJson* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  std::map<double, std::string> arena_names;  // tid -> thread_name
  for (const MiniJson& ev : events->array) {
    const MiniJson* ph = ev.find("ph");
    const MiniJson* tid = ev.find("tid");
    if (ph == nullptr || tid == nullptr || !ph->is_string()) continue;
    if (ph->text == "M") {
      const MiniJson* args = ev.find("args");
      const MiniJson* name = args != nullptr ? args->find("name") : nullptr;
      if (name != nullptr && name->is_string()) {
        arena_names[tid->number] = name->text;
      }
      continue;
    }
    if (ph->text != "X") continue;
    SpanEntry entry;
    const auto arena_it = arena_names.find(tid->number);
    entry.arena = arena_it != arena_names.end()
                      ? arena_it->second
                      : "tid-" + std::to_string(
                            static_cast<long long>(tid->number));
    if (const MiniJson* name = ev.find("name"); name != nullptr) {
      entry.name = name->text;
    }
    if (const MiniJson* dur = ev.find("dur"); dur != nullptr) {
      entry.dur_us = dur->number;
    }
    if (const MiniJson* args = ev.find("args"); args != nullptr) {
      if (const MiniJson* count = args->find("count"); count != nullptr) {
        entry.count = static_cast<std::int64_t>(count->number);
      }
      if (const MiniJson* items = args->find("items"); items != nullptr) {
        entry.items = static_cast<std::int64_t>(items->number);
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

/// `oaqctl report [--trace T] [--metrics M] [--spans S] [--manifest F]
/// [--top N] [--json OUT]` — consolidates one run's artifacts into a
/// single human report (and optionally one oaq-report-v1 JSON document):
/// manifest identity, detection→alert latency percentiles, termination
/// cause × chain × drops attribution, top-k spans by inclusive wall time,
/// and the DES kernel metrics.
int cmd_report(const Args& args) {
  const std::string trace_path = args.str("trace");
  const std::string metrics_path = args.str("metrics");
  const std::string spans_path = args.str("spans");
  std::string manifest_path = args.str("manifest");
  const int top_k = args.at_least("top", 10, 1);
  const std::string json_path = args.str("json");
  args.reject_unread("report");
  if (trace_path.empty() && metrics_path.empty() && spans_path.empty()) {
    std::cerr << "usage: oaqctl report [--trace T.jsonl] [--metrics M.json]"
                 " [--spans S.json] [--manifest F.json] [--top N]"
                 " [--json OUT.json]\n";
    return 1;
  }
  std::optional<MiniJson> metrics;
  if (!metrics_path.empty()) {
    metrics = load_metrics(metrics_path);
    if (!metrics) return 1;
  }
  if (manifest_path.empty()) {
    // The emitters derive <artifact>.manifest.json; try the same anchors.
    for (const std::string& anchor : {metrics_path, trace_path, spans_path}) {
      if (anchor.empty()) continue;
      if (std::ifstream probe(anchor + ".manifest.json"); probe.good()) {
        manifest_path = anchor + ".manifest.json";
        break;
      }
    }
  }

  // --- Manifest. ---
  std::optional<MiniJson> manifest;
  if (!manifest_path.empty()) {
    if (const auto text = slurp(manifest_path)) {
      manifest = MiniJson::parse(*text);
    }
    if (!manifest || !manifest->is_object()) {
      std::cerr << "error: cannot parse manifest: " << manifest_path << '\n';
      return 1;
    }
    const auto field = [&](std::string_view key) -> std::string {
      const MiniJson* v = manifest->find(key);
      if (v == nullptr) return "?";
      if (v->is_string()) return v->text;
      std::ostringstream os;
      write_json_double(os, v->number);
      return os.str();
    };
    std::cout << "run: tool " << field("tool") << ", seed " << field("seed")
              << ", jobs " << field("jobs") << ", config digest "
              << field("config_digest") << ", build " << field("git_describe")
              << " (" << field("build_type") << ")\n";
  }

  // Trace totals the manifest records; counts past 2^53 would not be
  // exact in a JSON number and read as 0, as does a missing key.
  const auto manifest_count = [&manifest](std::string_view key) {
    const MiniJson* v = manifest ? manifest->find(key) : nullptr;
    return v != nullptr && v->is_number() && v->number >= 0.0 &&
                   v->number <= 0x1p53
               ? static_cast<std::uint64_t>(v->number)
               : std::uint64_t{0};
  };

  // --- Trace: latency percentiles + cause×chain×drops, in one pass. ---
  std::ifstream trace_in;
  if (!trace_path.empty()) {
    trace_in.open(trace_path);
    if (!trace_in.good()) {
      std::cerr << "error: cannot open trace file: " << trace_path << '\n';
      return 1;
    }
  }
  const TraceSummary summary =
      trace_in.is_open() ? summarize_trace(trace_in) : TraceSummary{};
  if (!trace_path.empty()) {
    // A ring that overflowed kept only each shard's newest events; every
    // table below is then over a subset, which the manifest records.
    if (const std::uint64_t dropped = manifest_count("trace_dropped");
        dropped > 0) {
      std::cout << "trace dropped " << dropped << " of "
                << manifest_count("trace_events")
                << " events; tables cover surviving events only\n";
    }
    std::cout << "trace: " << summary.events << " events, "
              << summary.detections << " detections, "
              << summary.alerts_delivered << " alerts delivered, "
              << summary.drops << " drops, " << summary.retries
              << " retries, " << summary.faults_injected
              << " faults injected\n";
    print_sample("latency (detection → first alert)", summary.latency_min,
                 {50, 90, 99});
    print_sample("recovery (degradation end → delivery)",
                 summary.recovery_min, {50, 99});
    if (!summary.termination.empty()) {
      // Rows are deterministic: std::map keys iterate in sorted order.
      TablePrinter table({"termination cause", "episodes", "drops"}, 0);
      // Both columns count by each episode's first termination cause.
      for (const auto& [cause, by_chain] : summary.termination) {
        table.add_row({cause, count_of(summary.episodes_by_cause, cause),
                       count_of(summary.drops_by_cause, cause)});
      }
      table.print(std::cout);
      if (summary.drops_unattributed > 0) {
        std::cout << "drops unattributed: " << summary.drops_unattributed
                  << " (trace written without per-episode attribution)\n";
      }
    }
  }

  // --- Spans: top-k by accumulated inclusive wall time. ---
  std::vector<SpanEntry> spans;
  if (!spans_path.empty()) {
    const auto text = slurp(spans_path);
    if (!text) {
      std::cerr << "error: cannot open spans file: " << spans_path << '\n';
      return 1;
    }
    spans = parse_spans(*text);
    std::sort(spans.begin(), spans.end(),
              [](const SpanEntry& a, const SpanEntry& b) {
                if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
                if (a.arena != b.arena) return a.arena < b.arena;
                return a.name < b.name;
              });
    if (spans.size() > static_cast<std::size_t>(top_k)) {
      spans.resize(static_cast<std::size_t>(top_k));
    }
    if (!spans.empty()) {
      TablePrinter table({"span", "arena", "wall ms", "count", "items"}, 3);
      for (const SpanEntry& s : spans) {
        table.add_row({s.name, s.arena, s.dur_us / 1000.0,
                       static_cast<long long>(s.count),
                       static_cast<long long>(s.items)});
      }
      std::cout << "top " << spans.size() << " spans by inclusive time:\n";
      table.print(std::cout);
    }
  }

  // --- Metrics: DES events processed and the pending-event high water
  // per episode (replication). ---
  double sim_events = 0.0;
  double peak_mean = 0.0;
  double peak_max = 0.0;
  if (metrics) {
    const auto number = [](const MiniJson* v) {
      return v != nullptr ? v->number : 0.0;
    };
    sim_events = number(metrics->find("counters")->find("sim.events"));
    if (const MiniJson* peak =
            metrics->find("stats")->find("sim.peak_pending")) {
      peak_mean = number(peak->find("mean"));
      peak_max = number(peak->find("max"));
    }
    TablePrinter table({"DES kernel metric", "value"}, 4);
    table.add_row({std::string("events"), static_cast<long long>(sim_events)});
    table.add_row({std::string("peak pending mean"), peak_mean});
    table.add_row({std::string("peak pending max"),
                   static_cast<long long>(peak_max)});
    std::cout << "DES kernel (" << metrics_path << "):\n";
    table.print(std::cout);
  }

  // --- Optional consolidated JSON document. ---
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os.good()) {
      std::cerr << "error: cannot open report output: " << json_path << '\n';
      return 1;
    }
    os << "{\"schema\":\"oaq-report-v1\",\"manifest\":";
    if (manifest) {
      // Re-emit the manifest fields the report keys on (identity +
      // digest); the full original stays in its own file.
      const auto str_field = [&](std::string_view key) {
        const MiniJson* v = manifest->find(key);
        write_json_string(os, v != nullptr ? v->text : "");
      };
      os << "{\"tool\":";
      str_field("tool");
      os << ",\"seed\":";
      const MiniJson* seed = manifest->find("seed");
      write_json_double(os, seed != nullptr ? seed->number : 0.0);
      os << ",\"jobs\":";
      const MiniJson* jobs = manifest->find("jobs");
      write_json_double(os, jobs != nullptr ? jobs->number : 0.0);
      os << ",\"config_digest\":";
      str_field("config_digest");
      // Trace totals only when the run wrote a trace (and so recorded them).
      for (const std::string_view key : {"trace_events", "trace_dropped"}) {
        if (manifest->find(key) != nullptr) {
          os << ",\"" << key << "\":" << manifest_count(key);
        }
      }
      os << "}";
    } else {
      os << "null";
    }
    os << ",\"latency_min\":";
    write_sample_json(os, summary.latency_min, {50, 90, 99});
    os << ",\"recovery_min\":";
    write_sample_json(os, summary.recovery_min, {50, 99});
    os << ",\"causes\":[";
    bool first = true;
    for (const auto& [cause, by_chain] : summary.termination) {
      os << (first ? "" : ",") << "{\"cause\":";
      write_json_string(os, cause);
      os << ",\"episodes\":" << count_of(summary.episodes_by_cause, cause)
         << ",\"drops\":" << count_of(summary.drops_by_cause, cause) << "}";
      first = false;
    }
    os << "],\"top_spans\":[";
    first = true;
    for (const SpanEntry& s : spans) {
      os << (first ? "" : ",") << "{\"name\":";
      write_json_string(os, s.name);
      os << ",\"arena\":";
      write_json_string(os, s.arena);
      os << ",\"wall_us\":";
      write_json_double(os, s.dur_us);
      os << ",\"count\":" << s.count << ",\"items\":" << s.items << "}";
      first = false;
    }
    os << "],\"queue\":";
    if (metrics) {
      os << "{\"sim.events\":";
      write_json_double(os, sim_events);
      os << ",\"sim.peak_pending\":{\"mean\":";
      write_json_double(os, peak_mean);
      os << ",\"max\":";
      write_json_double(os, peak_max);
      os << "}}";
    } else {
      os << "null";
    }
    os << "}\n";
    std::cout << "report: -> " << json_path << "\n";
  }
  return 0;
}

int cmd_coverage(const Args& args) {
  const auto con = load_constellation(args);
  const int bands = args.integer("bands", 18);
  args.reject_unread("coverage");
  const Constellation c =
      con ? con->constellation : Constellation::reference();
  const CoverageAnalyzer analyzer(c);
  TablePrinter table({"lat_deg", "covered", "overlap(>=2)"}, 3);
  for (const auto& b : analyzer.by_latitude_time_averaged(4, bands, 96)) {
    table.add_row({b.lat_deg, b.covered_fraction, b.overlap_fraction});
  }
  std::cout << (con ? con->origin : std::string("reference"))
            << " constellation coverage by latitude:\n";
  table.print(std::cout);
  return 0;
}

/// `oaqctl constellation [--constellation <preset|file>] [--out FILE]`:
/// summarize a constellation's shell layout and emit the canonical
/// on-disk form (which re-parses bit-exactly — verified on every run).
int cmd_constellation(const Args& args) {
  auto con = load_constellation(args);
  const std::string out_path = args.str("out");
  args.reject_unread("constellation");
  if (!con) {
    con = ConstellationChoice{constellation_preset("reference"),
                              ConstellationBuilder::preset("reference")
                                  .build(),
                              "preset:reference"};
  }
  const Constellation& c = con->constellation;
  TablePrinter table({"shell", "walker", "alt km", "incl deg", "layout",
                      "spares", "period min", "footprint deg"},
                     1);
  for (std::size_t s = 0; s < con->shells.size(); ++s) {
    const WalkerShell& sh = con->shells[s];
    const ConstellationDesign& d =
        c.shell_design(static_cast<int>(s));
    std::ostringstream walker;
    walker << sh.total_sats << "/" << sh.planes << "/" << sh.phasing;
    table.add_row({static_cast<long long>(s), walker.str(), sh.altitude_km,
                   sh.inclination_deg,
                   std::string(sh.star ? "star" : "delta"),
                   static_cast<long long>(sh.spares_per_plane),
                   d.period.to_minutes(), sh.footprint_deg});
  }
  std::cout << con->origin << ": " << c.num_shells() << " shell(s), "
            << c.num_planes() << " planes, " << c.total_active()
            << " active satellites\n";
  table.print(std::cout);

  // Canonical serialization; prove the round-trip before anyone ships the
  // file to another tool.
  std::ostringstream canonical;
  write_constellation(con->shells, canonical);
  {
    std::istringstream back(canonical.str());
    OAQ_REQUIRE(parse_constellation(back) == con->shells,
                "canonical form failed to round-trip");
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    OAQ_REQUIRE(os.good(), "cannot open --out file");
    os << canonical.str();
    std::cout << "wrote " << out_path << "\n";
  } else {
    std::cout << "canonical form (round-trips through --constellation):\n"
              << canonical.str();
  }
  return 0;
}

int help() {
  std::cout <<
      "oaqctl — OAQ constellation toolkit\n"
      "  qos      --k K --tau MIN --mu R --nu R        conditional QoS pmf\n"
      "  capacity --lambda R --eta K --cycles N        plane capacity P(k)\n"
      "  measure  --lambda R --eta K --tau MIN --mu R  Eq. (3) P(Y>=y)\n"
      "  plan     --k K --tau MIN --at MIN             opportunity plan\n"
      "  simulate --k K --episodes N [--baq] [--jobs J]  protocol Monte-Carlo\n"
      "  campaign --k K --per-hour R --hours H\n"
      "           [--replications R] [--jobs J]         multi-target load run\n"
      "  coverage [--bands N] [--constellation C]      coverage by latitude\n"
      "  constellation [--constellation C] [--out F]   shell layout +\n"
      "           canonical round-trip file of a preset or shell file\n"
      "  trace-summary FILE.jsonl   termination-cause x chain table\n"
      "  report   [--trace T] [--metrics M] [--spans S] [--manifest F]\n"
      "           [--top N] [--json OUT]   one consolidated run report:\n"
      "           manifest identity, latency percentiles, cause x drops,\n"
      "           top spans, DES kernel metrics\n"
      "           (oaq-report-v1 JSON via --json)\n"
      "Monte-Carlo commands run on all cores by default; --jobs N (or the\n"
      "OAQ_JOBS env var) overrides, --jobs 1 is the serial path. Results\n"
      "are bit-identical for any jobs value. Unknown flags are rejected.\n"
      "Geometric mode (simulate, campaign, coverage): --constellation C\n"
      "runs against real orbital geometry, where C is a preset (reference,\n"
      "kepler, iridium-next, oneweb, starlink) or a Walker shell file (see\n"
      "tools/README.md). simulate and campaign also take --lat D --lon D\n"
      "to place the target (degrees) and --earth-rotation to enable Earth\n"
      "rotation (all three need --constellation). Shell-relative fault\n"
      "clauses require --constellation and are resolved against its shell\n"
      "layout.\n"
      "Observability (simulate & campaign): --trace FILE writes protocol\n"
      "events as JSONL (bit-identical for any --jobs), --metrics FILE\n"
      "writes the run metrics as oaq-metrics-v3 JSON (one fixed key set\n"
      "per command; tools/README.md), --spans FILE writes the\n"
      "hierarchical span profile as Chrome/Perfetto trace JSON, --profile\n"
      "prints a BENCH_JSON line with per-shard wall times. Any file sink\n"
      "also emits a run manifest (<file>.manifest.json, or --manifest F).\n"
      "campaign --ledger FILE writes the per-target attribution ledger.\n"
      "Fault injection (simulate & campaign): --fault-plan FILE replays a\n"
      "scripted degradation plan (see tools/README.md for the clause\n"
      "syntax), --loss P --reliable --retries N --backoff B set the link\n"
      "model, --self-heal enables the per-link health estimator and\n"
      "hysteretic chain re-routing (--health-alpha A tunes the EWMA),\n"
      "--ge-loss PA,PB,P,R,LOSS appends a Gilbert-Elliott loss clause and\n"
      "--outage-train PA,PB,UP,DOWN an alternating-outage clause to the\n"
      "plan, --check-invariants audits every episode (I1-I12). simulate\n"
      "--chaos-sweep tabulates QoS damage under built-in fault scenarios\n"
      "(cell i of the sweep is seeded from Rng(seed).fork(6).fork(i), the\n"
      "reserved fault stream, so cells never share draws). report with a\n"
      "--trace from a faulted run also prints post-outage recovery\n"
      "percentiles (last degradation end -> first delivery).\n"
      "Exit status is 1 when invariant checking finds a violation.\n";
  return 0;
}

}  // namespace
}  // namespace oaq

int main(int argc, char** argv) {
  using namespace oaq;
  if (argc < 2) return help();
  const std::string cmd = argv[1];
  try {
    if (cmd == "trace-summary") {
      if (argc < 3) {
        std::cerr << "usage: oaqctl trace-summary FILE.jsonl\n";
        return 1;
      }
      const Args args(argc, argv, 3);
      args.reject_unread("trace-summary");
      return cmd_trace_summary(argv[2]);
    }
    const Args args(argc, argv, 2);
    if (cmd == "qos") return cmd_qos(args);
    if (cmd == "capacity") return cmd_capacity(args);
    if (cmd == "measure") return cmd_measure(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "coverage") return cmd_coverage(args);
    if (cmd == "constellation") return cmd_constellation(args);
    if (cmd == "report") return cmd_report(args);
    return help();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
