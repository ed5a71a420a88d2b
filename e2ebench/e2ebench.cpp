// e2ebench — end-to-end + per-layer benchmark over four oaqctl-shaped
// workloads (see README.md in this directory for why each exists and the
// layer -> end-to-end metric -> workload map).
//
//   e2ebench --workload NAME --seed N --mode timed|traced
//            [--seconds T] [--t0-ns NS]
//   e2ebench --selftest
//
// One *iteration* is what one `oaqctl` invocation does: build the
// constellation and fault plan from their specs, make one library call
// (simulate_qos or run_campaign), export any sinks. Only the process-wide
// thread pool survives between iterations. Every iteration is one
// operation; it fails if it throws or if its output check misses.
//
// Modes (each prints one JSON object as its last stdout line):
//   timed   set up, then run untraced iterations for `--seconds` (at
//           least two). The first is the cold iteration of a fresh process.
//           `--t0-ns` is the CLOCK_MONOTONIC time the parent spawned us,
//           so setup_s spans process start -> inputs built, pool up.
//   traced  alternate an untraced and a traced iteration (same seed) for
//           `--seconds`; the traced one attaches SpanProfiler,
//           ReduceProfile and MetricsRegistry (queue + batch metrics)
//           through the config pointers. Prints the layer table and the
//           per-layer metrics. End-to-end numbers never come from here.
//   --selftest  shows every check passes on two seeds and misses when its
//               reference is perturbed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/qos_model.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "fault/process.hpp"
#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/shared_visibility_cache.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace oaq;
using Clock = std::chrono::steady_clock;

/// Executors per call on every workload (the measured spread at 4 jobs on
/// a 4-vCPU host was too wide to tell a regression from noise).
constexpr int kJobs = 2;

enum class Kind { kAnalyticOaq, kAnalyticStorm, kStarlinkSimulate,
                  kStarlinkCampaign };

/// The "oaqctl argv" of one workload: everything an iteration builds its
/// inputs from. The workload seed only varies the random streams.
struct Workload {
  std::string_view name;
  Kind kind;
  int episodes;  ///< simulate_qos episodes per iteration (0 for campaign)
};

constexpr std::array<Workload, 4> kWorkloads = {{
    {"analytic-oaq", Kind::kAnalyticOaq, 1'000'000},
    {"analytic-storm", Kind::kAnalyticStorm, 60'000},
    {"starlink-simulate", Kind::kStarlinkSimulate, 200'000},
    {"starlink-campaign", Kind::kStarlinkCampaign, 0},
}};

// Campaign inputs: 24 h at 6 signals/h, 16 replications.
constexpr double kCampaignHours = 24.0;
constexpr double kCampaignPerHour = 6.0;
constexpr int kCampaignReplications = 16;
// Fixed geometric target (oaqctl's default --lat/--lon).
const GeoPoint kTarget = GeoPoint::from_degrees(0.0, 0.0);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Seed of iteration `i` of a run with workload seed `seed`.
std::uint64_t iteration_seed(std::uint64_t seed, int i) {
  return seed * 1'000'003ull + static_cast<std::uint64_t>(i) + 1;
}

/// Discarding sink that counts the bytes an export writes.
class CountingBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// Observers of a traced iteration, attached through the public config
/// pointers.
struct Sinks {
  SpanProfiler spans;
  ReduceProfile profile;
  MetricsRegistry metrics;
};

/// The storm plan (analytic-storm): Gilbert–Elliott loss plus an outage
/// train on the plane's own crosslink pair over the protocol window.
FaultPlan storm_plan(Duration window) {
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(), window))
      .add(FaultPlan::outage_train(0, 0, 1.0, 0.5, Duration::zero(), window));
  return plan;
}

/// Protocol as `oaqctl simulate` builds it from its defaults.
ProtocolConfig simulate_protocol() {
  ProtocolConfig p;
  p.computation_cap = p.tg;
  return p;
}

/// Per-iteration result and the bench's own span timings (traced only).
struct Outcome {
  std::int64_t episodes = 0;  ///< signal episodes (campaign: signals)
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string failure;  ///< empty = every check passed
  double build_s = 0.0, plan_s = 0.0, call_s = 0.0, export_s = 0.0;
  std::uint64_t export_bytes = 0;
  std::uint64_t trace_events = 0, trace_dropped = 0;
};

/// The check oracle, built once during set-up: the closed-form model's
/// P(Y=y|12) under OAQ (Table 1).
using ModelPmf = std::array<double, 4>;

ModelPmf model_pmf() {
  return QosModel(PlaneGeometry{}, QosModelParams{})
      .conditional_pmf(12, Scheme::kOaq);
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

// --- Output checks. Statistical tolerances, not digests, so they hold on
// any seed; `perturb` skews each reference so the check must miss. ---

std::string check_pmf_vs_model(const SimulatedQos& sim, std::int64_t episodes,
                               std::array<double, 4> ref, bool perturb) {
  if (sim.episodes != episodes ||
      sim.level_pmf.total_weight() != static_cast<double>(episodes)) {
    return "episode count mismatch";
  }
  if (perturb) {  // a perturbed reference pmf: mass moved 0.01 from Y=3
    ref[3] -= 0.01;
    ref[1] += 0.01;
  }
  const auto n = static_cast<double>(episodes);
  for (int y = 0; y <= 3; ++y) {
    const double p = ref[static_cast<std::size_t>(y)];
    const double se = std::sqrt(std::max(p * (1.0 - p), 1e-12) / n);
    const double got = sim.level_pmf.probability(y);
    if (std::abs(got - p) > 4.0 * se) {
      return "P(Y=" + std::to_string(y) + "|12) = " + fmt(got) +
             " is not within 4 SE of the model's " + fmt(p);
    }
  }
  return {};
}

std::string check_storm(const SimulatedQos& sim, std::int64_t episodes,
                        const MetricsRegistry& metrics,
                        const TraceCollector& trace, std::uint64_t bytes,
                        bool perturb) {
  if (sim.episodes != episodes ||
      sim.level_pmf.total_weight() != static_cast<double>(episodes)) {
    return "episode count mismatch";
  }
  // A forced violation stands in for the checker finding one.
  const std::int64_t violations = sim.invariant_violations + (perturb ? 1 : 0);
  if (violations != 0) {
    return std::to_string(violations) + " invariant violation(s)";
  }
  if (metrics.counter("invariant.violations") != sim.invariant_violations) {
    return "metrics disagree with the result on invariant violations";
  }
  if (metrics.counter("episodes") != episodes) {
    return "metrics episode count mismatch";
  }
  if (metrics.counter("net.fault.injected") <= 0) {
    return "storm injected no fault";
  }
  if (trace.total_recorded() == 0 || bytes == 0) return "nothing exported";
  return {};
}

std::string check_starlink(const SimulatedQos& sim, std::int64_t episodes,
                           bool perturb) {
  if (sim.episodes != episodes ||
      sim.level_pmf.total_weight() != static_cast<double>(episodes)) {
    return "episode count mismatch";
  }
  // Dense starlink coverage: virtually every signal is seen by two
  // satellites at once; chains relay over ~32 crosslink hops.
  const double floor = perturb ? 1.01 : 0.99;
  const double p3 = sim.probability(QosLevel::kSimultaneousDual);
  if (p3 < floor) return "P(Y=3) = " + fmt(p3) + " < " + fmt(floor);
  if (sim.mean_chain_length < 20.0 || sim.mean_chain_length > 45.0) {
    return "mean chain length " + fmt(sim.mean_chain_length) +
           " outside [20, 45]";
  }
  if (sim.unresolved != 0) return "unresolved participants";
  return {};
}

std::string check_campaign(const CampaignResult& r, bool perturb) {
  // Signals are Poisson with mean rate x horizon x replications.
  double expect = kCampaignPerHour * kCampaignHours * kCampaignReplications;
  const double sd = std::sqrt(expect);
  if (perturb) expect += 10.0 * sd;
  if (std::abs(static_cast<double>(r.signals) - expect) > 5.0 * sd) {
    return "signals " + std::to_string(r.signals) + " not within 5 SD of " +
           fmt(expect);
  }
  if (r.levels.total_weight() != static_cast<double>(r.signals)) {
    return "level pmf does not count every signal";
  }
  const auto& counts = r.levels.weights();
  const auto missed = counts.find(to_int(QosLevel::kMissed));
  const double detected = static_cast<double>(r.signals) -
                          (missed == counts.end() ? 0.0 : missed->second);
  if (static_cast<double>(r.delivered) != detected) {
    return "a detected signal was not delivered";
  }
  const double tau_min = ProtocolConfig{}.tau.to_minutes();
  if (!(r.mean_latency_min > 0.0 && r.mean_latency_min < tau_min)) {
    return "mean latency " + fmt(r.mean_latency_min) + " min outside (0, tau)";
  }
  return {};
}

/// One oaqctl-shaped iteration. `sinks` non-null = traced; `bench` is the
/// arena for the benchmark's own spans (null when untraced).
Outcome run_iteration(const Workload& w, std::uint64_t seed,
                      const ModelPmf& oracle, Sinks* sinks, SpanArena* bench,
                      bool perturb) {
  Outcome out;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  {
    const ScopedSpan iteration_span(bench, "iteration");
    const auto attach = [sinks](auto& cfg) {
      if (sinks == nullptr) return;
      cfg.spans = &sinks->spans;
      cfg.profile = &sinks->profile;
      cfg.metrics = &sinks->metrics;
    };
    std::optional<Constellation> con;
    if (w.kind != Kind::kAnalyticOaq && w.kind != Kind::kAnalyticStorm) {
      const ScopedSpan span(bench, "orbit.build");
      con.emplace(ConstellationBuilder::preset("starlink").build());
    }
    if (w.kind == Kind::kStarlinkCampaign) {
      CampaignConfig cfg;
      cfg.protocol.computation_cap = Duration::seconds(6.0);
      cfg.signal_arrival_rate = Rate::per_hour(kCampaignPerHour);
      cfg.horizon = Duration::hours(kCampaignHours);
      cfg.replications = kCampaignReplications;
      cfg.seed = seed;
      cfg.jobs = kJobs;
      cfg.queue_metrics = true;
      cfg.episode_attribution = true;
      cfg.constellation = &*con;
      cfg.target = kTarget;
      attach(cfg);
      CampaignResult r;
      {
        const ScopedSpan span(bench, "call");
        r = run_campaign(cfg);
      }
      out.episodes = r.signals;
      out.failure = check_campaign(r, perturb);
    } else {
      QosSimulationConfig cfg;
      cfg.protocol = simulate_protocol();
      cfg.k = w.kind == Kind::kAnalyticOaq ? 12 : 9;
      cfg.episodes = w.episodes;
      cfg.seed = seed;
      cfg.jobs = kJobs;
      cfg.queue_metrics = true;
      cfg.batch_metrics = true;
      if (con) {
        cfg.constellation = &*con;
        cfg.target = kTarget;
      }
      attach(cfg);
      // The storm's own sinks: exported every iteration, traced or not.
      std::optional<FaultPlan> plan;
      std::optional<TraceCollector> trace;
      MetricsRegistry storm_metrics;
      if (w.kind == Kind::kAnalyticStorm) {
        {
          const ScopedSpan span(bench, "fault.plan");
          plan.emplace(storm_plan(cfg.protocol.tau));
        }
        cfg.protocol.reliable_links = true;
        cfg.protocol.self_healing_links = true;
        cfg.fault_plan = &*plan;
        cfg.check_invariants = true;
        trace.emplace();
        cfg.trace = &*trace;
        if (cfg.metrics == nullptr) cfg.metrics = &storm_metrics;
      }
      SimulatedQos sim;
      {
        const ScopedSpan span(bench, "call");
        sim = simulate_qos(cfg);
      }
      out.episodes = sim.episodes;
      if (w.kind == Kind::kAnalyticStorm) {
        CountingBuf buf;
        {
          const ScopedSpan span(bench, "obs.export");
          std::ostream os(&buf);
          trace->write_jsonl(os);
          cfg.metrics->write_json(os);
        }
        out.export_bytes = buf.bytes();
        out.trace_events = trace->total_recorded();
        out.trace_dropped = trace->total_dropped();
        out.failure = check_storm(sim, w.episodes, *cfg.metrics, *trace,
                                  out.export_bytes, perturb);
      } else if (w.kind == Kind::kAnalyticOaq) {
        out.failure =
            check_pmf_vs_model(sim, w.episodes, oracle, perturb);
      } else {
        out.failure = check_starlink(sim, w.episodes, perturb);
      }
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;
  if (bench != nullptr) {
    for (const auto& n : bench->nodes()) {
      const double s = static_cast<double>(n.wall_ns) * 1e-9;
      const std::string_view name(n.name);
      if (name == "iteration") out.wall_s = s;
      if (name == "orbit.build") out.build_s = s;
      if (name == "fault.plan") out.plan_s = s;
      if (name == "call") out.call_s = s;
      if (name == "obs.export") out.export_s = s;
    }
  }
  return out;
}

/// Operation accounting: an iteration that throws or misses a check is
/// one failed operation.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons
};

std::optional<Outcome> run_operation(const Workload& w, std::uint64_t seed,
                                     const ModelPmf& oracle, Sinks* sinks,
                                     SpanArena* bench, bool perturb,
                                     Tally& tally) {
  ++tally.attempted;
  std::optional<Outcome> out;
  std::string why;
  try {
    out = run_iteration(w, seed, oracle, sinks, bench, perturb);
    why = out->failure;
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (!why.empty()) {
    ++tally.failed;
    if (tally.failures.size() < 4) {
      tally.failures.push_back(std::string(w.name) + " seed " +
                               std::to_string(seed) + ": " + why);
    }
  }
  return out;
}

// --- Per-layer extraction from a traced iteration. ---

/// Per-layer values of one traced iteration by name (seconds are per
/// iteration; shard-arena times are thread-seconds summed over shards).
using LayerSample = std::map<std::string, double>;

double span_sum(const SpanArena& arena, std::string_view name,
                std::string_view parent = {}) {
  double s = 0.0;
  const auto& nodes = arena.nodes();
  for (const auto& n : nodes) {
    if (std::string_view(n.name) != name) continue;
    if (!parent.empty() &&
        (n.parent < 0 ||
         std::string_view(nodes[static_cast<std::size_t>(n.parent)].name) !=
             parent)) {
      continue;
    }
    s += static_cast<double>(n.wall_ns) * 1e-9;
  }
  return s;
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double counter(const MetricsRegistry& m, std::string_view name) {
  return static_cast<double>(m.counter(name));
}

LayerSample extract_layers(const Outcome& o, Sinks& s) {
  LayerSample L;
  const MetricsRegistry& m = s.metrics;
  const ReduceProfile& p = s.profile;
  SpanArena* main = s.spans.main_arena();
  const double seed_s = span_sum(*main, "visibility_seed");
  const double freeze_s = span_sum(*main, "visibility_freeze");
  // Shard arenas: analytic batch engine (shard > prologue, drain),
  // pooled geometric shards (shard > episodes), campaign replications
  // (replication > arrivals, drain, finalize).
  double prologue = 0, drain = 0, episodes = 0, arrivals = 0, cdrain = 0,
         finalize = 0;
  for (int a = 0; a < s.spans.shards(); ++a) {
    const SpanArena& arena = *s.spans.shard_arena(a);
    prologue += span_sum(arena, "prologue");
    drain += span_sum(arena, "drain", "shard");
    episodes += span_sum(arena, "episodes");
    arrivals += span_sum(arena, "arrivals");
    cdrain += span_sum(arena, "drain", "replication");
    finalize += span_sum(arena, "finalize");
  }
  const double shard_run = p.sum_shard_run_s();
  const int jobs = std::max(p.jobs_resolved, 1);
  const double fanout = p.total_s - p.seed_s - p.merge_s;
  const double leaves = prologue + drain + episodes + arrivals + cdrain +
                        finalize;

  L["layer.iteration_s"] = o.wall_s;
  L["orbit.build_s"] = o.build_s;
  L["orbit.seed_s"] = seed_s;
  L["orbit.seed_share"] = ratio(seed_s, o.wall_s);
  L["orbit.hit_ratio"] = ratio(counter(m, "visibility.pass_hits"),
                               counter(m, "visibility.pass_queries"));
  L["oaq.prologue_s"] = prologue;
  L["oaq.drain_s"] = drain;
  L["oaq.episodes_s"] = episodes;
  L["oaq.arrivals_s"] = arrivals;
  L["oaq.campaign_drain_s"] = cdrain;
  L["oaq.finalize_s"] = finalize;
  L["oaq.escape_ratio"] = ratio(counter(m, "sim.batch.escaped"),
                                counter(m, "sim.batch.episodes"));
  L["oaq.lanes_per_batch"] = ratio(counter(m, "sim.batch.des_lanes"),
                                   counter(m, "sim.batch.batches"));
  L["oaq.chain_length_mean"] = m.stat("chain.length").mean();

  const double events = counter(m, "sim.events");
  L["sim.events"] = events;
  L["sim.events_per_s"] = ratio(events, drain + episodes + cdrain);
  L["sim.peak_pending_mean"] = m.stat("sim.peak_pending").mean();
  L["sim.tombstone_ratio"] =
      ratio(counter(m, "sim.queue.tombstones_purged"), events);
  L["sim.runs_created"] = counter(m, "sim.queue.runs_created");
  L["sim.run_merges"] = counter(m, "sim.queue.run_merges");

  const double sent = counter(m, "xlink.sent");
  L["net.sent"] = sent;
  L["net.delivery_ratio"] = ratio(counter(m, "xlink.delivered"), sent);
  L["net.retries"] = counter(m, "net.retry.attempts");
  L["net.retries_exhausted"] = counter(m, "net.retry.exhausted");
  L["net.dropped"] = counter(m, "xlink.dropped_loss") +
                     counter(m, "xlink.dropped_dead") +
                     counter(m, "xlink.dropped_link");
  L["net.health.demoted"] = counter(m, "net.health.demoted");
  L["net.health.restored"] = counter(m, "net.health.restored");

  L["fault.injected"] = counter(m, "net.fault.injected");

  L["obs.export_s"] = o.export_s;
  L["obs.export_mb_per_s"] =
      ratio(static_cast<double>(o.export_bytes) * 1e-6, o.export_s);
  L["obs.trace_events"] = static_cast<double>(o.trace_events);
  L["obs.trace_dropped"] = static_cast<double>(o.trace_dropped);

  L["parallel.merge_s"] = p.merge_s;
  L["parallel.queue_wait_s"] =
      ratio(p.sum_queue_wait_s(), static_cast<double>(p.shards.size()));
  L["parallel.busy_frac"] = ratio(shard_run, p.total_s * jobs);

  // Layer-table rows: self time in iteration-wall seconds. Shard-arena
  // thread-seconds become wall seconds divided by the executor count; the
  // rest of the fan-out wall is idle executors (imbalance, queue wait).
  L["row.orbit.build"] = o.build_s;
  L["row.fault.plan"] = o.plan_s;
  L["row.orbit.visibility_seed"] = seed_s;
  L["row.orbit.visibility_freeze"] = freeze_s;
  L["row.oaq.prologue"] = prologue / jobs;
  L["row.oaq.drain"] = drain / jobs;
  L["row.oaq.episodes"] = episodes / jobs;
  L["row.oaq.arrivals"] = arrivals / jobs;
  L["row.oaq.campaign_drain"] = cdrain / jobs;
  L["row.oaq.finalize"] = finalize / jobs;
  L["row.parallel.shard_self"] = (shard_run - leaves) / jobs;
  L["row.parallel.idle"] = fanout - shard_run / jobs;
  L["row.parallel.merge"] = p.merge_s;
  L["row.parallel.seed_hook_self"] = p.seed_s - seed_s - freeze_s;
  L["row.oaq.call_self"] = o.call_s - p.total_s;
  L["row.obs.export"] = o.export_s;
  L["row.bench.iteration_self"] =
      o.wall_s - o.build_s - o.plan_s - o.call_s - o.export_s;
  return L;
}

/// Passes the orbit layer computes for the workload's seeded window,
/// counted through a SharedVisibilityCache seeded the way the engines do
/// (the window quanta mirror simulate_qos's and run_campaign's).
double orbit_passes(const Workload& w) {
  if (w.kind == Kind::kAnalyticOaq || w.kind == Kind::kAnalyticStorm) {
    return 0.0;
  }
  const Constellation con = ConstellationBuilder::preset("starlink").build();
  const Duration tau = ProtocolConfig{}.tau;
  SharedVisibilityCache::Options opt;
  opt.window_quantum =
      w.kind == Kind::kStarlinkCampaign
          ? Duration::minutes(60) + Duration::hours(kCampaignHours) + tau +
                Duration::hours(2)
          : Duration::minutes(60) + con.max_period() + tau + Duration::hours(2);
  SharedVisibilityCache cache(con, false, opt);
  cache.seed_window(kTarget, Duration::zero(), opt.window_quantum);
  cache.freeze();
  const auto passes =
      cache.passes_window(kTarget, Duration::zero(), opt.window_quantum);
  return static_cast<double>(passes.size());
}

/// FaultProcessExpander::expand cost of the storm plan, one expansion per
/// episode of an iteration, timed from outside the engine.
double fault_expand_s(const Workload& w, std::uint64_t seed) {
  if (w.kind != Kind::kAnalyticStorm) return 0.0;
  const FaultPlan plan = storm_plan(simulate_protocol().tau);
  FaultProcessExpander expander;
  const Rng master(seed);
  std::size_t clauses = 0;
  const auto t0 = Clock::now();
  for (int e = 0; e < w.episodes; ++e) {
    clauses += expander.expand(plan, master.fork(static_cast<std::uint64_t>(e)))
                   .size();
  }
  const double s = seconds_between(t0, Clock::now());
  OAQ_REQUIRE(clauses > 0, "storm plan expanded to nothing");
  return s;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Layer-table rows: (layer, self-time row). The bench row is the
/// benchmark's own glue, the only part not attributed to a layer.
constexpr std::array<std::pair<const char*, const char*>, 17> kRows = {{
    {"orbit", "orbit.build"},
    {"fault", "fault.plan"},
    {"orbit", "orbit.visibility_seed"},
    {"orbit", "orbit.visibility_freeze"},
    {"common", "parallel.seed_hook_self"},
    {"oaq", "oaq.prologue"},
    {"oaq", "oaq.drain"},
    {"oaq", "oaq.episodes"},
    {"oaq", "oaq.arrivals"},
    {"oaq", "oaq.campaign_drain"},
    {"oaq", "oaq.finalize"},
    {"common", "parallel.shard_self"},
    {"common", "parallel.idle"},
    {"common", "parallel.merge"},
    {"oaq", "oaq.call_self"},
    {"obs", "obs.export"},
    {"bench", "bench.iteration_self"},
}};

double get(const LayerSample& s, const std::string& k) {
  const auto it = s.find(k);
  return it == s.end() ? 0.0 : it->second;
}

/// Share of the iteration wall the layer rows account for.
double attributed_share(const LayerSample& mean) {
  double attributed = 0.0;
  for (const auto& [layer, row] : kRows) {
    if (std::string_view(layer) != "bench") {
      attributed += get(mean, std::string("row.") + row);
    }
  }
  return ratio(attributed, get(mean, "layer.iteration_s"));
}

void print_layer_table(const Workload& w, const LayerSample& mean,
                       int iterations) {
  const double wall = get(mean, "layer.iteration_s");
  std::cout << "layer table: " << w.name << " (jobs " << kJobs << ", mean of "
            << iterations << " traced iterations, iteration wall "
            << fmt(wall) << " s)\n";
  std::cout << std::left << std::setw(8) << "layer" << std::setw(30)
            << "self time of" << std::right << std::setw(12) << "self_s"
            << std::setw(9) << "share" << "\n";
  for (const auto& [layer, row] : kRows) {
    const double s = get(mean, std::string("row.") + row);
    std::cout << std::left << std::setw(8) << layer << std::setw(30) << row
              << std::right << std::setw(12) << std::fixed
              << std::setprecision(6) << s << std::setw(8)
              << std::setprecision(1) << 100.0 * ratio(s, wall) << "%\n";
    std::cout.unsetf(std::ios::floatfield);
  }
  std::cout << "attributed to layers: "
            << fmt(100.0 * get(mean, "layer.attributed_share"))
            << "% of iteration wall\n";
  const auto line = [&mean](const char* title,
                            std::initializer_list<const char*> keys) {
    std::cout << title;
    const char* sep = " ";
    for (const char* k : keys) {
      std::cout << sep << k << " " << fmt(get(mean, k));
      sep = ", ";
    }
    std::cout << "\n";
  };
  line("counts:", {"sim.events", "net.sent", "net.retries", "net.dropped",
                   "fault.injected", "obs.trace_events", "obs.trace_dropped",
                   "orbit.passes"});
  line("ratios:", {"sim.tombstone_ratio", "net.delivery_ratio",
                   "oaq.escape_ratio", "orbit.hit_ratio", "orbit.seed_share",
                   "parallel.busy_frac"});
  line("outside the iteration:", {"fault.expand_s", "obs.tracing_overhead"});
}

// --- JSON output (flat; run.py aggregates). ---

void json_kv(std::ostream& os, bool& first, std::string_view k, double v) {
  os << (first ? "" : ",") << '"' << k << "\":" << std::setprecision(12) << v;
  first = false;
}

void json_list(std::ostream& os, bool& first, std::string_view k,
               const std::vector<double>& xs) {
  os << (first ? "" : ",") << '"' << k << "\":[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i ? "," : "") << std::setprecision(12) << xs[i];
  }
  os << "]";
  first = false;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

using Scalars = std::vector<std::pair<std::string, double>>;
using Lists = std::vector<std::pair<std::string, std::vector<double>>>;

void print_result(const Scalars& scalars, const Lists& lists,
                  const Tally& tally) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  json_kv(os, first, "attempted", static_cast<double>(tally.attempted));
  json_kv(os, first, "failed", static_cast<double>(tally.failed));
  for (const auto& [k, v] : scalars) json_kv(os, first, k, v);
  for (const auto& [k, v] : lists) json_list(os, first, k, v);
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < tally.failures.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(tally.failures[i]) << '"';
  }
  os << "],\"stamp\":{\"build_type\":\"" << E2E_BUILD_TYPE
     << "\",\"compiler\":\"" << json_escape(__VERSION__) << "\",\"jobs\":"
     << kJobs << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::int64_t t0_ns = 0;
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      OAQ_REQUIRE(i + 1 < argc, "missing value after " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--mode") a.mode = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--t0-ns") a.t0_ns = std::stoll(value());
    else if (k == "--selftest") a.selftest = true;
    else throw std::invalid_argument("unknown flag " + k);
  }
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Every check passes on two seeds and misses when its reference is
/// perturbed; each outcome goes through the same operation accounting.
int selftest() {
  const ModelPmf oracle = model_pmf();
  int bad = 0;
  for (const auto& w : kWorkloads) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      Tally t;
      (void)run_operation(w, seed, oracle, nullptr, nullptr, false, t);
      const bool ok = t.attempted == 1 && t.failed == 0;
      std::cout << "selftest " << w.name << " seed " << seed << " clean: "
                << (ok ? "pass" : "FAIL") << "\n";
      for (const auto& f : t.failures) std::cout << "  " << f << "\n";
      bad += ok ? 0 : 1;
    }
    Tally t;
    (void)run_operation(w, 1, oracle, nullptr, nullptr, true, t);
    const bool caught = t.attempted == 1 && t.failed == 1;
    std::cout << "selftest " << w.name << " perturbed: "
              << (caught ? "failed as required" : "NOT CAUGHT") << "\n";
    for (const auto& f : t.failures) std::cout << "  " << f << "\n";
    bad += caught ? 0 : 1;
  }
  std::cout << "selftest: " << (bad == 0 ? "ok" : "FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

int run(const Args& a) {
  if (a.selftest) return selftest();
  const Workload& w = find_workload(a.workload);
  if (std::string_view(E2E_BUILD_TYPE) != "Release") {
    std::cerr << "warning: e2ebench built as " << E2E_BUILD_TYPE
              << ", not Release; numbers are not comparable\n";
  }

  // Set-up: inputs (specs and the check oracle) and the pool.
  const ModelPmf oracle = model_pmf();
  (void)ThreadPool::global();
  const double setup_s =
      a.t0_ns > 0 ? 1e-9 * static_cast<double>(monotonic_ns() - a.t0_ns) : 0.0;

  Tally tally;
  if (a.mode == "timed") {
    // Iteration 0 is the cold one: this process is as fresh as a one-shot
    // oaqctl run, and its peak RSS after it is what that user sees.
    std::vector<double> wall, cpu, episodes;
    double cold_rss_mib = 0.0;
    const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
    // Stop before an iteration as long as the last one would overrun.
    std::chrono::duration<double> last{0.0};
    for (int i = 0; i < 2 || Clock::now() + last < t_end; ++i) {
      const auto t_iter = Clock::now();
      const auto o = run_operation(w, iteration_seed(a.seed, i), oracle,
                                   nullptr, nullptr, false, tally);
      last = Clock::now() - t_iter;
      if (i == 0) cold_rss_mib = peak_rss_mib();
      if (!o) continue;
      wall.push_back(o->wall_s);
      cpu.push_back(o->cpu_s);
      episodes.push_back(static_cast<double>(o->episodes));
    }
    print_result({{"setup_s", setup_s}, {"cold_rss_mib", cold_rss_mib}},
                 {{"wall_s", wall}, {"cpu_s", cpu}, {"episodes", episodes}},
                 tally);
    return 0;
  }
  if (a.mode == "traced") {
    std::vector<double> plain_wall, traced_wall;
    std::map<std::string, double> sum;
    int traced = 0;
    const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
    // The process's first iteration is cold; keep it out of the pairs.
    (void)run_operation(w, iteration_seed(a.seed, 0), oracle, nullptr,
                        nullptr, false, tally);
    std::chrono::duration<double> last{0.0};  // of the last pair
    for (int i = 1; i < 3 || Clock::now() + last < t_end; ++i) {
      const auto t_pair = Clock::now();
      const std::uint64_t seed = iteration_seed(a.seed, i);
      const auto plain = run_operation(w, seed, oracle, nullptr, nullptr,
                                       false, tally);
      Sinks sinks;
      SpanArena bench;
      const auto o = run_operation(w, seed, oracle, &sinks, &bench, false,
                                   tally);
      last = Clock::now() - t_pair;
      if (!plain || !o) continue;
      plain_wall.push_back(plain->wall_s);
      traced_wall.push_back(o->wall_s);
      for (const auto& [k, v] : extract_layers(*o, sinks)) sum[k] += v;
      ++traced;
    }
    LayerSample mean;
    for (const auto& [k, v] : sum) mean[k] = v / std::max(traced, 1);
    // Traced vs untraced episodes/s at identical work: 1 - plain/traced wall.
    const double overhead =
        1.0 - ratio(median(plain_wall), median(traced_wall));
    mean["obs.tracing_overhead"] = overhead;
    mean["layer.attributed_share"] = attributed_share(mean);
    mean["orbit.passes"] = orbit_passes(w);
    mean["fault.expand_s"] = fault_expand_s(w, a.seed);
    print_layer_table(w, mean, traced);
    Scalars scalars(mean.begin(), mean.end());
    scalars.emplace_back("setup_s", setup_s);
    print_result(scalars, {}, tally);
    return 0;
  }
  throw std::invalid_argument("--mode must be timed or traced");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
