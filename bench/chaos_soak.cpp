// Chaos-soak harness (ISSUE 10 tentpole): randomized storm campaigns of
// stochastic fault processes against the self-healing link layer.
//
// Four measurements, three acceptance gates:
//   1. Storm soak — simulate_qos on the iridium-next preset (geometric
//      mode) with a Gilbert–Elliott + outage-train + sat-lifecycle plan
//      and self-healing links, invariants I1–I12 checked on every
//      episode. Reports availability (timely-alert fraction), the p50/p99
//      alert recovery time after the last degradation window ends, and
//      the alert-latency degradation vs the clean (no-storm) baseline.
//      Gate: zero invariant violations.
//   2. Clean-path overhead — analytic simulate_qos with self-healing
//      links enabled but no plan vs fully off. Gate: <= 5% wall-clock
//      (the health path must stay branch-cheap while nothing degrades),
//      read as the median of interleaved paired ratios
//      (bench/paired_overhead.hpp), not one reading.
//   3. Expansion hot path — repeated FaultProcessExpander::expand rounds
//      of a stochastic plan. Gate: zero steady-state heap allocations
//      (the expander's internal plan keeps its capacity).
//   4. Storm throughput — episodes/sec of the soak run. Informational.
//
// Prints a human table plus BENCH_JSON lines (aggregated into
// BENCH_10.json by tools/run_bench.sh; schema in tools/README.md).
//
//   chaos_soak [storm_episodes] [overhead_episodes] [rounds]
//
// `overhead_episodes` is the size of one clean-path overhead run; short
// runs (4096 episodes, a few ms) interleave finely enough that a pair's
// two sides see the same host speed.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "paired_overhead.hpp"
#include "common/table.hpp"
#include "fault/process.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/trace.hpp"
#include "orbit/constellation_builder.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

/// Floor on each side of a clean-path overhead pair.
constexpr double kMinRunSeconds = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(rank, xs.size() - 1)];
}

/// The randomized storm over the iridium-next shell (6 planes): a
/// Gilbert–Elliott flapper on every plane's own intra-plane links (chain
/// hops are mostly along-track, so same-plane pairs carry the
/// coordination traffic), an outage/recovery train on two cross-plane
/// seams, and a satellite death + spare swap. Rates are per minute;
/// windows cover the episode's useful horizon (τ = 5 min by default plus
/// signal tails). Expanded per episode from the reserved fault fork, so
/// every episode sees a different storm.
FaultPlan storm_plan() {
  FaultPlan plan;
  for (int p = 0; p < 6; ++p) {
    plan.add(FaultPlan::ge_loss(p, p, /*p_rate=*/2.0, /*r_rate=*/6.0,
                                /*loss=*/0.9, Duration::minutes(0.0),
                                Duration::minutes(6.0)));
  }
  plan.add(FaultPlan::outage_train(0, 1, /*up_mean_min=*/1.5,
                                   /*down_mean_min=*/0.4,
                                   Duration::minutes(0.0),
                                   Duration::minutes(6.0)));
  plan.add(FaultPlan::outage_train(2, 3, /*up_mean_min=*/1.5,
                                   /*down_mean_min=*/0.4,
                                   Duration::minutes(0.5),
                                   Duration::minutes(6.0)));
  for (int p = 0; p < 6; ++p) {
    for (int slot = 0; slot < 11; slot += 3) {
      plan.add(FaultPlan::sat_lifecycle({p, slot}, /*death_rate=*/0.2,
                                        /*spare_mean_min=*/1.0,
                                        Duration::minutes(0.0),
                                        Duration::minutes(6.0)));
    }
  }
  return plan;
}

/// The soak configuration: geometric mode over the iridium-next Walker
/// preset, OAQ, bounded computations, self-healing links on.
QosSimulationConfig soak_config(const Constellation& c, int episodes) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = episodes;
  cfg.seed = 13;
  cfg.jobs = 1;  // serial: wall-clock comparisons without scheduler noise
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.protocol.self_healing_links = true;
  return cfg;
}

/// Per-episode aggregates scanned out of the trace stream.
struct EpisodeScan {
  double detection_min = -1.0;    ///< kDetection time
  double first_alert_min = -1.0;  ///< first kAlert time
  double delivered_min = -1.0;    ///< first kAlertDelivered time
  double last_degrade_end = -1.0; ///< last fault_* deactivation (a < 0)
  /// last_degrade_end snapshot at delivery time (events arrive in sim
  /// order): the most recent degradation window that had already closed
  /// when the alert landed — the recovery-time reference point.
  double degrade_end_at_delivery = -1.0;
};

/// Folds one run's trace into per-(shard, episode) scan rows.
std::map<std::pair<int, std::int64_t>, EpisodeScan> scan_trace(
    const TraceCollector& trace) {
  std::map<std::pair<int, std::int64_t>, EpisodeScan> rows;
  for (int s = 0; s < trace.shards(); ++s) {
    for (const TraceEvent& ev : trace.shard_buffer(s).events()) {
      EpisodeScan& row = rows[{s, ev.episode}];
      switch (ev.type) {
        case TraceEventType::kDetection:
          if (row.detection_min < 0.0) row.detection_min = ev.t_min;
          break;
        case TraceEventType::kAlert:
          if (row.first_alert_min < 0.0) row.first_alert_min = ev.t_min;
          break;
        case TraceEventType::kAlertDelivered:
          if (row.delivered_min < 0.0) {
            row.delivered_min = ev.t_min;
            row.degrade_end_at_delivery = row.last_degrade_end;
          }
          break;
        default:
          if (is_fault(ev.type) && ev.a < 0) {
            row.last_degrade_end = std::max(row.last_degrade_end, ev.t_min);
          }
          break;
      }
    }
  }
  return rows;
}

struct SoakNumbers {
  double availability = 0.0;      ///< timely alerts / episodes
  double mean_latency_min = 0.0;  ///< detection → first alert, delivered eps
  double recovery_p50_min = 0.0;  ///< degradation end → delivery
  double recovery_p99_min = 0.0;
  std::int64_t recovery_samples = 0;
  std::int64_t violations = 0;
  double episodes_per_sec = 0.0;
  std::int64_t xlink_sends = 0;
  std::int64_t xlink_drops = 0;
  std::int64_t faults = 0;  ///< fault_* activations (a > 0)
};

SoakNumbers run_soak(const Constellation& c, int episodes,
                     const FaultPlan* plan) {
  QosSimulationConfig cfg = soak_config(c, episodes);
  cfg.fault_plan = plan;
  cfg.check_invariants = true;
  TraceCollector trace;
  cfg.trace = &trace;

  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();

  SoakNumbers out;
  out.violations = qos.invariant_violations;
  out.episodes_per_sec = static_cast<double>(qos.episodes) / elapsed;

  for (int s = 0; s < trace.shards(); ++s) {
    for (const TraceEvent& ev : trace.shard_buffer(s).events()) {
      if (ev.type == TraceEventType::kXlinkSend) ++out.xlink_sends;
      if (ev.type == TraceEventType::kXlinkDrop) ++out.xlink_drops;
      if (is_fault(ev.type) && ev.a > 0) ++out.faults;
    }
  }

  std::int64_t timely = 0;
  double latency_sum = 0.0;
  std::int64_t latency_n = 0;
  std::vector<double> recovery;
  for (const auto& [key, row] : scan_trace(trace)) {
    if (row.delivered_min < 0.0) continue;
    if (row.detection_min >= 0.0 && row.first_alert_min >= 0.0) {
      latency_sum += row.first_alert_min - row.detection_min;
      ++latency_n;
    }
    // Recovery after outage end: how long after the most recent closed
    // degradation window the alert finally landed.
    if (row.degrade_end_at_delivery >= 0.0) {
      recovery.push_back(row.delivered_min - row.degrade_end_at_delivery);
    }
  }
  // Availability is deterministic protocol output, not a trace artifact:
  // timely = delivered minus late ones.
  const auto delivered = static_cast<std::int64_t>(
      static_cast<double>(qos.episodes) *
      (1.0 - qos.probability(QosLevel::kMissed)) +
      0.5);
  timely = delivered - qos.untimely;
  out.availability =
      static_cast<double>(timely) / static_cast<double>(qos.episodes);
  out.mean_latency_min = latency_n > 0 ? latency_sum / latency_n : 0.0;
  out.recovery_samples = static_cast<std::int64_t>(recovery.size());
  out.recovery_p50_min = percentile(recovery, 0.50);
  out.recovery_p99_min = percentile(recovery, 0.99);
  return out;
}

/// The link-layer storm on the analytic single-plane protocol (k = 9,
/// where coordination chains actually relay over crosslinks): a
/// Gilbert–Elliott flapper and an outage train on the plane's own links.
/// This is what drives the EWMA health estimator — drops demote links,
/// the chain layer re-routes, probations escalate — so the I9/I10 gates
/// bite here.
FaultPlan link_storm_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, /*p_rate=*/4.0, /*r_rate=*/2.0,
                              /*loss=*/1.0, Duration::minutes(0.0),
                              Duration::minutes(8.0)));
  plan.add(FaultPlan::outage_train(0, 0, /*up_mean_min=*/1.0,
                                   /*down_mean_min=*/0.5,
                                   Duration::minutes(0.0),
                                   Duration::minutes(8.0)));
  return plan;
}

struct LinkStormNumbers {
  double availability = 0.0;
  std::int64_t violations = 0;
  std::int64_t demoted = 0;
  std::int64_t restored = 0;
  std::int64_t probes = 0;
  std::int64_t reroutes = 0;
  std::int64_t drops = 0;
};

/// Analytic-mode link storm under self-healing links + reliable retries:
/// the health counters come from the run's net.health.* metrics.
LinkStormNumbers run_link_storm(int episodes, const FaultPlan* plan) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 13;
  cfg.jobs = 1;
  cfg.protocol.self_healing_links = true;
  // A faster EWMA than the production default: episodes are short, so the
  // estimator must converge within one storm window to exercise the
  // demote → probe → restore cycle the soak is gating.
  cfg.protocol.link_health_alpha = 0.45;
  cfg.protocol.reliable_links = true;
  cfg.fault_plan = plan;
  cfg.check_invariants = true;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const SimulatedQos qos = simulate_qos(cfg);
  LinkStormNumbers out;
  const std::int64_t delivered = metrics.counter("alerts.delivered");
  const std::int64_t timely = metrics.counter("alerts.timely");
  (void)delivered;
  out.availability =
      static_cast<double>(timely) / static_cast<double>(qos.episodes);
  out.violations = qos.invariant_violations;
  out.demoted = metrics.counter("net.health.demoted");
  out.restored = metrics.counter("net.health.restored");
  out.probes = metrics.counter("net.health.probes");
  out.reroutes = metrics.counter("episodes.reroutes");
  out.drops = metrics.counter("xlink.dropped_loss") +
              metrics.counter("xlink.dropped_link");
  return out;
}

/// Wall seconds of one analytic simulate_qos run (clean-path overhead
/// probe; interleaving is the caller's job).
double analytic_seconds(int episodes, bool self_healing) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.jobs = 1;
  cfg.protocol.self_healing_links = self_healing;
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return elapsed;
}

struct ExpanderNumbers {
  double expansions_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_rounds = 0;
};

/// Repeated expansion rounds of the storm plan through one long-lived
/// expander: the first half warms the internal plan's capacity, the
/// second half must not allocate (the chaos-soak 0-alloc gate).
ExpanderNumbers expansion_hot_path(int rounds, const FaultPlan& plan) {
  FaultProcessExpander expander;
  const Rng rng(42);
  std::uint64_t clause_sink = 0;
  const auto round = [&](int r) {
    const FaultPlan& out =
        expander.expand(plan, rng.fork(static_cast<std::uint64_t>(r) + 1));
    clause_sink += out.size();
  };
  const int warm = rounds / 2;
  for (int r = 0; r < warm; ++r) round(r);

  ExpanderNumbers out;
  const std::uint64_t allocs_before = benchutil::allocation_count();
  const auto t0 = Clock::now();
  for (int r = warm; r < rounds; ++r) round(r);
  const double elapsed = seconds_since(t0);
  out.steady_allocs = benchutil::allocation_count() - allocs_before;
  out.steady_rounds = static_cast<std::uint64_t>(rounds - warm);
  out.expansions_per_sec = static_cast<double>(out.steady_rounds) / elapsed;
  if (clause_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int storm_episodes = argc > 1 ? std::atoi(argv[1]) : 1000;
  const int overhead_episodes = argc > 2 ? std::atoi(argv[2]) : 4096;
  const int rounds = argc > 3 ? std::atoi(argv[3]) : 20000;

  std::cout << "=== chaos soak (" << storm_episodes << " storm episodes, "
            << overhead_episodes << "-episode overhead runs, " << rounds
            << " expansion rounds) ===\n\n";

  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  const FaultPlan storm = storm_plan();

  const SoakNumbers clean = run_soak(c, storm_episodes, /*plan=*/nullptr);
  const SoakNumbers soak = run_soak(c, storm_episodes, &storm);
  const double latency_degradation =
      clean.mean_latency_min > 0.0
          ? soak.mean_latency_min / clean.mean_latency_min - 1.0
          : 0.0;

  const FaultPlan link_storm = link_storm_plan();
  const LinkStormNumbers ls_clean =
      run_link_storm(storm_episodes, /*plan=*/nullptr);
  const LinkStormNumbers ls = run_link_storm(storm_episodes, &link_storm);

  // Untimed warm-up, then the median of interleaved paired ratios.
  (void)analytic_seconds(overhead_episodes, false);
  const benchutil::PairedOverhead health = benchutil::paired_overhead(
      static_cast<double>(overhead_episodes), kMinRunSeconds,
      [&] { return analytic_seconds(overhead_episodes, false); },
      [&] { return analytic_seconds(overhead_episodes, true); });
  const double base_eps = health.off_per_sec;
  const double health_eps = health.on_per_sec;
  const double overhead = health.overhead_pct / 100.0;

  const ExpanderNumbers hot = expansion_hot_path(rounds, storm);

  TablePrinter table({"measure", "clean", "storm"}, 4);
  table.add_row({std::string("availability"), clean.availability,
                 soak.availability});
  table.add_row({std::string("mean alert latency (min)"),
                 clean.mean_latency_min, soak.mean_latency_min});
  table.add_row({std::string("invariant violations"),
                 static_cast<double>(clean.violations),
                 static_cast<double>(soak.violations)});
  table.add_row({std::string("crosslink sends"),
                 static_cast<double>(clean.xlink_sends),
                 static_cast<double>(soak.xlink_sends)});
  table.add_row({std::string("crosslink drops"),
                 static_cast<double>(clean.xlink_drops),
                 static_cast<double>(soak.xlink_drops)});
  table.add_row({std::string("fault activations"),
                 static_cast<double>(clean.faults),
                 static_cast<double>(soak.faults)});
  table.print(std::cout);
  std::cout << "\nlink storm (analytic k=9, self-healing + reliable): "
            << "availability " << ls_clean.availability << " -> "
            << ls.availability << ", " << ls.drops << " drops, "
            << ls.demoted << " demotions, " << ls.restored << " restores, "
            << ls.probes << " probes, " << ls.reroutes << " re-routes, "
            << ls.violations + ls_clean.violations << " violations\n"
            << "recovery after degradation end: p50 "
            << soak.recovery_p50_min << " min, p99 " << soak.recovery_p99_min
            << " min over " << soak.recovery_samples << " samples\n"
            << "alert-latency degradation: " << latency_degradation * 100.0
            << "%\n"
            << "clean-path overhead (health on, no plan): "
            << overhead * 100.0 << "%\n"
            << "expansion hot path: " << hot.expansions_per_sec
            << " expansions/s, " << hot.steady_allocs << " allocs over "
            << hot.steady_rounds << " steady rounds\n"
            << "storm throughput: " << soak.episodes_per_sec
            << " episodes/s\n";

  std::ostringstream json;
  json << "{\"bench\":\"chaos_soak\",\"storm_episodes\":" << storm_episodes
       << ",\"availability\":{\"clean\":" << clean.availability
       << ",\"storm\":" << soak.availability
       << "},\"alert_latency_min\":{\"clean_mean\":" << clean.mean_latency_min
       << ",\"storm_mean\":" << soak.mean_latency_min
       << ",\"degradation_fraction\":" << latency_degradation
       << "},\"recovery_min\":{\"samples\":" << soak.recovery_samples
       << ",\"p50\":" << soak.recovery_p50_min
       << ",\"p99\":" << soak.recovery_p99_min
       << "},\"link_storm\":{\"clean_availability\":" << ls_clean.availability
       << ",\"storm_availability\":" << ls.availability
       << ",\"drops\":" << ls.drops << ",\"demotions\":" << ls.demoted
       << ",\"restores\":" << ls.restored << ",\"probes\":" << ls.probes
       << ",\"reroutes\":" << ls.reroutes
       << "},\"clean_path_overhead\":{\"baseline_episodes_per_sec\":"
       << base_eps << ",\"health_episodes_per_sec\":" << health_eps
       << ",\"overhead_fraction\":" << overhead
       << "},\"expansion_hot_path\":{\"rounds\":" << rounds
       << ",\"expansions_per_sec\":" << hot.expansions_per_sec
       << ",\"steady_state_allocs\":" << hot.steady_allocs
       << "},\"storm_episodes_per_sec\":" << soak.episodes_per_sec
       << ",\"invariant_violations\":"
       << soak.violations + clean.violations + ls.violations +
              ls_clean.violations
       << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates (ISSUE 10): invariants clean under the storm, the
  // idle health path costs <= 5% wall-clock, and stochastic expansion
  // allocates nothing at steady state.
  bool ok = true;
  if (soak.violations + clean.violations + ls.violations +
          ls_clean.violations != 0) {
    std::cout << "REGRESSION: invariant violations under chaos soak\n";
    ok = false;
  }
  if (overhead > 0.05) {
    std::cout << "REGRESSION: clean-path overhead above 5%\n";
    ok = false;
  }
  if (hot.steady_allocs != 0) {
    std::cout << "REGRESSION: stochastic expansion allocated at steady "
                 "state\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
