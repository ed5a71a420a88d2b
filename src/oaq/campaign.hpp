// Multi-target campaign: concurrent signals contending for the
// constellation's computation and coordination resources.
//
// The paper evaluates one signal at a time. In operation, emitters appear
// as a Poisson stream and several coordinations can be in flight at once —
// a satellite asked to join two chains must serialize its geolocation
// computations. Each replication runs all its signals as the targets of
// ONE EpisodeContext run — one simulator, one crosslink network — with a
// FIFO per-satellite compute calendar, and the engine reports the QoS
// distribution as a function of load (bench/ext_load_curve).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/distribution.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "oaq/episode.hpp"
#include "oaq/schedule.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace oaq {

/// Campaign configuration.
struct CampaignConfig {
  PlaneGeometry geometry{};
  int k = 9;                          ///< plane capacity
  ProtocolConfig protocol{};
  Rate signal_arrival_rate = Rate::per_hour(6.0);  ///< Poisson arrivals
  /// Signal-duration law; Exp(0.2/min) when unset.
  std::shared_ptr<const DurationDistribution> duration_distribution;
  Duration horizon = Duration::hours(24);
  bool opportunity_adaptive = true;
  /// Serialize computations per satellite (contention on). When false,
  /// computations overlap freely — the single-target idealization.
  bool compute_contention = true;
  std::uint64_t seed = 1;
  /// Independent campaign replications to aggregate. 1 reproduces the
  /// single-run behaviour for `seed` exactly; > 1 derives one child seed
  /// per replication and merges the results (tighter confidence
  /// intervals without lengthening the simulated horizon).
  int replications = 1;
  /// Worker threads across replications: 0 = auto (OAQ_JOBS env, else
  /// hardware), 1 = serial. Bit-identical results for any value.
  int jobs = 0;

  // --- Geometric mode (optional). When `constellation` is set, the
  // campaign runs against real orbital geometry over `target` instead of
  // the analytic plane. The visibility cache quantum is derived from the
  // horizon, so one Kepler sweep — seeded once, then frozen and shared by
  // all replications — covers every episode window of the run. ---
  const Constellation* constellation = nullptr;
  GeoPoint target{};
  bool earth_rotation = false;

  /// Export `sim.queue.*` DES ready-queue telemetry into `metrics` (off by
  /// default: the golden metrics files predate these keys).
  bool queue_metrics = false;

  // --- Fault injection (ISSUE 5). ---
  /// Scripted degradation clauses replayed once per replication, with
  /// clause times relative to the campaign origin (the replication's
  /// t = 0). Null = no injection. The injector draws from master.fork(6)
  /// — a stream no other campaign consumer forks — so attaching a plan
  /// never perturbs arrivals, durations, or protocol noise.
  const FaultPlan* fault_plan = nullptr;
  /// Audit every episode (and the DES ledger) with the InvariantChecker;
  /// findings surface in CampaignResult::invariant_violations and — with
  /// `metrics` — as the `invariant.violations` counter.
  bool check_invariants = false;

  // --- Observability (all optional; null = disabled). ---
  /// Protocol event streams, one shard per replication. Campaign episodes
  /// share one network, so network-level events carry episode = -1 while
  /// protocol-level events carry the target id.
  TraceCollector* trace = nullptr;
  /// Receives the merged campaign metrics (deterministic; see montecarlo).
  MetricsRegistry* metrics = nullptr;
  /// Per-replication wall-time profile of the replication fan-out.
  ReduceProfile* profile = nullptr;
  /// Receives the hierarchical span tree (one arena per replication plus
  /// the calling thread's seed/freeze/merge work). Structure and counts
  /// are bit-identical for any `jobs` value; only wall_ns varies.
  SpanProfiler* spans = nullptr;
  /// Receives the merged per-target attribution ledger: every final drop,
  /// retry, and fault activation keyed by the owning target id (global row
  /// for episode-less traffic such as campaign-wide fault clauses). Also
  /// enabled implicitly by check_invariants, which audits I7 against it.
  EpisodeLedger* ledger = nullptr;
  /// Stamp xlink_* trace events with the owning target id instead of the
  /// campaign-wide -1. Off by default — the golden campaign trace pins the
  /// -1 bytes; `oaqctl campaign` turns it on so trace-summary can
  /// attribute drops per target.
  bool episode_attribution = false;
};

/// Aggregated campaign outcome (over all replications). Counters are
/// 64-bit so replicated campaigns cannot overflow.
struct CampaignResult {
  std::int64_t signals = 0;
  DiscretePmf levels;
  std::int64_t delivered = 0;
  std::int64_t untimely = 0;
  std::int64_t duplicates = 0;
  int replications = 1;
  /// Detection → first alert, minutes, over delivered alerts; `.mean()` is
  /// the headline latency, `.ci95_halfwidth()` its confidence interval.
  RunningStat latency_min;
  double mean_latency_min = 0.0;      ///< == latency_min.mean()
  std::int64_t contended_computations = 0;  ///< reservations that queued
  double mean_queueing_delay_s = 0.0; ///< over contended reservations
  /// Invariant-checker findings (0 unless check_invariants was set).
  std::int64_t invariant_violations = 0;
  std::vector<std::string> invariant_samples;  ///< capped descriptions
  /// Stochastic fault clauses cut short at the expander's interval cap,
  /// summed over replications: the run saw less fault activity than planned.
  std::int64_t fault_truncations = 0;

  [[nodiscard]] double probability(QosLevel level) const {
    return levels.probability(to_int(level));
  }
  [[nodiscard]] double tail(QosLevel level) const {
    return levels.tail_probability(to_int(level));
  }
};

/// Run a campaign: Poisson signal arrivals over `horizon`, every episode
/// in one shared simulation.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace oaq
