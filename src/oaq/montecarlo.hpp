// Monte-Carlo QoS estimation: many signal episodes against one plane.
//
// Reproduces P(Y = y | k) by simulation of the actual protocol — the
// cross-validation counterpart of the closed-form model in src/analytic
// (DESIGN.md experiment E10).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytic/geometry.hpp"
#include "common/distribution.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "oaq/episode.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace oaq {

class EpisodeLedger;  // src/obs/ledger.hpp

/// Episode-count shard target of simulate_qos: enough shards for good load
/// balance at any realistic worker count, few enough that per-shard setup
/// is negligible. Fixed (never derived from the worker count) so the merge
/// tree — and the per-shard trace streams — are identical for all `jobs`.
inline constexpr int kQosEpisodeShards = 64;

/// Configuration of a Monte-Carlo QoS experiment.
struct QosSimulationConfig {
  PlaneGeometry geometry{};        ///< θ, Tc
  int k = 12;                      ///< active satellites in the plane
  ProtocolConfig protocol{};       ///< τ, δ, Tg, ν, TC-1 threshold, variant
  Rate mu = Rate::per_minute(0.5); ///< signal termination rate
  /// Overrides the Exp(µ) signal-duration law when set (sensitivity runs).
  std::shared_ptr<const DurationDistribution> duration_distribution;
  bool opportunity_adaptive = true;  ///< OAQ (true) or BAQ (false)
  int episodes = 20000;
  std::uint64_t seed = 1;
  /// Worker threads for the episode loop: 0 = auto (OAQ_JOBS env, else
  /// hardware concurrency), 1 = serial. Results are bit-identical for any
  /// value — episodes derive their random streams per-index.
  int jobs = 0;

  // --- Geometric mode (optional). When `constellation` is set, episodes
  // run against real orbital geometry (GeometricSchedule over `target`)
  // instead of the analytic timing diagram; `geometry`/`k` no longer
  // shape the pass pattern. One pass table (RunPassTable over
  // [0, visibility_quantum()]) is seeded before the shards fan out and
  // read frozen by all of them, so the Kepler-heavy pass extraction runs
  // once per run — and results stay bit-identical for any `jobs` value
  // because clipped table values are pure functions of the query. Episode
  // start times are jittered uniformly over one orbital period (the PASTA
  // phase randomization of the analytic mode). ---
  const Constellation* constellation = nullptr;
  GeoPoint target{};
  bool earth_rotation = false;

  /// Inert: nothing reads them. `queue_metrics` gated the retired
  /// `sim.queue.*` keys; `batch_metrics` exported the retired batch
  /// engine's occupancy counters. They stay only because the end-to-end
  /// benchmark (e2ebench/e2ebench.cpp) still assigns them; delete them
  /// with those assignments in the next e2ebench change.
  bool queue_metrics = false;
  bool batch_metrics = false;

  // --- Fault injection (ISSUE 5). ---
  /// Scripted degradation clauses replayed inside every episode (times
  /// relative to the signal start). Null = no injection. The injector
  /// draws from a dedicated per-episode fork, so attaching a plan never
  /// perturbs the protocol streams — QoS changes are caused by the
  /// faults, not by reshuffled randomness.
  const FaultPlan* fault_plan = nullptr;
  /// Run the InvariantChecker over every episode (I1–I8, see
  /// src/fault/invariants.hpp); violations surface in
  /// SimulatedQos::invariant_violations and in the `invariant.violations`
  /// counter (0 when checks are off).
  bool check_invariants = false;

  // --- Observability (all optional; null = disabled, zero overhead
  // beyond one branch per recording site). ---
  /// Collects per-episode protocol events into per-shard ring buffers.
  /// The JSONL export is bit-identical for any `jobs` value: a shard's
  /// stream depends only on its episode indices, and shards are exported
  /// in shard order.
  TraceCollector* trace = nullptr;
  /// Receives the run's oaq-metrics-v3 key set (tools/README.md), written
  /// once from the merged result: every key present whatever the flags,
  /// every value deterministic for any `jobs`.
  MetricsRegistry* metrics = nullptr;
  /// Receives per-shard wall-time / queue-wait / merge profiling of the
  /// episode reduction. Purely observational — never affects results.
  ReduceProfile* profile = nullptr;
  /// Receives the hierarchical span tree of the run (src/obs/span.hpp):
  /// seed/freeze, one `episodes` span per shard, merge. The tree's
  /// structure, counts, and item tallies are bit-identical for any `jobs`
  /// value — only wall_ns varies. Exported as Chrome trace-event JSON by
  /// oaqctl --spans.
  SpanProfiler* spans = nullptr;
  /// Receives the merged per-episode attribution ledger: every final
  /// drop, retry, and fault activation keyed by episode id, in analytic
  /// and geometric mode alike. Rows are additive counters folded
  /// shard-wise in shard order, so the ledger bytes are identical for any
  /// jobs value.
  EpisodeLedger* ledger = nullptr;
};

/// Aggregated outcome of a Monte-Carlo QoS experiment. Counters are 64-bit
/// so shard merges and long campaigns cannot overflow a narrow `long`.
struct SimulatedQos {
  DiscretePmf level_pmf;        ///< episode counts per QoS level
  std::int64_t episodes = 0;
  std::int64_t duplicates = 0;  ///< episodes with more than one alert
  std::int64_t unresolved = 0;  ///< episodes leaving a participant hanging
  std::int64_t untimely = 0;    ///< alerts sent after the deadline
  double mean_chain_length = 0.0;  ///< over detected episodes
  int max_chain_length = 0;
  /// Invariant-checker findings (0 unless check_invariants was set).
  std::int64_t invariant_violations = 0;
  std::vector<std::string> invariant_samples;  ///< capped descriptions
  /// Stochastic fault clauses cut short at the expander's interval cap,
  /// summed over episodes: the run saw less fault activity than planned.
  std::int64_t fault_truncations = 0;

  [[nodiscard]] double probability(QosLevel level) const {
    return level_pmf.probability(to_int(level));
  }
  [[nodiscard]] double tail(QosLevel level) const {
    return level_pmf.tail_probability(to_int(level));
  }
};

/// Run the experiment. Signal phases are uniform over the revisit period
/// (PASTA); durations are Exp(µ).
[[nodiscard]] SimulatedQos simulate_qos(const QosSimulationConfig& config);

}  // namespace oaq
