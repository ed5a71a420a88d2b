// One signal episode under the OAQ or BAQ scheme (paper §3.2).
//
// The engine wires per-satellite protocol agents over the DES kernel and
// crosslink network and plays out a single signal:
//
//   detection → (simultaneous coverage? → level-3 attempt)
//             → OAQ overlap: withhold, wait for the next overlap window
//             → OAQ underlap: coordination chain S1 → S2 → ... with
//               termination conditions
//                 TC-1  estimated error below threshold,
//                 TC-2  getTime() − t0 > τ − (n·δ + Tg),
//                 TC-3  signal stops (detected by a requested peer whose
//                       footprint finds no signal),
//               "coordination done" propagation downstream, and per-member
//               wait deadlines τ − (n−1)·δ that guarantee a timely alert
//               even when an upstream peer goes fail-silent (Fig. 4)
//             → BAQ: deliver after the initial computation, no coordination.
//
// Two messaging variants (§3.2 last paragraph):
//   * backward messaging (default): done-notifications propagate down the
//     chain; the wait deadline guarantees delivery under fail-silence;
//   * forward responsibility: the requested peer is responsible for
//     forwarding its predecessor's result if it cannot compute — cheaper,
//     but an alert is lost if that peer goes fail-silent.
#pragma once

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/injector.hpp"
#include "geoloc/accuracy.hpp"
#include "net/crosslink.hpp"
#include "oaq/messages.hpp"
#include "oaq/schedule.hpp"
#include "sim/simulator.hpp"

namespace oaq {

class MetricsRegistry;  // src/obs/metrics.hpp

/// Protocol parameters.
struct ProtocolConfig {
  Duration tau = Duration::minutes(5);    ///< alert deadline τ (from t0)
  Duration delta = Duration::seconds(12); ///< max inter-satellite delay δ
  Duration tg = Duration::seconds(6);     ///< max initial computation time Tg
  Rate nu = Rate::per_minute(30.0);       ///< iterative computation rate ν
  /// Cap on a single iterative computation (the paper's bounded-Tg
  /// assumption behind the TC-2 guarantee). Infinite = pure Exp(ν), the
  /// analytic model's assumption.
  Duration computation_cap = Duration::infinity();
  /// TC-1 threshold; <= 0 disables early termination on accuracy.
  double error_threshold_km = 0.0;
  /// Crosslink message-loss probability (downlink alerts are exempt).
  /// The backward-messaging guarantee keeps delivery at-least-once under
  /// loss; lost "done" notifications surface as duplicate alerts.
  double crosslink_loss_probability = 0.0;
  bool backward_messaging = true;  ///< false = forward-responsibility variant
  /// Reliable crosslinks: failed sends are retried with exponential
  /// backoff (ack-timeout 2δ·base^i after attempt i), at most
  /// `link_retry_limit` times. The protocol's deadline math then uses
  /// effective_delta() in place of δ so the TC-2 margin and wait deadlines
  /// absorb the worst-case retry latency.
  bool reliable_links = false;
  int link_retry_limit = 2;
  double link_backoff_base = 2.0;
  /// Self-healing crosslinks (ISSUE 10): a per-plane-pair EWMA health
  /// estimator demotes flapping links; the chain layer avoids demoted
  /// links for new coordination requests until a deterministic probation
  /// (escalating per consecutive demotion, capped by τ so probes stay
  /// τ-feasible) elapses. Off by default — the health path is entirely
  /// branch-gated in CrosslinkNetwork.
  bool self_healing_links = false;
  double link_health_alpha = 0.2;
  double link_demote_below = 0.5;
  double link_restore_above = 0.7;
  Duration link_probation = Duration::seconds(60);
  double link_probation_backoff = 2.0;
  AccuracyModel accuracy{};

  /// Worst-case delivery delay of one logical message: δ when links are
  /// best-effort; with R retries the failed attempts cost their ack
  /// timeouts 2δ·base^i before the final flight's δ, so
  ///   δ_eff = 2δ·(base^R − 1)/(base − 1) + δ   (base > 1)
  ///   δ_eff = 2δ·R + δ                         (base = 1).
  [[nodiscard]] Duration effective_delta() const {
    if (!reliable_links || link_retry_limit == 0) return delta;
    const auto r = static_cast<double>(link_retry_limit);
    const double base = link_backoff_base;
    const double timeouts =
        base > 1.0 ? (std::pow(base, r) - 1.0) / (base - 1.0) : r;
    return 2.0 * timeouts * delta + delta;
  }
};

/// Infrastructure-level telemetry of one EpisodeContext run (one simulate
/// episode, or every target of one campaign replication), filled by
/// EpisodeContext::drain from the network, injector and DES kernel
/// counters — the raw material of TelemetryTally.
struct EpisodeTelemetry {
  std::uint64_t messages_sent = 0;       ///< crosslink + downlink sends
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped_loss = 0;
  std::uint64_t messages_dropped_dead = 0;  ///< dead sender/receiver/unknown
  std::uint64_t messages_dropped_link = 0;  ///< outage / partition windows
  std::uint64_t retries = 0;                ///< reliable-mode retransmissions
  std::uint64_t retries_exhausted = 0;      ///< drops after >= 1 retry
  std::uint64_t faults_injected = 0;        ///< FaultInjector activations
  std::uint64_t fault_truncations = 0;  ///< clauses cut at the interval cap
  std::uint64_t sim_events = 0;             ///< DES events processed
  std::uint64_t sim_peak_pending = 0;       ///< DES queue-depth high water
  // Link-health + stochastic-fault telemetry (ISSUE 10; all zero unless
  // self-healing links or stochastic clauses are in play).
  std::uint64_t links_demoted = 0;       ///< healthy → demoted transitions
  std::uint64_t links_restored = 0;      ///< demoted → healthy transitions
  std::uint64_t links_demoted_end = 0;   ///< still demoted at episode end
  std::uint64_t link_probes = 0;         ///< attempts over demoted links
  std::uint64_t link_probations = 0;     ///< demotions + escalations
  std::uint64_t reroutes = 0;            ///< health-aware chain re-routes
  std::uint64_t lifecycle_deaths = 0;    ///< sat_lifecycle deaths fired
  std::uint64_t lifecycle_spares = 0;    ///< sat_lifecycle spares fired
  std::uint64_t degradation_active_end = 0;  ///< windowed degradation left

  friend bool operator==(const EpisodeTelemetry&,
                         const EpisodeTelemetry&) = default;
};

/// Run-wide tally of EpisodeTelemetry plus pass-table query accounting:
/// the link, kernel, fault, health and visibility families that simulate
/// and campaign share in oaq-metrics-v3 (tools/README.md). Each counter
/// sums one telemetry field; the pending-event high-water mark is observed
/// as a stat, one value per simulate episode or campaign replication,
/// because a sum of peaks means nothing. Shard tallies folded in shard
/// order give the serial observation exactly.
struct TelemetryTally {
  static constexpr std::size_t kCounters = 16;
  std::array<std::uint64_t, kCounters> counters{};
  RunningStat peak_pending;  ///< sim.peak_pending
  VisibilityCacheStats visibility;  ///< geometric runs' pass queries

  void add(const EpisodeTelemetry& t);
  void merge(const TelemetryTally& other);
};

/// Write the families every engine shares, once per run after the reduce:
/// the tally's counters and stats, visibility.* (with the run's frozen
/// pass-table size; 0 in analytic mode) and invariant.violations (0 when
/// checks are off). Every key is written whatever the flags or the data.
void write_shared_metrics(MetricsRegistry& m, const TelemetryTally& tally,
                          std::size_t cache_entries,
                          std::uint64_t invariant_violations);

/// What happened in one episode.
struct EpisodeResult {
  QosLevel level = QosLevel::kMissed;  ///< level of the first alert
  bool alert_delivered = false;
  bool timely = false;          ///< first alert sent by t0 + τ
  int alerts_sent = 0;          ///< >1 indicates a duplicate
  int chain_length = 0;         ///< satellites that contributed measurements
  /// Chain members in join order (detector first). For a target near a
  /// plane-crossing, members can come from different planes — the paper's
  /// footnote 3 notes the algorithm does not require a single plane.
  std::vector<SatelliteId> participants;
  int coordination_requests = 0;
  bool detected = false;
  TimePoint detection{};        ///< t0 (valid when detected)
  TimePoint first_alert_sent{};
  double reported_error_km = 0.0;
  /// Every chain participant either delivered, received "done", or timed
  /// out by its local deadline — nobody is left waiting (§3.2).
  bool all_participants_resolved = true;
  // Termination accounting for the InvariantChecker: every recorded
  // term_* cause counts one termination; a finish() on an agent that was
  // already resolved counts a double (a protocol bug the checker flags);
  // wait-deadline rescues explain duplicate alerts.
  int terminations = 0;
  int double_terminations = 0;
  int wait_rescues = 0;
  /// Health-aware chain re-routes: resends that skipped at least one
  /// avoided (demoted) relay. Bounded by horizon_passes × participants
  /// (invariant I9 — no routing livelock).
  int reroutes = 0;
  /// Passes in the episode's coverage horizon (the re-route search space).
  int horizon_passes = 0;
  EpisodeTelemetry telemetry;

  friend bool operator==(const EpisodeResult&, const EpisodeResult&) = default;
};

class InvariantChecker;  // src/fault/invariants.hpp
class EpisodeLedger;     // src/obs/ledger.hpp

/// FIFO single-server computation calendar per satellite: concurrent
/// coordinations contend for a satellite's single signal-processing chain.
class ComputeCalendar {
 public:
  /// Reserve the satellite's processor for `work` starting no earlier than
  /// `ready`; returns the completion time. FIFO in reservation order.
  TimePoint schedule(SatelliteId sat, TimePoint ready, Duration work);

  [[nodiscard]] int contended_reservations() const { return contended_; }
  [[nodiscard]] Duration total_queueing_delay() const { return queueing_; }

 private:
  std::map<SatelliteId, TimePoint> free_at_;
  int contended_ = 0;
  Duration queueing_ = Duration::zero();
};

/// The one episode lifecycle (DESIGN.md §15): reset → arm → drain →
/// collect over a Simulator, CrosslinkNetwork, optional FaultInjector and
/// the per-target protocol state machines that the context owns and reuses
/// across runs, bound to any CoverageSchedule. A run hosts one target (a
/// simulate episode, run()) or every admitted signal of a campaign
/// replication; its targets share the network and drain together.
///
/// Handlers are registered lazily: each horizon satellite is registered
/// the first time an armed target's horizon contains it, stays registered
/// across resets, and routes to every armed target (each filters by target
/// id). No protocol message ever targets a satellite outside its own
/// target's horizon, so registrations left over from earlier runs are
/// unreachable, and a reused context is observationally identical to a
/// fresh one. Once every satellite of the schedule
/// (CoverageSchedule::satellite_count) is registered, arming skips the
/// horizon scan.
class EpisodeContext {
 public:
  /// All referenced objects must outlive the context. `plan` (nullable; an
  /// empty plan is treated as none), `known_failed` (nullable = no
  /// membership view; the chain skips these satellites' passes) and
  /// `calendar` (nullable = uncontended computations) hold for every run.
  /// The plan is the only fault input (a fail-silent peer is a
  /// FaultPlan::fail_silent clause). Throws PreconditionError unless
  /// τ > 0, δ ≥ 0, Tg ≥ 0 and ν > 0.
  EpisodeContext(const CoverageSchedule& schedule, const ProtocolConfig& cfg,
                 bool opportunity_adaptive, const FaultPlan* plan = nullptr,
                 const std::set<SatelliteId>* known_failed = nullptr,
                 ComputeCalendar* calendar = nullptr);
  ~EpisodeContext();

  EpisodeContext(const EpisodeContext&) = delete;
  EpisodeContext& operator=(const EpisodeContext&) = delete;

  /// The per-caller values of one run (simulate / campaign, DESIGN §15).
  struct RunInputs {
    /// Stamps injector events and their ledger records, and is the episode
    /// of episode-less network traffic (e / -1); other xlink_* events and
    /// network ledger records carry their envelope's target id.
    std::int64_t trace_episode = -1;
    Rng net_rng;    ///< protocol stream's fork(0x6e6574) / master.fork(3)
    Rng fault_rng;  ///< protocol stream's fork(0x666c74) / master.fork(6)
    ShardTraceBuffer* trace = nullptr;
    EpisodeLedger* ledger = nullptr;
  };

  /// Start a run with no target armed. The previous run must have drained.
  void reset(const RunInputs& inputs);

  /// Arm one more target on its own protocol stream, which the context
  /// holds at a stable address: locate t0, schedule the detection, and
  /// register newly seen horizon satellites. False when the signal escapes
  /// surveillance: nothing was scheduled and the target is not armed.
  bool arm_target(int target_id, const Rng& stream, TimePoint signal_start,
                  Duration signal_duration);

  /// Build and arm the plan's injector on the run's fault stream at
  /// `anchor` (no-op without a plan), after the last target's arm.
  void arm_faults(TimePoint anchor);

  /// Run the armed targets to completion ((targets + 1) × 100 000-event
  /// safety valve), resolve their participants, and fill telemetry().
  void drain();

  [[nodiscard]] const EpisodeTelemetry& telemetry() const {
    return telemetry_;
  }
  /// Armed targets of the run, in arm order.
  [[nodiscard]] int armed_targets() const { return armed_; }
  [[nodiscard]] const EpisodeResult& target_result(int i) const;
  [[nodiscard]] int target_id(int i) const;

  /// Satellite handlers registered so far (they survive reset()).
  [[nodiscard]] int registered_satellites() const {
    return registered_satellites_;
  }

  /// Audit the kernel's event balance under the run's trace episode.
  void audit_kernel(InvariantChecker& invariants) const;

  /// One simulate episode: reset → arm its target on the `protocol`
  /// stream → arm the plan's injector at `signal_start` → drain → collect
  /// the result with the run's telemetry, audited with `invariants`
  /// (nullable). An escaped episode returns its default result without
  /// telemetry or audit. A fresh context run once is the scalar oracle of
  /// every reused one. The reference is valid until the next run.
  const EpisodeResult& run(
      std::int64_t episode_id, const Rng& protocol,
      TimePoint signal_start, Duration signal_duration,
      ShardTraceBuffer* trace = nullptr, InvariantChecker* invariants = nullptr,
      EpisodeLedger* ledger = nullptr);

 private:
  struct Target;  ///< a protocol stream and the state machine drawing on it

  const CoverageSchedule* schedule_;
  ProtocolConfig cfg_;
  bool oaq_;
  const FaultPlan* plan_;  ///< normalized: null when absent or empty
  const std::set<SatelliteId>* known_failed_;
  ComputeCalendar* calendar_;
  RunInputs inputs_;
  Simulator sim_;
  CrosslinkNetwork net_;
  /// Target slots; the first armed_ form the run. Grown on demand, reused
  /// across runs, at stable addresses.
  std::vector<std::unique_ptr<Target>> targets_;
  int armed_ = 0;
  int registered_satellites_ = 0;
  /// Reused stochastic-clause expander: repeated arms allocate nothing.
  FaultProcessExpander expander_;
  std::optional<FaultInjector> injector_;
  EpisodeTelemetry telemetry_;
  /// Copy target of run(); the participants capacity survives, so
  /// steady-state episodes retire without allocating.
  EpisodeResult result_;
};

}  // namespace oaq
