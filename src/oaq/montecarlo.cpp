#include "oaq/montecarlo.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "obs/ledger.hpp"
#include "oaq/schedule.hpp"

namespace oaq {
namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  OAQ_REQUIRE(!__builtin_add_overflow(a, b, &out),
              "episode statistics counter overflow");
  return out;
}

/// Private per-shard tallies of the episode loop: the SimulatedQos fields
/// and the inputs of the oaq-metrics-v3 keys. Merging in shard order is
/// exact: counters and pmf weights are integral, and every RunningStat
/// folds its shards left to right with the Chan combination, the order a
/// serial run would observe.
struct EpisodeAccum {
  DiscretePmf level_pmf;
  std::int64_t delivered = 0;
  std::int64_t duplicates = 0;
  std::int64_t unresolved = 0;
  std::int64_t untimely = 0;
  std::int64_t alerts_sent = 0;
  std::int64_t coordination_requests = 0;
  std::int64_t chain_sum = 0;
  std::int64_t fault_truncations = 0;
  RunningStat chain_length;       ///< over detected episodes
  RunningStat reported_error_km;  ///< over detected episodes
  TelemetryTally telemetry;
  InvariantChecker invariants;  ///< shard-local; idle when checks are off
  EpisodeLedger ledger;  ///< shard-local; untouched when no sink is attached

  /// Fold one episode in, in episode order.
  void add(const EpisodeResult& r) {
    level_pmf.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
    if (r.alert_delivered) {
      ++delivered;
      if (!r.timely) ++untimely;
    }
    if (r.alerts_sent > 1) ++duplicates;
    if (!r.all_participants_resolved) ++unresolved;
    alerts_sent = checked_add(alerts_sent, r.alerts_sent);
    coordination_requests =
        checked_add(coordination_requests, r.coordination_requests);
    if (r.detected) {
      chain_sum = checked_add(chain_sum, r.chain_length);
      chain_length.add(static_cast<double>(r.chain_length));
      reported_error_km.add(r.reported_error_km);
    }
    fault_truncations = checked_add(
        fault_truncations,
        static_cast<std::int64_t>(r.telemetry.fault_truncations));
    telemetry.add(r.telemetry);
  }

  void merge(EpisodeAccum&& other) {
    level_pmf.merge(other.level_pmf);
    delivered = checked_add(delivered, other.delivered);
    duplicates = checked_add(duplicates, other.duplicates);
    unresolved = checked_add(unresolved, other.unresolved);
    untimely = checked_add(untimely, other.untimely);
    alerts_sent = checked_add(alerts_sent, other.alerts_sent);
    coordination_requests =
        checked_add(coordination_requests, other.coordination_requests);
    chain_sum = checked_add(chain_sum, other.chain_sum);
    fault_truncations =
        checked_add(fault_truncations, other.fault_truncations);
    chain_length.merge(other.chain_length);
    reported_error_km.merge(other.reported_error_km);
    telemetry.merge(other.telemetry);
    invariants.merge(other.invariants);
    ledger.merge(other.ledger);
  }
};

/// simulate_qos's oaq-metrics-v3 key set (tools/README.md), written once
/// from the merged shards: the outcome keys, then the shared families.
MetricsRegistry simulate_metrics(const EpisodeAccum& a,
                                 std::int64_t episodes,
                                 std::size_t cache_entries) {
  MetricsRegistry m;
  m.add("episodes", episodes);
  m.add("episodes.detected",
        static_cast<std::int64_t>(a.chain_length.count()));
  m.add("episodes.unresolved", a.unresolved);
  m.add("alerts.delivered", a.delivered);
  m.add("alerts.timely", a.delivered - a.untimely);
  m.add("alerts.untimely", a.untimely);
  m.add("alerts.duplicate_episodes", a.duplicates);
  m.add("alerts.sent", a.alerts_sent);
  m.add("coordination.requests", a.coordination_requests);
  m.observe("chain.length", a.chain_length);
  m.observe("alerts.reported_error_km", a.reported_error_km);
  write_shared_metrics(m, a.telemetry, cache_entries,
                       a.invariants.violations());
  return m;
}

}  // namespace

SimulatedQos simulate_qos(const QosSimulationConfig& config) {
  OAQ_REQUIRE(config.k > 0, "need at least one satellite");
  OAQ_REQUIRE(config.episodes > 0, "need at least one episode");
  OAQ_REQUIRE(config.mu > Rate::zero(), "termination rate must be positive");

  const Rng master(config.seed);
  const Rng episode_rng = master.fork(3);
  const std::shared_ptr<const DurationDistribution> duration_law =
      config.duration_distribution
          ? config.duration_distribution
          : std::make_shared<ExponentialDuration>(config.mu);

  // Fixed signal start well inside the horizon; the pass-pattern phase is
  // randomized instead (equivalent by stationarity).
  const TimePoint signal_start = TimePoint::at(kSignalStart);

  // Tracing: one ring buffer per shard, sized up front. A shard's stream
  // depends only on its episode indices (episodes within a shard run
  // sequentially), so the shard-order JSONL export is bit-identical for
  // any jobs value.
  const int n_shards = static_cast<int>(std::min<std::int64_t>(
      kQosEpisodeShards, config.episodes));  // parallel_reduce's own clamp
  if (config.trace != nullptr) config.trace->prepare(n_shards);

  // Span profiling mirrors the trace layout: one arena per shard plus the
  // main arena for the calling thread's work (seed/freeze, merge). The
  // root span brackets the whole experiment.
  if (config.spans != nullptr) config.spans->prepare(n_shards);
  SpanArena* main_spans =
      config.spans != nullptr ? config.spans->main_arena() : nullptr;
  const ScopedSpan root_span(main_spans, "simulate_qos");

  // Every random stream an episode consumes (phase, duration, protocol
  // noise) derives from episode_rng.fork(e): episode e's outcome does not
  // depend on which shard — or thread — runs it, making the reduction
  // bit-identical for any jobs value. In geometric mode the schedule is
  // shard-shared (backed by the run's frozen visibility cache) and the
  // phase jitters the episode's start time instead of the pass pattern.
  const bool geometric = config.constellation != nullptr;
  // Geometric runs answer every episode's pass query from one pass table:
  // its window covers every episode window (the phase jitters starts over
  // one longest-shell period), it is seeded ONCE before the shards start
  // (its planes swept on the run's executors into a jobs-independent
  // table), frozen, and then read lock-free by every shard. Clipped table
  // values are pure functions of the query, so results are bit-identical
  // at any jobs.
  std::optional<RunPassTable> table;
  if (geometric) {
    table.emplace(*config.constellation, config.earth_rotation, config.target,
                  visibility_quantum(kSignalStart +
                                         config.constellation->max_period(),
                                     config.protocol.tau),
                  main_spans);
  }

  EpisodeAccum total = parallel_reduce<EpisodeAccum>(
      config.episodes, n_shards, config.jobs,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        EpisodeAccum acc;
        ShardTraceBuffer* trace =
            config.trace != nullptr ? config.trace->shard(shard) : nullptr;
        SpanArena* spans = config.spans != nullptr
                               ? config.spans->shard_arena(shard)
                               : nullptr;
        const ScopedSpan shard_span(spans, "shard");
        InvariantChecker* invariants =
            config.check_invariants ? &acc.invariants : nullptr;
        EpisodeLedger* ledger =
            config.ledger != nullptr ? &acc.ledger : nullptr;
        // Per-shard schedule. Geometric shards read the frozen table, with
        // shard-local stats (query accounting is per-shard deterministic);
        // analytic shards re-phase one plane per episode.
        VisibilityCacheStats vis_stats;
        std::optional<GeometricSchedule> geo_schedule;
        AnalyticSchedule analytic(config.geometry, config.k, Duration::zero());
        const CoverageSchedule& schedule =
            geometric ? static_cast<const CoverageSchedule&>(
                            geo_schedule.emplace(table->cache, &vis_stats))
                      : analytic;
        // The phase is uniform over one period: analytic episodes re-phase
        // the plane by it (revisit time Tr); geometric episodes jitter their
        // start by it over the longest shell period, so every shell's pass
        // pattern is phase-randomized.
        const Duration phase_span = geometric
                                        ? config.constellation->max_period()
                                        : config.geometry.tr(config.k);
        // One "episodes" span per shard, items = episode count: per-episode
        // spans would cost two clock reads each (the span_overhead gate).
        {
          const ScopedSpan episodes_span(spans, "episodes");
          if (spans != nullptr) spans->add_items(end - begin);
          // One reused episode context per shard, constructed on the
          // shard's own thread (first touch keeps its arena local).
          EpisodeContext context(schedule, config.protocol,
                                 config.opportunity_adaptive,
                                 config.fault_plan);
          for (std::int64_t e = begin; e < end; ++e) {
            const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
            Rng phase_rng = ep.fork(1);
            Rng duration_rng = ep.fork(2);
            const Duration phase =
                phase_rng.uniform(Duration::zero(), phase_span);
            const Duration duration = duration_law->sample(duration_rng);
            TimePoint start = signal_start;
            if (geometric) {
              start = signal_start + phase;
            } else {
              analytic = AnalyticSchedule(config.geometry, config.k, phase);
            }
            acc.add(context.run(e, ep.fork(3), start, duration, trace,
                                invariants, ledger));
          }
        }
        acc.telemetry.visibility = vis_stats;
        return acc;
      },
      [main_spans](EpisodeAccum& into, EpisodeAccum&& from) {
        // Runs on the calling thread in both the inline and pooled paths,
        // exactly n_shards - 1 times — the span count is jobs-independent.
        const ScopedSpan span(main_spans, "merge");
        into.merge(std::move(from));
      },
      config.profile, table ? &table->hook : nullptr);

  if (config.metrics != nullptr) {
    *config.metrics = simulate_metrics(
        total, config.episodes, table ? table->cache.frozen_entries() : 0);
  }
  if (config.ledger != nullptr) {
    // Quiet top episode ids leave shard ledgers short; size the merged
    // ledger to the run so row(e) is valid for every episode.
    total.ledger.reserve(static_cast<std::size_t>(config.episodes));
    *config.ledger = std::move(total.ledger);
  }

  SimulatedQos out;
  out.episodes = config.episodes;
  out.level_pmf = std::move(total.level_pmf);
  out.duplicates = total.duplicates;
  out.unresolved = total.unresolved;
  out.untimely = total.untimely;
  out.max_chain_length = static_cast<int>(total.chain_length.max());
  out.invariant_violations =
      static_cast<std::int64_t>(total.invariants.violations());
  out.invariant_samples = total.invariants.samples();
  out.fault_truncations = total.fault_truncations;
  out.mean_chain_length =
      total.chain_length.count() > 0
          ? static_cast<double>(total.chain_sum) /
                static_cast<double>(total.chain_length.count())
          : 0.0;
  return out;
}

}  // namespace oaq
