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
#include "oaq/batch_episode.hpp"
#include "oaq/schedule.hpp"

namespace oaq {
namespace {

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  OAQ_REQUIRE(!__builtin_add_overflow(a, b, &out),
              "episode statistics counter overflow");
  return out;
}

/// Private per-shard tallies; merging in shard order is exact because every
/// field is integral (DiscretePmf weights are integer-valued doubles) and
/// MetricsRegistry merges counters integrally / stats via the same
/// left-to-right Chan fold as RunningStat.
struct EpisodeAccum {
  DiscretePmf level_pmf;
  std::int64_t duplicates = 0;
  std::int64_t unresolved = 0;
  std::int64_t untimely = 0;
  std::int64_t detected = 0;
  std::int64_t chain_sum = 0;
  int max_chain_length = 0;
  std::int64_t fault_truncations = 0;
  MetricsRegistry metrics;  ///< shard-local; empty when metrics are off
  InvariantChecker invariants;  ///< shard-local; idle when checks are off
  EpisodeLedger ledger;  ///< shard-local; untouched when no sink is attached

  void merge(EpisodeAccum&& other) {
    level_pmf.merge(other.level_pmf);
    duplicates = checked_add(duplicates, other.duplicates);
    unresolved = checked_add(unresolved, other.unresolved);
    untimely = checked_add(untimely, other.untimely);
    detected = checked_add(detected, other.detected);
    chain_sum = checked_add(chain_sum, other.chain_sum);
    max_chain_length = std::max(max_chain_length, other.max_chain_length);
    fault_truncations =
        checked_add(fault_truncations, other.fault_truncations);
    metrics.merge(other.metrics);
    invariants.merge(other.invariants);
    ledger.merge(other.ledger);
  }
};

/// Record one episode's outcome keys into a shard-local registry (its link
/// and kernel keys come from record_link_metrics). Every value derives
/// from the episode result (simulation time), so the merged registry is
/// deterministic for any worker count.
void record_episode_metrics(MetricsRegistry& m, const EpisodeResult& r) {
  m.add("episodes", 1);
  if (r.detected) m.add("episodes.detected", 1);
  if (r.alert_delivered) m.add("alerts.delivered", 1);
  if (r.alert_delivered && r.timely) m.add("alerts.timely", 1);
  if (r.alert_delivered && !r.timely) m.add("alerts.untimely", 1);
  if (r.alerts_sent > 1) m.add("alerts.duplicate_episodes", 1);
  if (!r.all_participants_resolved) m.add("episodes.unresolved", 1);
  m.add("alerts.sent", r.alerts_sent);
  m.add("coordination.requests", r.coordination_requests);
  if (r.detected) {
    m.observe("chain.length", static_cast<double>(r.chain_length));
    m.observe("alerts.reported_error_km", r.reported_error_km);
  }
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
  const bool want_metrics = config.metrics != nullptr;

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
  // Shared by the batch engine's sink and the geometric loop, so both
  // fold results — and observe metrics — in episode order.
  const auto accumulate = [&](EpisodeAccum& acc, const EpisodeResult& r) {
    acc.level_pmf.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
    if (r.alerts_sent > 1) ++acc.duplicates;
    if (!r.all_participants_resolved) ++acc.unresolved;
    if (r.alert_delivered && !r.timely) ++acc.untimely;
    if (r.detected) {
      ++acc.detected;
      acc.chain_sum = checked_add(acc.chain_sum, r.chain_length);
      acc.max_chain_length = std::max(acc.max_chain_length, r.chain_length);
    }
    acc.fault_truncations = checked_add(
        acc.fault_truncations,
        static_cast<std::int64_t>(r.telemetry.fault_truncations));
    if (want_metrics) {
      record_episode_metrics(acc.metrics, r);
      record_link_metrics(acc.metrics, r.telemetry, config.protocol,
                          config.fault_plan, config.queue_metrics);
    }
  };

  // Geometric runs answer every episode's pass query from one pass table:
  // its window covers every episode window (the phase jitters starts over
  // one longest-shell period), it is seeded ONCE on the calling thread,
  // frozen, and then read lock-free by every shard. Clipped table values
  // are pure functions of the query, so results are bit-identical at any
  // jobs.
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
        if (!geometric) {
          // Closed-form escape prologue in front of one reused episode
          // context per shard; results arrive in episode order.
          BatchEpisodeEngine engine(config.geometry, config.k,
                                    config.protocol,
                                    config.opportunity_adaptive,
                                    *duration_law, episode_rng, signal_start,
                                    config.fault_plan);
          engine.run(begin, end, trace, invariants,
                     [&](std::int64_t, const EpisodeResult& r) {
                       accumulate(acc, r);
                     },
                     spans, ledger);
          if (want_metrics && config.batch_metrics) {
            const BatchEpisodeStats& bs = engine.stats();
            acc.metrics.add("sim.batch.batches",
                            static_cast<std::int64_t>(bs.batches));
            acc.metrics.add("sim.batch.episodes",
                            static_cast<std::int64_t>(bs.episodes));
            acc.metrics.add("sim.batch.escaped",
                            static_cast<std::int64_t>(bs.escaped));
            acc.metrics.add("sim.batch.des_lanes",
                            static_cast<std::int64_t>(bs.des_lanes));
            for (std::size_t i = 0; i < bs.occupancy.size(); ++i) {
              acc.metrics.add(
                  "sim.batch.occupancy." + std::to_string(i),
                  static_cast<std::int64_t>(bs.occupancy[i]));
            }
          }
          return acc;
        }
        // Per-shard schedule over the frozen table, with shard-local stats
        // (query accounting is per-shard deterministic).
        VisibilityCacheStats vis_stats;
        const GeometricSchedule geo_schedule(table->cache, &vis_stats);
        // One "episodes" span per shard, items = episode count: per-episode
        // spans would cost two clock reads each (the span_overhead gate).
        {
          const ScopedSpan episodes_span(spans, "episodes");
          if (spans != nullptr) spans->add_items(end - begin);
          // One reused episode context per shard, constructed on the
          // shard's own thread (first touch keeps its arena local). The
          // phase jitters the start over the longest shell period, so every
          // shell's pass pattern is phase-randomized.
          EpisodeContext context(geo_schedule, config.protocol,
                                 config.opportunity_adaptive,
                                 config.fault_plan);
          for (std::int64_t e = begin; e < end; ++e) {
            const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
            Rng phase_rng = ep.fork(1);
            Rng duration_rng = ep.fork(2);
            const Duration phase = phase_rng.uniform(
                Duration::zero(), config.constellation->max_period());
            const Duration duration = duration_law->sample(duration_rng);
            accumulate(acc, context.run(e, ep.fork(3), signal_start + phase,
                                        duration, trace, invariants, ledger));
          }
        }
        if (want_metrics) {
          acc.metrics.add("visibility.pass_queries",
                          static_cast<std::int64_t>(vis_stats.pass_queries));
          acc.metrics.add("visibility.pass_hits",
                          static_cast<std::int64_t>(vis_stats.pass_hits));
        }
        return acc;
      },
      [main_spans](EpisodeAccum& into, EpisodeAccum&& from) {
        // Runs on the calling thread in both the inline and pooled paths,
        // exactly n_shards - 1 times — the span count is jobs-independent.
        const ScopedSpan span(main_spans, "merge");
        into.merge(std::move(from));
      },
      config.profile, table ? &table->hook : nullptr);

  if (table && want_metrics) {
    // Global table count, added once after the reduce (a per-shard export
    // would multiply the shared count by the shard count).
    total.metrics.add(
        "visibility.cache_entries",
        static_cast<std::int64_t>(table->cache.frozen_entries()));
  }

  if (want_metrics && config.check_invariants) {
    // Added once after the reduce, like visibility.cache_entries.
    total.metrics.add(
        "invariant.violations",
        static_cast<std::int64_t>(total.invariants.violations()));
  }
  if (want_metrics) *config.metrics = std::move(total.metrics);
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
  out.max_chain_length = total.max_chain_length;
  out.invariant_violations =
      static_cast<std::int64_t>(total.invariants.violations());
  out.invariant_samples = total.invariants.samples();
  out.fault_truncations = total.fault_truncations;
  out.mean_chain_length =
      total.detected > 0
          ? static_cast<double>(total.chain_sum) /
                static_cast<double>(total.detected)
          : 0.0;
  return out;
}

}  // namespace oaq
