#include "oaq/campaign.hpp"

#include <cstdint>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/invariants.hpp"

namespace oaq {
namespace {

/// Mergeable tallies for one or more campaign replications: the
/// CampaignResult fields and the inputs of the oaq-metrics-v3 keys.
/// Counters and pmf weights are integral, so any grouping merges exactly;
/// the RunningStats are folded in a fixed replication order (one shard per
/// replication), so their floating-point values are also independent of
/// the worker count.
struct CampaignAccum {
  std::int64_t signals = 0;
  DiscretePmf levels;
  std::int64_t delivered = 0;
  std::int64_t untimely = 0;
  std::int64_t duplicates = 0;
  RunningStat latency_min;
  std::int64_t contended = 0;
  double queueing_delay_s = 0.0;
  RunningStat queueing_delay;  ///< one value per replication
  RunningStat chain_length;    ///< over detected targets
  std::int64_t fault_truncations = 0;
  TelemetryTally telemetry;
  InvariantChecker invariants;  ///< idle when checks are off
  EpisodeLedger ledger;  ///< per-target attribution; empty when disabled

  void merge(const CampaignAccum& other) {
    signals += other.signals;
    levels.merge(other.levels);
    delivered += other.delivered;
    untimely += other.untimely;
    duplicates += other.duplicates;
    latency_min.merge(other.latency_min);
    contended += other.contended;
    queueing_delay_s += other.queueing_delay_s;
    queueing_delay.merge(other.queueing_delay);
    chain_length.merge(other.chain_length);
    fault_truncations += other.fault_truncations;
    telemetry.merge(other.telemetry);
    invariants.merge(other.invariants);
    ledger.merge(other.ledger);
  }
};

/// run_campaign's oaq-metrics-v3 key set (tools/README.md), written once
/// from the merged replications: the outcome keys, then the shared
/// families.
MetricsRegistry campaign_metrics(const CampaignAccum& a, int replications,
                                 std::size_t cache_entries) {
  MetricsRegistry m;
  m.add("campaign.replications", replications);
  m.add("campaign.signals", a.signals);
  m.add("alerts.delivered", a.delivered);
  m.add("alerts.untimely", a.untimely);
  m.add("alerts.duplicate_episodes", a.duplicates);
  m.add("compute.contended", a.contended);
  m.observe("compute.queueing_delay_s", a.queueing_delay);
  m.observe("alerts.latency_min", a.latency_min);
  m.observe("chain.length", a.chain_length);
  write_shared_metrics(m, a.telemetry, cache_entries,
                       a.invariants.violations());
  return m;
}

/// One replication, seeded by `master`: one EpisodeContext run hosting
/// every admitted signal. `trace` is this replication's shard buffer (null
/// = tracing disabled); `cache` is the run's frozen pass table (null in
/// analytic mode).
CampaignAccum run_single_campaign(const CampaignConfig& config, Rng master,
                                  ShardTraceBuffer* trace,
                                  const SharedVisibilityCache* cache,
                                  SpanArena* spans) {
  const ScopedSpan replication_span(spans, "replication");
  Rng arrivals_rng = master.fork(1);
  Rng durations_rng = master.fork(2);
  Rng phase_rng = master.fork(4);

  const std::shared_ptr<const DurationDistribution> duration_law =
      config.duration_distribution
          ? config.duration_distribution
          : std::make_shared<ExponentialDuration>(Rate::per_minute(0.2));

  // One pass pattern for the whole campaign; signal arrival times are
  // uniform over the pattern period by Poisson stationarity. Geometric
  // mode swaps the analytic plane for real constellation geometry, read
  // from the run-wide frozen cache with replication-local hit stats.
  VisibilityCacheStats vis_stats;
  std::unique_ptr<const CoverageSchedule> schedule;
  if (cache != nullptr) {
    schedule = std::make_unique<GeometricSchedule>(*cache, &vis_stats);
  } else {
    schedule = std::make_unique<AnalyticSchedule>(
        config.geometry, config.k,
        phase_rng.uniform(Duration::zero(), config.geometry.tr(config.k)));
  }

  ComputeCalendar calendar;
  EpisodeContext context(*schedule, config.protocol,
                         config.opportunity_adaptive, config.fault_plan,
                         /*known_failed=*/nullptr,
                         config.compute_contention ? &calendar : nullptr);

  // Per-target attribution ledger (ISSUE 7): every final drop, retry, and
  // fault activation lands on the owning target's row. The I7 audit reads
  // it, and the caller can request a copy via config.ledger.
  CampaignAccum out;
  const bool want_ledger =
      config.check_invariants || config.ledger != nullptr;
  // Signals share the network: each xlink_* event names its envelope's
  // target, and episode-less traffic carries -1. Campaign clauses anchor
  // at the origin and belong to no single target, so their activations
  // land in the ledger's global row.
  context.reset({.trace_episode = -1,
                 .net_rng = master.fork(3),
                 .fault_rng = master.fork(6),
                 .trace = trace,
                 .ledger = want_ledger ? &out.ledger : nullptr});

  // Draw the arrival process over `horizon` after the signal start (mean
  // count rate × horizon; the last start, kSignalStart + horizon, is the
  // bound the pass table is seeded for) and arm every target up front
  // (each only schedules its own detection event).
  TimePoint t = TimePoint::origin() + kSignalStart;
  const TimePoint end = t + config.horizon;
  int target_id = 0;
  // The arrivals span brackets the Poisson draw + arm loop; items = the
  // signals admitted. enter/exit instead of ScopedSpan keeps the later
  // drain/finalize spans siblings, not children.
  if (spans != nullptr) spans->enter("arrivals");
  while (true) {
    t = t + arrivals_rng.exponential(config.signal_arrival_rate);
    if (t >= end) break;
    const Duration duration = duration_law->sample(durations_rng);
    if (!context.arm_target(
            target_id, master.fork(100 + static_cast<std::uint64_t>(target_id)),
            t, duration)) {
      out.levels.add(to_int(QosLevel::kMissed));
    }
    ++target_id;
    ++out.signals;
  }
  if (spans != nullptr) {
    spans->add_items(out.signals);
    spans->exit();
  }
  // Row capacity for every admitted target: recording during the drain
  // below never grows the ledger (zero steady-state allocations).
  if (want_ledger) out.ledger.reserve(target_id);
  context.arm_faults(TimePoint::origin());

  {
    const ScopedSpan drain_span(spans, "drain");
    context.drain();
  }

  const ScopedSpan finalize_span(spans, "finalize");
  for (int i = 0; i < context.armed_targets(); ++i) {
    const EpisodeResult& r = context.target_result(i);
    out.levels.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
    if (r.alert_delivered) {
      ++out.delivered;
      if (!r.timely) ++out.untimely;
      out.latency_min.add((r.first_alert_sent - r.detection).to_minutes());
    }
    if (r.detected) {
      out.chain_length.add(static_cast<double>(r.chain_length));
    }
    if (r.alerts_sent > 1) ++out.duplicates;
    if (config.check_invariants) {
      // Exact per-target I7 audit (ISSUE 7): the attribution ledger tracks
      // each target's own drops and retries, so a clean episode is audited
      // as clean even when another target's envelopes dropped. Faults stay
      // campaign-wide — clauses are episode-less (global row), so any
      // activation still excuses every overlapping episode; that is the
      // only remaining conservatism.
      EpisodeResult audited = r;
      const LedgerRow& row = out.ledger.row(context.target_id(i));
      audited.telemetry.messages_dropped_loss =
          static_cast<std::uint64_t>(row.drops_loss);
      audited.telemetry.messages_dropped_dead =
          static_cast<std::uint64_t>(row.drops_dead);
      audited.telemetry.messages_dropped_link =
          static_cast<std::uint64_t>(row.drops_link);
      audited.telemetry.retries = static_cast<std::uint64_t>(row.retries);
      audited.telemetry.retries_exhausted =
          static_cast<std::uint64_t>(row.retries_exhausted);
      audited.telemetry.faults_injected = static_cast<std::uint64_t>(
          row.faults + out.ledger.global_row().faults);
      out.invariants.check_episode(context.target_id(i), audited,
                                   config.protocol);
    }
  }
  if (config.check_invariants) context.audit_kernel(out.invariants);
  out.contended = calendar.contended_reservations();
  out.queueing_delay_s = calendar.total_queueing_delay().to_seconds();
  out.fault_truncations =
      static_cast<std::int64_t>(context.telemetry().fault_truncations);

  out.queueing_delay.add(out.queueing_delay_s);
  out.telemetry.add(context.telemetry());
  out.telemetry.visibility = vis_stats;
  return out;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  OAQ_REQUIRE(config.k > 0, "need at least one satellite");
  OAQ_REQUIRE(config.horizon > Duration::zero(), "horizon must be positive");
  OAQ_REQUIRE(config.signal_arrival_rate > Rate::zero(),
              "arrival rate must be positive");
  OAQ_REQUIRE(config.replications > 0, "need at least one replication");

  // One trace shard per replication (a replication's stream depends only
  // on its child seed, so the shard-order export is jobs-independent).
  if (config.trace != nullptr) config.trace->prepare(config.replications);
  const auto shard_trace = [&config](int shard) {
    return config.trace != nullptr ? config.trace->shard(shard) : nullptr;
  };

  // Span layout mirrors the trace: one arena per replication plus the
  // main arena for calling-thread work (seed/freeze, merge, root).
  if (config.spans != nullptr) config.spans->prepare(config.replications);
  SpanArena* main_spans =
      config.spans != nullptr ? config.spans->main_arena() : nullptr;
  const ScopedSpan root_span(main_spans, "run_campaign");
  const auto shard_spans = [&config](int shard) -> SpanArena* {
    return config.spans != nullptr ? config.spans->shard_arena(shard)
                                   : nullptr;
  };

  // Run-wide pass table: the horizon window is seeded once (its planes
  // swept on the run's executors, even for a single replication) and
  // frozen before any replication runs — every replication then reads the
  // same sweep lock-free.
  std::optional<RunPassTable> table;
  if (config.constellation != nullptr) {
    table.emplace(*config.constellation, config.earth_rotation, config.target,
                  visibility_quantum(kSignalStart + config.horizon,
                                     config.protocol.tau),
                  main_spans);
  }
  const SharedVisibilityCache* cache_ptr = table ? &table->cache : nullptr;

  // One shard per replication, merged in replication order, so the
  // aggregate is bit-identical for any jobs value. A single replication
  // runs on Rng(seed) itself; more fork child seeds from a dedicated
  // stream so they cannot collide with the per-process streams a single
  // run forks from Rng(seed).
  const Rng master(config.seed);
  const Rng replication_seeds = master.fork(5);
  const auto replication_master = [&](std::int64_t r) {
    return config.replications == 1
               ? master
               : replication_seeds.fork(static_cast<std::uint64_t>(r));
  };
  CampaignAccum total = parallel_reduce<CampaignAccum>(
      config.replications, config.replications, config.jobs,
      [&](std::int64_t begin, std::int64_t end, int shard) {
        CampaignAccum acc;
        for (std::int64_t r = begin; r < end; ++r) {
          acc.merge(run_single_campaign(config, replication_master(r),
                                        shard_trace(shard), cache_ptr,
                                        shard_spans(shard)));
        }
        return acc;
      },
      [main_spans](CampaignAccum& into, CampaignAccum&& from) {
        // Calling thread in both the inline and pooled paths — the span
        // count (replications - 1) is jobs-independent.
        const ScopedSpan span(main_spans, "merge");
        into.merge(from);
      },
      config.profile, table ? &table->hook : nullptr);
  if (config.metrics != nullptr) {
    *config.metrics =
        campaign_metrics(total, config.replications,
                         table ? table->cache.frozen_entries() : 0);
  }
  if (config.ledger != nullptr) *config.ledger = std::move(total.ledger);

  CampaignResult out;
  out.signals = total.signals;
  out.levels = std::move(total.levels);
  out.delivered = total.delivered;
  out.untimely = total.untimely;
  out.duplicates = total.duplicates;
  out.replications = config.replications;
  out.latency_min = total.latency_min;
  out.mean_latency_min = total.latency_min.mean();
  out.contended_computations = total.contended;
  out.mean_queueing_delay_s =
      total.contended > 0
          ? total.queueing_delay_s / static_cast<double>(total.contended)
          : 0.0;
  out.invariant_violations =
      static_cast<std::int64_t>(total.invariants.violations());
  out.invariant_samples = total.invariants.samples();
  out.fault_truncations = total.fault_truncations;
  return out;
}

}  // namespace oaq
