#include "oaq/episode.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/error.hpp"
#include "fault/invariants.hpp"
#include "obs/metrics.hpp"
#include "oaq/target_episode.hpp"

namespace oaq {
namespace {

/// The crosslink network every run derives from the protocol configuration
/// — the one place δ, loss, retry and health knobs become network options.
CrosslinkNetwork::Options net_options(const ProtocolConfig& cfg) {
  CrosslinkNetwork::Options opt;
  opt.min_delay = cfg.delta * 0.3;
  opt.max_delay = cfg.delta;
  opt.loss_probability = cfg.crosslink_loss_probability;
  opt.lossless_to_ground = true;
  opt.reliable = cfg.reliable_links;
  opt.retry_limit = cfg.link_retry_limit;
  opt.backoff_base = cfg.link_backoff_base;
  if (cfg.self_healing_links) {
    opt.health.enabled = true;
    opt.health.alpha = cfg.link_health_alpha;
    opt.health.demote_below = cfg.link_demote_below;
    opt.health.restore_above = cfg.link_restore_above;
    opt.health.probation = cfg.link_probation;
    opt.health.probation_backoff = cfg.link_probation_backoff;
    // τ-feasibility: escalating probations never push a probe past the
    // alert deadline's useful horizon.
    opt.health.probation_cap = cfg.tau;
  }
  return opt;
}

/// The tally's counter slots: oaq-metrics-v3 key and telemetry field.
struct TallyCounter {
  const char* key;
  std::uint64_t EpisodeTelemetry::*field;
};
constexpr TallyCounter kTallyCounters[] = {
    {"xlink.sent", &EpisodeTelemetry::messages_sent},
    {"xlink.delivered", &EpisodeTelemetry::messages_delivered},
    {"xlink.dropped_loss", &EpisodeTelemetry::messages_dropped_loss},
    {"xlink.dropped_dead", &EpisodeTelemetry::messages_dropped_dead},
    {"xlink.dropped_link", &EpisodeTelemetry::messages_dropped_link},
    {"sim.events", &EpisodeTelemetry::sim_events},
    {"net.retry.attempts", &EpisodeTelemetry::retries},
    {"net.retry.exhausted", &EpisodeTelemetry::retries_exhausted},
    {"net.fault.injected", &EpisodeTelemetry::faults_injected},
    {"net.health.demoted", &EpisodeTelemetry::links_demoted},
    {"net.health.restored", &EpisodeTelemetry::links_restored},
    {"net.health.probes", &EpisodeTelemetry::link_probes},
    {"net.health.probations", &EpisodeTelemetry::link_probations},
    {"episodes.reroutes", &EpisodeTelemetry::reroutes},
    {"net.lifecycle.deaths", &EpisodeTelemetry::lifecycle_deaths},
    {"net.lifecycle.spares", &EpisodeTelemetry::lifecycle_spares},
};
static_assert(std::size(kTallyCounters) == TelemetryTally::kCounters);

std::int64_t as_counter(std::uint64_t v) {
  OAQ_REQUIRE(v <= static_cast<std::uint64_t>(INT64_MAX),
              "metrics counter overflow");
  return static_cast<std::int64_t>(v);
}

}  // namespace

void TelemetryTally::add(const EpisodeTelemetry& t) {
  for (std::size_t i = 0; i < kCounters; ++i) {
    counters[i] += t.*kTallyCounters[i].field;
  }
  peak_pending.add(static_cast<double>(t.sim_peak_pending));
}

void TelemetryTally::merge(const TelemetryTally& other) {
  for (std::size_t i = 0; i < kCounters; ++i) {
    counters[i] += other.counters[i];
  }
  peak_pending.merge(other.peak_pending);
  visibility.pass_queries += other.visibility.pass_queries;
  visibility.pass_hits += other.visibility.pass_hits;
}

void write_shared_metrics(MetricsRegistry& m, const TelemetryTally& tally,
                          std::size_t cache_entries,
                          std::uint64_t invariant_violations) {
  for (std::size_t i = 0; i < TelemetryTally::kCounters; ++i) {
    m.add(kTallyCounters[i].key, as_counter(tally.counters[i]));
  }
  m.observe("sim.peak_pending", tally.peak_pending);
  m.add("visibility.pass_queries", as_counter(tally.visibility.pass_queries));
  m.add("visibility.pass_hits", as_counter(tally.visibility.pass_hits));
  m.add("visibility.cache_entries", as_counter(cache_entries));
  m.add("invariant.violations", as_counter(invariant_violations));
}

TimePoint ComputeCalendar::schedule(SatelliteId sat, TimePoint ready,
                                    Duration work) {
  OAQ_REQUIRE(work >= Duration::zero(), "work must be nonnegative");
  auto& free_at = free_at_[sat];
  const TimePoint start = std::max(ready, free_at);
  if (start > ready) {
    ++contended_;
    queueing_ += start - ready;
  }
  free_at = start + work;
  return free_at;
}

struct EpisodeContext::Target {
  explicit Target(EpisodeContext& ctx)
      : episode(/*target_id=*/0, ctx.sim_, ctx.net_, *ctx.schedule_, ctx.cfg_,
                ctx.oaq_, rng, ctx.calendar_, ctx.known_failed_,
                /*trace=*/nullptr) {}
  Rng rng;
  TargetEpisode episode;
};

EpisodeContext::EpisodeContext(const CoverageSchedule& schedule,
                               const ProtocolConfig& cfg,
                               bool opportunity_adaptive,
                               const FaultPlan* plan,
                               const std::set<SatelliteId>* known_failed,
                               ComputeCalendar* calendar)
    : schedule_(&schedule),
      cfg_(cfg),
      oaq_(opportunity_adaptive),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
      known_failed_(known_failed),
      calendar_(calendar),
      net_(sim_, net_options(cfg), Rng(0)) {  // re-seeded by every reset()
  OAQ_REQUIRE(cfg.tau > Duration::zero(), "deadline must be positive");
  OAQ_REQUIRE(cfg.delta >= Duration::zero(), "delta must be nonnegative");
  OAQ_REQUIRE(cfg.tg >= Duration::zero(), "Tg must be nonnegative");
  OAQ_REQUIRE(cfg.nu > Rate::zero(), "computation rate must be positive");
  net_.register_node(Address::ground(), [this](const Envelope& env) {
    if (const auto* alert = env.payload.get_if<AlertMessage>()) {
      for (int i = 0; i < armed_; ++i) {
        targets_[i]->episode.handle_ground_alert(*alert);
      }
    }
  });
  // Graceful degradation: a finally-dropped coordination request re-routes
  // to the next live downstream peer (each target filters by target id) —
  // but only where the sender can observe the drop: an exhausted retry
  // budget (reliable links) or a health demotion (self-healing links). A
  // best-effort sender gets no ack, so it cannot learn that a message was
  // lost and must rely on the wait deadline, plan or no plan (§3.2).
  if (cfg_.reliable_links || cfg_.self_healing_links) {
    net_.set_drop_handler([this](const Envelope& env, DropReason reason) {
      for (int i = 0; i < armed_; ++i) {
        targets_[i]->episode.handle_send_failure(env, reason);
      }
    });
  }
}

EpisodeContext::~EpisodeContext() = default;

void EpisodeContext::reset(const RunInputs& inputs) {
  // fork() is const, so the derivation order of the network and injector
  // streams is irrelevant — only the draw order during the run matters,
  // and that is the DES event order, identical to a fresh context's.
  inputs_ = inputs;
  armed_ = 0;
  injector_.reset();
  sim_.reset();
  net_.reset(inputs.net_rng);
  net_.set_trace(inputs.trace, inputs.trace_episode);
  net_.set_ledger(inputs.ledger);
}

bool EpisodeContext::arm_target(int target_id, const Rng& stream,
                                TimePoint signal_start,
                                Duration signal_duration) {
  if (static_cast<std::size_t>(armed_) == targets_.size()) {
    targets_.push_back(std::make_unique<Target>(*this));
  }
  Target& target = *targets_[armed_];
  target.rng = stream;
  target.episode.reset_for(target_id, target.rng, inputs_.trace);
  // An escaped signal schedules nothing (paper §2, worst case).
  if (!target.episode.arm(signal_start, signal_duration)) return false;
  ++armed_;
  for (const Pass& p : target.episode.horizon()) {
    const SatelliteId id = p.satellite;
    if (net_.has_handler(Address::sat(id))) continue;
    net_.register_node(Address::sat(id), [this, id](const Envelope& env) {
      for (int i = 0; i < armed_; ++i) {
        targets_[i]->episode.handle_satellite_message(id, env);
      }
    });
  }
  return true;
}

void EpisodeContext::arm_faults(TimePoint anchor) {
  // The injector draws from a dedicated fork, so attaching a plan never
  // perturbs the protocol or network streams.
  if (plan_ == nullptr) return;
  injector_.emplace(sim_, net_, *plan_, inputs_.fault_rng, inputs_.trace,
                    inputs_.trace_episode, inputs_.ledger, &expander_);
  injector_->arm(anchor);
}

void EpisodeContext::drain() {
  sim_.run(static_cast<std::uint64_t>(armed_ + 1) * 100000);
  for (int i = 0; i < armed_; ++i) targets_[i]->episode.finalize();

  EpisodeTelemetry& t = telemetry_;
  const NetworkStats& net_stats = net_.stats();
  t.messages_sent = net_stats.sent;
  t.messages_delivered = net_stats.delivered;
  t.messages_dropped_loss = net_stats.dropped_loss;
  t.messages_dropped_dead = net_stats.dropped_dead_sender +
                            net_stats.dropped_dead_receiver +
                            net_stats.dropped_unregistered;
  t.messages_dropped_link = net_stats.dropped_link;
  t.retries = net_stats.retries;
  t.retries_exhausted = net_stats.retries_exhausted;
  t.links_demoted = net_stats.links_demoted;
  t.links_restored = net_stats.links_restored;
  t.links_demoted_end = static_cast<std::uint64_t>(net_.demoted_link_count());
  t.link_probes = net_stats.link_probes;
  t.link_probations = net_stats.link_probations;
  t.reroutes = net_stats.reroutes;
  t.degradation_active_end = net_.degradation_active() ? 1 : 0;
  const FaultInjector::Stats none;
  const FaultInjector::Stats& fs = injector_ ? injector_->stats() : none;
  t.faults_injected = fs.activations;
  t.fault_truncations = fs.truncated_clauses;
  t.lifecycle_deaths = fs.lifecycle_deaths;
  t.lifecycle_spares = fs.lifecycle_spares;
  t.sim_events = sim_.processed_count();
  t.sim_peak_pending = sim_.peak_pending_count();
}

const EpisodeResult& EpisodeContext::target_result(int i) const {
  return targets_[i]->episode.result();
}

int EpisodeContext::target_id(int i) const {
  return targets_[i]->episode.target_id();
}

void EpisodeContext::audit_kernel(InvariantChecker& invariants) const {
  invariants.check_simulator(inputs_.trace_episode, sim_.accounting());
}

const EpisodeResult& EpisodeContext::run(
    std::int64_t episode_id, const Rng& protocol, TimePoint signal_start,
    Duration signal_duration, ShardTraceBuffer* trace,
    InvariantChecker* invariants, EpisodeLedger* ledger) {
  reset({.trace_episode = episode_id,
         .net_rng = protocol.fork(0x6e6574),
         .fault_rng = protocol.fork(0x666c74),
         .trace = trace,
         .ledger = ledger});
  if (!arm_target(static_cast<int>(episode_id), protocol, signal_start,
                  signal_duration)) {
    return targets_.front()->episode.result();
  }
  arm_faults(signal_start);
  drain();
  result_ = targets_.front()->episode.result();
  result_.telemetry = telemetry_;
  if (invariants != nullptr) {
    invariants->check_episode(episode_id, result_, cfg_);
    audit_kernel(*invariants);
  }
  return result_;
}

}  // namespace oaq
