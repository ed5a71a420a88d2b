#include "oaq/episode.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fault/invariants.hpp"
#include "oaq/target_episode.hpp"

namespace oaq {

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

EpisodeEngine::EpisodeEngine(const CoverageSchedule& schedule,
                             ProtocolConfig config, bool opportunity_adaptive)
    : schedule_(&schedule), config_(config), oaq_(opportunity_adaptive) {
  OAQ_REQUIRE(config.tau > Duration::zero(), "deadline must be positive");
  OAQ_REQUIRE(config.delta >= Duration::zero(), "delta must be nonnegative");
  OAQ_REQUIRE(config.tg >= Duration::zero(), "Tg must be nonnegative");
  OAQ_REQUIRE(config.nu > Rate::zero(), "computation rate must be positive");
}

EpisodeResult EpisodeEngine::run(TimePoint signal_start,
                                 Duration signal_duration, Rng& rng,
                                 const std::vector<Fault>& faults,
                                 const std::set<SatelliteId>& known_failed,
                                 ShardTraceBuffer* trace, int episode_id,
                                 const EpisodeFaultHooks* hooks) const {
  OAQ_REQUIRE(signal_duration > Duration::zero(),
              "signal duration must be positive");
  const EpisodeFaultHooks none;
  const EpisodeFaultHooks& h = hooks != nullptr ? *hooks : none;
  EpisodeContext ctx(*schedule_, config_, oaq_, h.plan, &known_failed);
  EpisodeResult result = ctx.run(episode_id, rng, signal_start,
                                 signal_duration, trace, h.invariants,
                                 h.ledger, faults);
  // The episode's draws advance the caller's stream, as if it had been
  // drawn from directly.
  rng = ctx.protocol_rng();
  return result;
}

EpisodeContext::EpisodeContext(const CoverageSchedule& schedule,
                               const ProtocolConfig& cfg,
                               bool opportunity_adaptive,
                               const FaultPlan* plan,
                               const std::set<SatelliteId>* known_failed)
    : cfg_(cfg),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr),
      net_(sim_, net_options(cfg), Rng(0)),  // re-seeded by every reset()
      episode_(std::make_unique<TargetEpisode>(
          /*target_id=*/0, sim_, net_, schedule, cfg_, opportunity_adaptive,
          protocol_rng_, /*calendar=*/nullptr, known_failed,
          /*trace=*/nullptr)) {
  OAQ_REQUIRE(cfg.tau > Duration::zero(), "deadline must be positive");
  net_.register_node(Address::ground(), [this](const Envelope& env) {
    if (const auto* alert = env.payload.get_if<AlertMessage>()) {
      episode_->handle_ground_alert(*alert);
    }
  });
  // Graceful degradation: when links may fail for good (retry budgets or
  // an injected plan), a finally-dropped coordination request re-routes to
  // the next live downstream peer. Left detached otherwise so the default
  // path's drop accounting matches the pre-fault engine.
  if (cfg_.reliable_links || cfg_.self_healing_links || plan_ != nullptr) {
    net_.set_drop_handler([this](const Envelope& env, DropReason reason) {
      episode_->handle_send_failure(env, reason);
    });
  }
}

EpisodeContext::~EpisodeContext() = default;

const EpisodeResult& EpisodeContext::result() const {
  return episode_->result();
}

void EpisodeContext::reset(std::int64_t episode_id, const Rng& protocol_rng,
                           ShardTraceBuffer* trace, EpisodeLedger* ledger) {
  // fork() is const, so the derivation order of the network and injector
  // streams is irrelevant — only the draw order during the run matters,
  // and that is the DES event order, identical to a fresh context's.
  episode_id_ = episode_id;
  trace_ = trace;
  ledger_ = ledger;
  protocol_rng_ = protocol_rng;
  injector_.reset();
  sim_.reset();
  net_.reset(protocol_rng_.fork(0x6e6574));
  net_.set_trace(trace, episode_id);
  net_.set_ledger(ledger);
  episode_->reset_for(static_cast<int>(episode_id), protocol_rng_, trace);
}

bool EpisodeContext::arm(TimePoint signal_start, Duration signal_duration,
                         const std::vector<EpisodeEngine::Fault>& faults) {
  // An escaped signal schedules nothing (paper §2, worst case).
  if (!episode_->arm(signal_start, signal_duration)) return false;

  for (const Pass& p : episode_->horizon()) {
    const SatelliteId id = p.satellite;
    if (net_.has_handler(Address::sat(id))) continue;
    net_.register_node(Address::sat(id), [this, id](const Envelope& env) {
      episode_->handle_satellite_message(id, env);
    });
  }

  for (const auto& f : faults) {
    const TimePoint at = std::max(f.at, sim_.now());
    sim_.schedule_at(at, [this, sat = f.satellite] {
      net_.fail_silent(Address::sat(sat));
    });
  }

  // The injector draws from a dedicated fork, so attaching a plan never
  // perturbs the protocol or network streams.
  if (plan_ != nullptr) {
    injector_.emplace(sim_, net_, *plan_, protocol_rng_.fork(0x666c74), trace_,
                      episode_id_, ledger_, &expander_);
    injector_->arm(signal_start);
  }
  return true;
}

void EpisodeContext::drain() {
  sim_.run(200000);
  episode_->finalize();
}

const EpisodeResult& EpisodeContext::collect(InvariantChecker* invariants) {
  result_ = episode_->result();
  EpisodeTelemetry& t = result_.telemetry;
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
  t.degradation_active_end = net_.degradation_active() ? 1 : 0;
  if (injector_) {
    t.faults_injected = injector_->stats().activations;
    t.lifecycle_deaths = injector_->stats().lifecycle_deaths;
    t.lifecycle_spares = injector_->stats().lifecycle_spares;
  }
  t.sim_events = sim_.processed_count();
  t.sim_peak_pending = sim_.peak_pending_count();
  const QueueStats& qs = sim_.queue_stats();
  t.sim_runs_created = qs.runs_created;
  t.sim_run_merges = qs.run_merges;
  t.sim_tombstones_purged = qs.tombstones_purged;
  t.sim_max_run_length = qs.max_run_length;

  if (invariants != nullptr) {
    invariants->check_episode(episode_id_, result_, cfg_);
    invariants->check_simulator(episode_id_, sim_.accounting());
  }
  return result_;
}

const EpisodeResult& EpisodeContext::run(
    std::int64_t episode_id, const Rng& protocol_rng, TimePoint signal_start,
    Duration signal_duration, ShardTraceBuffer* trace,
    InvariantChecker* invariants, EpisodeLedger* ledger,
    const std::vector<EpisodeEngine::Fault>& faults) {
  reset(episode_id, protocol_rng, trace, ledger);
  if (!arm(signal_start, signal_duration, faults)) return result();
  drain();
  return collect(invariants);
}

}  // namespace oaq
