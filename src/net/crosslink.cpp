#include "net/crosslink.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace oaq {

CrosslinkNetwork::CrosslinkNetwork(Simulator& sim, Options options, Rng rng)
    : sim_(&sim), options_(options), rng_(rng) {
  OAQ_REQUIRE(options.min_delay >= Duration::zero(),
              "delays must be nonnegative");
  OAQ_REQUIRE(options.max_delay >= options.min_delay,
              "max delay must dominate min delay");
  OAQ_REQUIRE(options.loss_probability >= 0.0 &&
                  options.loss_probability <= 1.0,
              "loss probability must be in [0,1]");
  OAQ_REQUIRE(options.retry_limit >= 0, "retry limit must be nonnegative");
  OAQ_REQUIRE(options.backoff_base >= 1.0, "backoff base must be >= 1");
  if (options.health.enabled) {
    OAQ_REQUIRE(options.health.alpha > 0.0 && options.health.alpha <= 1.0,
                "health alpha must be in (0,1]");
    OAQ_REQUIRE(options.health.demote_below > 0.0 &&
                    options.health.demote_below <=
                        options.health.restore_above &&
                    options.health.restore_above <= 1.0,
                "health thresholds must satisfy 0 < demote <= restore <= 1");
    OAQ_REQUIRE(options.health.probation > Duration::zero(),
                "health probation must be positive");
    OAQ_REQUIRE(options.health.probation_backoff >= 1.0,
                "probation backoff must be >= 1");
    OAQ_REQUIRE(options.health.probation_cap >= options.health.probation,
                "probation cap must dominate the base probation");
  }
}

const CrosslinkNetwork::NodeState* CrosslinkNetwork::find(
    const Address& addr) const {
  if (addr.kind == Address::Kind::kGround) return &ground_;
  const int plane = addr.satellite.plane;
  const int slot = addr.satellite.slot;
  if (plane < 0 || slot < 0 ||
      static_cast<std::size_t>(plane) >= sats_.size()) {
    return nullptr;
  }
  const auto& ring = sats_[static_cast<std::size_t>(plane)];
  if (static_cast<std::size_t>(slot) >= ring.size()) return nullptr;
  return &ring[static_cast<std::size_t>(slot)];
}

CrosslinkNetwork::NodeState& CrosslinkNetwork::ensure(const Address& addr) {
  if (addr.kind == Address::Kind::kGround) return ground_;
  const int plane = addr.satellite.plane;
  const int slot = addr.satellite.slot;
  OAQ_REQUIRE(plane >= 0 && slot >= 0,
              "satellite addresses must have nonnegative plane and slot");
  if (static_cast<std::size_t>(plane) >= sats_.size()) {
    sats_.resize(static_cast<std::size_t>(plane) + 1);
  }
  auto& ring = sats_[static_cast<std::size_t>(plane)];
  if (static_cast<std::size_t>(slot) >= ring.size()) {
    ring.resize(static_cast<std::size_t>(slot) + 1);
  }
  return ring[static_cast<std::size_t>(slot)];
}

void CrosslinkNetwork::register_node(const Address& node, Handler handler) {
  OAQ_REQUIRE(handler != nullptr, "handler must be callable");
  NodeState& state = ensure(node);
  OAQ_REQUIRE(state.handler == nullptr || state.failed,
              "duplicate handler registration for a live address");
  state.handler = std::move(handler);
  state.failed = false;
}

void CrosslinkNetwork::fail_silent(const Address& node) {
  ensure(node).failed = true;
}

void CrosslinkNetwork::recover(const Address& node) {
  NodeState& state = ensure(node);
  // The node rejoins with its original handler; a node that never had one
  // stays unreachable (there is nothing to revive).
  if (state.handler != nullptr) state.failed = false;
}

bool CrosslinkNetwork::is_failed(const Address& node) const {
  const NodeState* state = find(node);
  return state != nullptr && state->failed;
}

void CrosslinkNetwork::trace_event(TraceEventType type, const Address& from,
                                   const Address& to, std::int32_t a,
                                   double v, std::int64_t episode) const {
  TraceEvent ev;
  ev.episode = episode;
  ev.t_min = sim_->now().since_origin().to_minutes();
  ev.type = type;
  ev.sat = trace_slot(from);
  ev.peer = trace_slot(to);
  ev.a = a;
  ev.v = v;
  trace_->push(ev);
}

// --- Degradation hooks ------------------------------------------------------

void CrosslinkNetwork::reserve_fault_state(int planes, std::size_t clauses) {
  if (planes > link_block_planes_) {
    std::vector<std::uint16_t> grown(
        static_cast<std::size_t>(planes) * static_cast<std::size_t>(planes),
        0);
    for (int a = 0; a < link_block_planes_; ++a) {
      for (int b = 0; b < link_block_planes_; ++b) {
        grown[static_cast<std::size_t>(a) * static_cast<std::size_t>(planes) +
              static_cast<std::size_t>(b)] =
            link_blocks_[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(link_block_planes_) +
                         static_cast<std::size_t>(b)];
      }
    }
    link_blocks_ = std::move(grown);
    link_block_planes_ = planes;
  }
  if (options_.health.enabled && planes > health_planes_) {
    std::vector<LinkHealth> grown(
        static_cast<std::size_t>(planes) * static_cast<std::size_t>(planes));
    for (int a = 0; a < health_planes_; ++a) {
      for (int b = 0; b < health_planes_; ++b) {
        grown[static_cast<std::size_t>(a) * static_cast<std::size_t>(planes) +
              static_cast<std::size_t>(b)] =
            health_[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(health_planes_) +
                    static_cast<std::size_t>(b)];
      }
    }
    health_ = std::move(grown);
    health_planes_ = planes;
  }
  partitions_.reserve(clauses);
  loss_overrides_.reserve(clauses);
  delay_factors_.reserve(clauses);
  link_losses_.reserve(clauses);
}

std::uint16_t& CrosslinkNetwork::link_block_count(int plane_a, int plane_b) {
  const int needed = std::max(plane_a, plane_b) + 1;
  if (needed > link_block_planes_) reserve_fault_state(needed, 0);
  return link_blocks_[static_cast<std::size_t>(plane_a) *
                          static_cast<std::size_t>(link_block_planes_) +
                      static_cast<std::size_t>(plane_b)];
}

void CrosslinkNetwork::block_link(int plane_a, int plane_b) {
  OAQ_REQUIRE(plane_a >= 0 && plane_b >= 0, "planes must be nonnegative");
  ++link_block_count(plane_a, plane_b);
  if (plane_a != plane_b) ++link_block_count(plane_b, plane_a);
  ++active_link_blocks_;
}

void CrosslinkNetwork::unblock_link(int plane_a, int plane_b) {
  std::uint16_t& count = link_block_count(plane_a, plane_b);
  OAQ_REQUIRE(count > 0 && active_link_blocks_ > 0,
              "unblock_link without a matching block_link");
  --count;
  if (plane_a != plane_b) --link_block_count(plane_b, plane_a);
  --active_link_blocks_;
}

void CrosslinkNetwork::recompute_delay_scale() {
  double scale = 1.0;
  for (const auto& [token, factor] : delay_factors_) scale *= factor;
  delay_scale_ = scale;
}

void CrosslinkNetwork::push_delay_scale(std::uint32_t token, double factor) {
  OAQ_REQUIRE(factor > 0.0, "delay factor must be positive");
  delay_factors_.emplace_back(token, factor);
  recompute_delay_scale();
}

void CrosslinkNetwork::pop_delay_scale(std::uint32_t token) {
  const auto it = std::find_if(
      delay_factors_.begin(), delay_factors_.end(),
      [token](const auto& entry) { return entry.first == token; });
  OAQ_REQUIRE(it != delay_factors_.end(), "unknown delay-scale token");
  *it = delay_factors_.back();
  delay_factors_.pop_back();
  recompute_delay_scale();
}

void CrosslinkNetwork::push_loss_override(std::uint32_t token,
                                          double probability) {
  OAQ_REQUIRE(probability >= 0.0 && probability <= 1.0,
              "loss probability must be in [0,1]");
  loss_overrides_.emplace_back(token, probability);
}

void CrosslinkNetwork::pop_loss_override(std::uint32_t token) {
  const auto it = std::find_if(
      loss_overrides_.begin(), loss_overrides_.end(),
      [token](const auto& entry) { return entry.first == token; });
  OAQ_REQUIRE(it != loss_overrides_.end(), "unknown loss-override token");
  *it = loss_overrides_.back();
  loss_overrides_.pop_back();
}

void CrosslinkNetwork::push_partition(std::uint32_t token,
                                      PlaneSet plane_mask) {
  partitions_.emplace_back(token, plane_mask);
}

void CrosslinkNetwork::pop_partition(std::uint32_t token) {
  const auto it = std::find_if(
      partitions_.begin(), partitions_.end(),
      [token](const auto& entry) { return entry.first == token; });
  OAQ_REQUIRE(it != partitions_.end(), "unknown partition token");
  *it = partitions_.back();
  partitions_.pop_back();
}

void CrosslinkNetwork::push_link_loss(std::uint32_t token, int plane_a,
                                      int plane_b, double probability) {
  OAQ_REQUIRE(plane_a >= 0 && plane_b >= 0, "planes must be nonnegative");
  OAQ_REQUIRE(probability >= 0.0 && probability <= 1.0,
              "loss probability must be in [0,1]");
  link_losses_.push_back({token, plane_a, plane_b, probability});
}

void CrosslinkNetwork::pop_link_loss(std::uint32_t token) {
  const auto it = std::find_if(
      link_losses_.begin(), link_losses_.end(),
      [token](const LinkLoss& entry) { return entry.token == token; });
  OAQ_REQUIRE(it != link_losses_.end(), "unknown link-loss token");
  *it = link_losses_.back();
  link_losses_.pop_back();
}

// --- Link health (ISSUE 10) -------------------------------------------------

void CrosslinkNetwork::trace_link_event(TraceEventType type, int plane_a,
                                        int plane_b, std::int32_t a, double v,
                                        std::int64_t episode) const {
  // Plane-level event: sat/peer carry PLANE indices (like the injector's
  // fault_link_outage encoding), not satellite slots.
  TraceEvent ev;
  ev.episode = episode;
  ev.t_min = sim_->now().since_origin().to_minutes();
  ev.type = type;
  ev.sat = static_cast<std::int16_t>(plane_a);
  ev.peer = static_cast<std::int16_t>(plane_b);
  ev.a = a;
  ev.v = v;
  trace_->push(ev);
}

CrosslinkNetwork::LinkHealth& CrosslinkNetwork::health_cell(int plane_a,
                                                            int plane_b) {
  if (plane_a > plane_b) std::swap(plane_a, plane_b);
  if (plane_b >= health_planes_) {
    // Mirror the link_blocks_ grow-on-demand: matrix side follows the
    // highest plane ever sampled.
    const int planes = plane_b + 1;
    std::vector<LinkHealth> grown(
        static_cast<std::size_t>(planes) * static_cast<std::size_t>(planes));
    for (int a = 0; a < health_planes_; ++a) {
      for (int b = 0; b < health_planes_; ++b) {
        grown[static_cast<std::size_t>(a) * static_cast<std::size_t>(planes) +
              static_cast<std::size_t>(b)] =
            health_[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(health_planes_) +
                    static_cast<std::size_t>(b)];
      }
    }
    health_ = std::move(grown);
    health_planes_ = planes;
  }
  return health_[static_cast<std::size_t>(plane_a) *
                     static_cast<std::size_t>(health_planes_) +
                 static_cast<std::size_t>(plane_b)];
}

const CrosslinkNetwork::LinkHealth* CrosslinkNetwork::find_health(
    int plane_a, int plane_b) const {
  if (plane_a > plane_b) std::swap(plane_a, plane_b);
  if (plane_a < 0 || plane_b >= health_planes_) return nullptr;
  return &health_[static_cast<std::size_t>(plane_a) *
                      static_cast<std::size_t>(health_planes_) +
                  static_cast<std::size_t>(plane_b)];
}

Duration CrosslinkNetwork::probation_of(int level) const {
  const Options::HealthOptions& h = options_.health;
  const double scale =
      std::pow(h.probation_backoff, static_cast<double>(level - 1));
  return std::min(h.probation * scale, h.probation_cap);
}

void CrosslinkNetwork::record_link_sample(int plane_a, int plane_b,
                                          bool success,
                                          std::int64_t episode) {
  LinkHealth& h = health_cell(plane_a, plane_b);
  health_dirty_ = true;
  const Options::HealthOptions& opt = options_.health;
  h.ewma = (1.0 - opt.alpha) * h.ewma + opt.alpha * (success ? 1.0 : 0.0);
  if (!h.demoted) {
    if (!success && h.ewma < opt.demote_below) {
      // Healthy → demoted. The escalation level survives restores, so a
      // link that keeps flapping serves ever longer probations (capped).
      h.demoted = true;
      ++h.level;
      h.retry_at = sim_->now() + probation_of(h.level);
      ++demoted_links_;
      ++stats_.links_demoted;
      ++stats_.link_probations;
      if (ledger_ != nullptr) ledger_->record_probation(episode);
      if (trace_ != nullptr) {
        trace_link_event(TraceEventType::kLinkDemoted, plane_a, plane_b,
                         h.level, h.ewma, episode);
      }
    }
  } else if (success && h.ewma >= opt.restore_above) {
    // Demoted → healthy: probe traffic dragged the EWMA back up.
    h.demoted = false;
    --demoted_links_;
    ++stats_.links_restored;
    if (trace_ != nullptr) {
      trace_link_event(TraceEventType::kLinkRestored, plane_a, plane_b,
                       h.level, h.ewma, episode);
    }
  } else if (!success && sim_->now() >= h.retry_at) {
    // A probe past the probation failed: escalate and re-probation.
    ++h.level;
    h.retry_at = sim_->now() + probation_of(h.level);
    ++stats_.link_probations;
    if (ledger_ != nullptr) ledger_->record_probation(episode);
  }
}

bool CrosslinkNetwork::link_avoided(int plane_a, int plane_b) const {
  if (demoted_links_ == 0) return false;
  const LinkHealth* h = find_health(plane_a, plane_b);
  return h != nullptr && h->demoted && sim_->now() < h->retry_at;
}

void CrosslinkNetwork::note_reroute(std::int64_t episode) {
  ++stats_.reroutes;
  if (ledger_ != nullptr) ledger_->record_reroute(episode);
}

double CrosslinkNetwork::link_health_ewma(int plane_a, int plane_b) const {
  const LinkHealth* h = find_health(plane_a, plane_b);
  return h != nullptr ? h->ewma : 1.0;
}

bool CrosslinkNetwork::health_pristine() const {
  if (demoted_links_ != 0) return false;
  const LinkHealth pristine{};
  for (const LinkHealth& h : health_) {
    if (!(h == pristine)) return false;
  }
  return true;
}

bool CrosslinkNetwork::link_blocked(const Address& from,
                                    const Address& to) const {
  if (from.kind == Address::Kind::kGround ||
      to.kind == Address::Kind::kGround) {
    return false;  // outages and partitions only sever crosslinks
  }
  const int pa = from.satellite.plane;
  const int pb = to.satellite.plane;
  if (active_link_blocks_ > 0 && pa < link_block_planes_ &&
      pb < link_block_planes_ &&
      link_blocks_[static_cast<std::size_t>(pa) *
                       static_cast<std::size_t>(link_block_planes_) +
                   static_cast<std::size_t>(pb)] > 0) {
    return true;
  }
  for (const auto& [token, mask] : partitions_) {
    if (mask.test(pa) != mask.test(pb)) return true;
  }
  return false;
}

// --- Transport --------------------------------------------------------------

std::uint32_t CrosslinkNetwork::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back();
  return slot;
}

void CrosslinkNetwork::reset(Rng rng) {
  OAQ_REQUIRE(free_slots_.size() == pool_.size(),
              "reset with envelopes still in flight");
  rng_ = rng;
  stats_ = {};
  trace_ = nullptr;
  trace_episode_ = -1;
  ledger_ = nullptr;
  ground_.failed = false;
  for (auto& ring : sats_) {
    for (auto& state : ring) state.failed = false;
  }
  partitions_.clear();
  loss_overrides_.clear();
  delay_factors_.clear();
  delay_scale_ = 1.0;
  link_losses_.clear();
  if (active_link_blocks_ > 0) {
    std::fill(link_blocks_.begin(), link_blocks_.end(), std::uint16_t{0});
    active_link_blocks_ = 0;
  }
  if (health_dirty_) {
    std::fill(health_.begin(), health_.end(), LinkHealth{});
    health_dirty_ = false;
    demoted_links_ = 0;
  }
}

void CrosslinkNetwork::send(const Address& from, const Address& to,
                            Payload payload, std::int64_t episode) {
  // Episode-less sends inherit the network-wide trace episode, so the
  // single-episode engines (which stamp it per episode) need no change.
  if (episode < 0) episode = trace_episode_;
  ++stats_.sent;
  if (is_failed(from)) {
    ++stats_.dropped_dead_sender;
    if (ledger_ != nullptr) {
      ledger_->record_drop(episode, DropReason::kDeadSender);
    }
    if (trace_ != nullptr) {
      trace_event(TraceEventType::kXlinkDrop, from, to,
                  static_cast<std::int32_t>(DropReason::kDeadSender), 0.0,
                  episode);
    }
    return;
  }
  const std::uint32_t slot = alloc_slot();
  Envelope& env = pool_[slot];
  env.from = from;
  env.to = to;
  env.sent = sim_->now();
  env.attempt = 0;
  env.episode = episode;
  env.payload = std::move(payload);
  attempt(slot);
}

void CrosslinkNetwork::attempt(std::uint32_t slot) {
  Envelope& env = pool_[slot];
  env.attempt_started = sim_->now();
  // A sender that died between attempts stops retrying (the first attempt
  // checked liveness in send(), preserving the pre-retry stat semantics).
  if (env.attempt > 0 && is_failed(env.from)) {
    final_drop(slot, DropReason::kDeadSender);
    return;
  }
  if (options_.health.enabled && demoted_links_ > 0 &&
      env.from.kind == Address::Kind::kSatellite &&
      env.to.kind == Address::Kind::kSatellite) {
    // An attempt risked over a demoted link whose probation has elapsed is
    // a probe — the traffic that can restore the link's health.
    const LinkHealth* h =
        find_health(env.from.satellite.plane, env.to.satellite.plane);
    if (h != nullptr && h->demoted && sim_->now() >= h->retry_at) {
      ++stats_.link_probes;
      if (trace_ != nullptr) {
        trace_link_event(TraceEventType::kLinkProbe, env.from.satellite.plane,
                         env.to.satellite.plane, h->level, h->ewma,
                         env.episode);
      }
    }
  }
  if ((active_link_blocks_ > 0 || !partitions_.empty()) &&
      link_blocked(env.from, env.to)) {
    fail_attempt(slot, DropReason::kLinkDown);
    return;
  }
  const bool loss_exempt =
      options_.lossless_to_ground && env.to.kind == Address::Kind::kGround;
  if (!loss_exempt && rng_.bernoulli(effective_loss(env.from, env.to))) {
    fail_attempt(slot, DropReason::kLoss);
    return;
  }
  Duration lo = options_.min_delay;
  Duration hi = options_.max_delay;
  if (!delay_factors_.empty()) {
    lo = lo * delay_scale_;
    hi = hi * delay_scale_;
  }
  const Duration delay = rng_.uniform(lo, hi);
  if (trace_ != nullptr && env.attempt == 0) {
    trace_event(TraceEventType::kXlinkSend, env.from, env.to, 0,
                delay.to_seconds(), env.episode);
  }
  // The capture is two words, so the DES kernel stores it inline: a send
  // costs no allocation at all for inline payloads (every protocol message).
  sim_->schedule_after(delay, [this, slot] { deliver(slot); });
}

void CrosslinkNetwork::fail_attempt(std::uint32_t slot, DropReason reason) {
  Envelope& env = pool_[slot];
  if (options_.health.enabled &&
      env.from.kind == Address::Kind::kSatellite &&
      env.to.kind == Address::Kind::kSatellite) {
    record_link_sample(env.from.satellite.plane, env.to.satellite.plane,
                       /*success=*/false, env.episode);
  }
  if (options_.reliable && env.attempt < options_.retry_limit) {
    // Ack-timeout retransmission: the sender detects the failure
    // 2·max_delay·base^i after attempt i started (worst-case round trip,
    // backed off), then re-sends. Summing the timeouts over the full
    // budget plus one final flight gives the δ_eff bound of DESIGN.md §11.
    const Duration ack_timeout =
        2.0 * options_.max_delay *
        std::pow(options_.backoff_base, static_cast<double>(env.attempt));
    ++env.attempt;
    ++stats_.retries;
    if (ledger_ != nullptr) ledger_->record_retry(env.episode);
    if (trace_ != nullptr) {
      trace_event(TraceEventType::kXlinkRetry, env.from, env.to,
                  static_cast<std::int32_t>(reason),
                  ack_timeout.to_seconds(), env.episode);
    }
    const TimePoint retry_at = env.attempt_started + ack_timeout;
    sim_->schedule_at(std::max(retry_at, sim_->now()),
                      [this, slot] { attempt(slot); });
    return;
  }
  final_drop(slot, reason);
}

void CrosslinkNetwork::final_drop(std::uint32_t slot, DropReason reason) {
  // Move the envelope out and free the slot before any observer runs: the
  // drop handler may send, growing the pool.
  Envelope env = std::move(pool_[slot]);
  pool_[slot].payload.reset();
  free_slots_.push_back(slot);
  switch (reason) {
    case DropReason::kDeadSender: ++stats_.dropped_dead_sender; break;
    case DropReason::kLoss: ++stats_.dropped_loss; break;
    case DropReason::kDeadReceiver: ++stats_.dropped_dead_receiver; break;
    case DropReason::kUnregistered: ++stats_.dropped_unregistered; break;
    case DropReason::kLinkDown: ++stats_.dropped_link; break;
  }
  if (options_.reliable && env.attempt > 0) ++stats_.retries_exhausted;
  if (ledger_ != nullptr) {
    ledger_->record_drop(env.episode, reason);
    if (options_.reliable && env.attempt > 0) {
      ledger_->record_retry_exhausted(env.episode);
    }
  }
  if (trace_ != nullptr) {
    trace_event(TraceEventType::kXlinkDrop, env.from, env.to,
                static_cast<std::int32_t>(reason), 0.0,
                env.episode);
  }
  if (drop_handler_ != nullptr && reason != DropReason::kDeadSender) {
    drop_handler_(env, reason);
  }
}

void CrosslinkNetwork::deliver(std::uint32_t slot) {
  // Failure checks read the envelope in place: a reliable-mode retry keeps
  // the slot, so the envelope must not be moved out until delivery is
  // certain.
  if (is_failed(pool_[slot].to)) {
    fail_attempt(slot, DropReason::kDeadReceiver);
    return;
  }
  const NodeState* state = find(pool_[slot].to);
  if (state == nullptr || state->handler == nullptr) {
    final_drop(slot, DropReason::kUnregistered);
    return;
  }
  // Move the envelope out and free the slot before dispatching: the
  // handler may send (growing the pool) or the caller may reuse the slot,
  // neither of which must invalidate the envelope the handler sees.
  Envelope env = std::move(pool_[slot]);
  pool_[slot].payload.reset();
  free_slots_.push_back(slot);
  env.delivered = sim_->now();
  ++stats_.delivered;
  if (options_.health.enabled &&
      env.from.kind == Address::Kind::kSatellite &&
      env.to.kind == Address::Kind::kSatellite) {
    record_link_sample(env.from.satellite.plane, env.to.satellite.plane,
                       /*success=*/true, env.episode);
  }
  if (trace_ != nullptr) {
    trace_event(TraceEventType::kXlinkRecv, env.from, env.to, 0,
                (env.delivered - env.sent).to_seconds(),
                env.episode);
  }
  state->handler(env);
}

}  // namespace oaq
