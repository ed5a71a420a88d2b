// Inter-satellite crosslink network.
//
// The OAQ protocol is "enabled by message-passing over crosslinks between
// neighboring satellites" (§3.1). This module is the transport: typed
// envelopes between addresses (satellites or the ground station) with a
// bounded random delay (the paper's δ is the *maximum* inter-satellite
// message-delivery delay), optional loss, and fail-silent node injection.
// The protocol layer (src/oaq) defines the payload types.
//
// Hot-path layout (ISSUE 3): per-address state lives in dense vectors
// indexed by (plane, slot) — no ordered-map lookups per delivery — and
// in-flight envelopes are pooled with a free list, so the delivery event
// captures only a pool slot and the DES kernel keeps it inline.
//
// Degradation hooks (ISSUE 5): the FaultInjector drives time-varying link
// state — refcounted per-plane-pair outages, plane-set partitions,
// multiplicative delay scaling, and windowed loss overrides — through the
// push/pop methods below; all of it is branch-gated so the undegraded path
// is bit-identical to the pre-fault transport. An optional reliable mode
// retries failed attempts with exponential backoff (ack-timeout model; see
// DESIGN.md §11 for the δ_eff bound the protocol layer consumes).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/plane_set.hpp"
#include "common/rng.hpp"
#include "net/payload.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "orbit/plane.hpp"
#include "sim/simulator.hpp"

namespace oaq {

/// A network endpoint: a satellite or the ground station.
struct Address {
  enum class Kind : std::uint8_t { kSatellite, kGround };

  Kind kind = Kind::kSatellite;
  SatelliteId satellite{};  ///< meaningful when kind == kSatellite

  [[nodiscard]] static Address sat(SatelliteId id) {
    return {Kind::kSatellite, id};
  }
  [[nodiscard]] static Address ground() { return {Kind::kGround, {}}; }

  friend constexpr bool operator==(const Address&, const Address&) = default;
  friend constexpr auto operator<=>(const Address&, const Address&) = default;
};

/// A delivered message.
struct Envelope {
  Address from;
  Address to;
  TimePoint sent{};       ///< original send() time (first attempt)
  TimePoint delivered{};
  int attempt = 0;        ///< retransmissions consumed (reliable mode)
  TimePoint attempt_started{};  ///< start of the current attempt
  /// Episode/target id of the sending protocol agent; -1 for traffic that
  /// belongs to no episode (membership gossip). Drives the per-episode
  /// attribution ledger on shared-network campaigns.
  std::int64_t episode = -1;
  Payload payload;
};

/// Counters for observability and tests.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_loss = 0;        ///< random loss
  std::uint64_t dropped_dead_sender = 0;
  std::uint64_t dropped_dead_receiver = 0;
  std::uint64_t dropped_unregistered = 0;
  std::uint64_t dropped_link = 0;        ///< link outage / partition window
  std::uint64_t retries = 0;             ///< reliable-mode retransmissions
  std::uint64_t retries_exhausted = 0;   ///< final drops after >= 1 retry
  // Link-health estimator counters (ISSUE 10; zero when health is off).
  std::uint64_t links_demoted = 0;       ///< healthy → demoted transitions
  std::uint64_t links_restored = 0;      ///< demoted → healthy transitions
  std::uint64_t link_probations = 0;     ///< demotions + probation escalations
  std::uint64_t link_probes = 0;         ///< attempts risked over demoted links
  std::uint64_t reroutes = 0;            ///< note_reroute() calls (chain layer)
};

/// Simulated crosslink / downlink message bus.
class CrosslinkNetwork {
 public:
  struct Options {
    /// Delivery delay is uniform in [min_delay, max_delay]; max_delay is
    /// the paper's δ.
    Duration min_delay = Duration::seconds(10);
    Duration max_delay = Duration::seconds(30);
    double loss_probability = 0.0;
    /// Exempt messages addressed to the ground station from random loss
    /// (downlinks are acknowledged/retried in practice; crosslinks are
    /// the lossy hops the protocol must tolerate).
    bool lossless_to_ground = false;
    /// Reliable delivery: a failed attempt (loss, dead receiver, link
    /// down) is retransmitted after an ack timeout of 2·max_delay·base^i
    /// from the attempt's start, up to `retry_limit` retries. Worst-case
    /// total delay is ProtocolConfig::effective_delta() — the δ_eff the
    /// wait-deadline math consumes.
    bool reliable = false;
    int retry_limit = 2;
    double backoff_base = 2.0;
    /// Per-plane-pair link-health estimator (ISSUE 10): an EWMA of
    /// delivery outcomes feeds a hysteretic demote/restore state machine
    /// the chain layer consults for re-routing. Entirely branch-gated on
    /// `enabled` — the default path is bit-identical to the pre-health
    /// transport.
    struct HealthOptions {
      bool enabled = false;
      double alpha = 0.2;          ///< EWMA weight of the newest sample
      double demote_below = 0.5;   ///< demote when ewma drops under this
      double restore_above = 0.7;  ///< restore when ewma recovers past this
      /// Base probation after a demotion; a link is avoided for new
      /// chains until it elapses. Escalates by `probation_backoff` per
      /// consecutive demotion, capped at `probation_cap` (callers set the
      /// cap to the protocol's τ so a probed link stays τ-feasible).
      Duration probation = Duration::seconds(60);
      double probation_backoff = 2.0;
      Duration probation_cap = Duration::minutes(5);
    };
    HealthOptions health;
  };

  using Handler = std::function<void(const Envelope&)>;
  /// Observer of *final* drops (after any retry budget is spent). Called
  /// with the dropped envelope after its pool slot is released, so the
  /// handler may send. Not called for dead-sender drops (the would-be
  /// retrier is gone).
  using DropHandler = std::function<void(const Envelope&, DropReason)>;

  CrosslinkNetwork(Simulator& sim, Options options, Rng rng);

  /// Attach a handler for messages addressed to `node`. One handler per
  /// address: registering over a live handler is a precondition error
  /// (it would silently swallow the first handler's traffic). The one
  /// sanctioned re-registration is of a fail-silent node, which replaces
  /// the handler and revives it. Must not be called from inside a handler
  /// (the dense tables may grow under the executing handler).
  void register_node(const Address& node, Handler handler);

  /// Make a node fail-silent: it no longer receives or sends, with no
  /// notification to anyone — the failure mode of §3.2.
  void fail_silent(const Address& node);

  /// Revive a fail-silent node with its original handler (the injector's
  /// `recover` clause). A node that was never registered stays dead.
  void recover(const Address& node);

  [[nodiscard]] bool is_failed(const Address& node) const;

  /// True when `node` has a handler, live or fail-silent. Inline: the
  /// episode context asks once per horizon pass, every episode.
  [[nodiscard]] bool has_handler(const Address& node) const {
    if (node.kind == Address::Kind::kGround) return ground_.handler != nullptr;
    const auto plane = static_cast<std::size_t>(node.satellite.plane);
    const auto slot = static_cast<std::size_t>(node.satellite.slot);
    return plane < sats_.size() && slot < sats_[plane].size() &&
           sats_[plane][slot].handler != nullptr;
  }

  /// Queue a message. It is delivered after a random delay unless lost or
  /// either endpoint is fail-silent at the relevant moment (send checks the
  /// sender now; delivery checks the receiver then). `episode` tags the
  /// envelope with the sending episode/target id for the attribution
  /// ledger; -1 (no episode) falls back to the trace episode, so
  /// single-episode callers are unchanged.
  void send(const Address& from, const Address& to, Payload payload,
            std::int64_t episode = -1);

  /// Return the network to its just-constructed state for the next episode
  /// in a batch, keeping everything reusable: registered handlers, the
  /// drop handler, the envelope pool and its free list, and the reserved
  /// degradation tables all survive; stats, fail-silent flags, degradation
  /// windows, and the trace sink are cleared and the RNG is re-seeded.
  /// Precondition: no envelope in flight (the simulator has drained).
  void reset(Rng rng);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Attach a trace sink: every send/recv/drop is recorded as an
  /// xlink_* event stamped with its envelope's episode id; episode-less
  /// sends inherit `episode_id` (-1 when the network is shared by many
  /// episodes, as in campaigns). Null disables tracing — the recording
  /// sites are a single branch on the pointer.
  void set_trace(ShardTraceBuffer* trace, std::int64_t episode_id) {
    trace_ = trace;
    trace_episode_ = episode_id;
  }

  /// Attach a final-drop observer (the episode engine's re-route hook).
  void set_drop_handler(DropHandler handler) {
    drop_handler_ = std::move(handler);
  }

  /// Attach a per-episode attribution ledger: every final drop, retry, and
  /// exhausted retry budget is recorded against the owning envelope's
  /// episode id (the global row for episode-less traffic). Null disables —
  /// one branch per recording site, like the trace sink.
  void set_ledger(EpisodeLedger* ledger) { ledger_ = ledger; }

  // --- Degradation hooks (FaultInjector). Tokens identify the pushing
  // clause so windows may overlap in any order; all effective values are
  // order-independent (max for loss, product for delay, set membership
  // for partitions, refcounts for outages). ---

  /// Pre-size the degradation tables so the injector's activate/deactivate
  /// events allocate nothing in steady state.
  void reserve_fault_state(int planes, std::size_t clauses);

  /// Block every crosslink between two planes (refcounted; symmetric).
  void block_link(int plane_a, int plane_b);
  void unblock_link(int plane_a, int plane_b);

  /// Multiply delivery delays by `factor` while active.
  void push_delay_scale(std::uint32_t token, double factor);
  void pop_delay_scale(std::uint32_t token);

  /// Override crosslink loss while active; the effective probability is
  /// the max of the base and every active override.
  void push_loss_override(std::uint32_t token, double probability);
  void pop_loss_override(std::uint32_t token);

  /// Partition the constellation: links crossing the plane-set boundary
  /// (exactly one endpoint's plane in `plane_mask`) are down. Ground
  /// links are exempt. Planes >= PlaneSet::kMaxPlanes are never in a mask.
  void push_partition(std::uint32_t token, PlaneSet plane_mask);
  void pop_partition(std::uint32_t token);

  /// Raise loss on the crosslinks between one plane pair (symmetric)
  /// while active; the effective probability for a matching link is the
  /// max of the base, global overrides, and every matching link override.
  void push_link_loss(std::uint32_t token, int plane_a, int plane_b,
                      double probability);
  void pop_link_loss(std::uint32_t token);

  // --- Link health (ISSUE 10; all no-ops unless options().health.enabled).

  /// True when the plane pair is demoted and still inside its probation —
  /// the chain layer should prefer another relay when one is feasible.
  [[nodiscard]] bool link_avoided(int plane_a, int plane_b) const;

  /// Chain layer notification: a send was re-routed around an avoided or
  /// failed link. Counts into stats and the episode ledger.
  void note_reroute(std::int64_t episode);

  /// Currently demoted plane pairs.
  [[nodiscard]] int demoted_link_count() const { return demoted_links_; }

  /// Health EWMA of a plane pair (1.0 when never sampled) — test hook.
  [[nodiscard]] double link_health_ewma(int plane_a, int plane_b) const;

  /// True when any windowed degradation (outage, partition, loss or delay
  /// override, per-link loss) is still active — invariant I12 demands
  /// this quiesce once the fault process does.
  [[nodiscard]] bool degradation_active() const {
    return active_link_blocks_ > 0 || !partitions_.empty() ||
           !loss_overrides_.empty() || !delay_factors_.empty() ||
           !link_losses_.empty();
  }

  /// True when every health cell is back to its never-sampled state and
  /// no link is demoted — the reset() postcondition the property tests
  /// pin.
  [[nodiscard]] bool health_pristine() const;

 private:
  /// Per-address state, held in dense per-plane vectors (plus one ground
  /// entry). A default-constructed entry means "never seen".
  struct NodeState {
    Handler handler;  ///< null = unregistered
    bool failed = false;
  };

  /// Dense lookup; null when the address was never registered or failed.
  [[nodiscard]] const NodeState* find(const Address& addr) const;
  /// Dense lookup, growing the per-plane tables on demand.
  [[nodiscard]] NodeState& ensure(const Address& addr);

  /// One transmission attempt of the pooled envelope in `slot`: link /
  /// loss checks, delay draw, delivery event.
  void attempt(std::uint32_t slot);
  /// Deliver the pooled envelope in `slot` (the DES callback body).
  void deliver(std::uint32_t slot);
  /// A failed attempt: retry (reliable mode, budget left) or final drop.
  void fail_attempt(std::uint32_t slot, DropReason reason);
  /// Release the slot, count and trace the drop, notify the drop handler.
  void final_drop(std::uint32_t slot, DropReason reason);

  [[nodiscard]] std::uint32_t alloc_slot();
  [[nodiscard]] bool link_blocked(const Address& from,
                                  const Address& to) const;
  [[nodiscard]] double effective_loss(const Address& from,
                                      const Address& to) const {
    double p = options_.loss_probability;
    for (const auto& [token, override_p] : loss_overrides_) {
      if (override_p > p) p = override_p;
    }
    if (!link_losses_.empty() && from.kind == Address::Kind::kSatellite &&
        to.kind == Address::Kind::kSatellite) {
      const int pa = from.satellite.plane;
      const int pb = to.satellite.plane;
      for (const LinkLoss& l : link_losses_) {
        const bool match = (l.plane_a == pa && l.plane_b == pb) ||
                           (l.plane_a == pb && l.plane_b == pa);
        if (match && l.probability > p) p = l.probability;
      }
    }
    return p;
  }
  [[nodiscard]] std::uint16_t& link_block_count(int plane_a, int plane_b);
  void recompute_delay_scale();

  /// One EWMA delivery-outcome sample on a satellite-satellite link;
  /// drives the demote/restore hysteresis. Health must be enabled.
  void record_link_sample(int plane_a, int plane_b, bool success,
                          std::int64_t episode);
  [[nodiscard]] Duration probation_of(int level) const;

  /// Trace encoding of an address: satellite slot, or -1 for the ground.
  [[nodiscard]] static std::int16_t trace_slot(const Address& addr) {
    return addr.kind == Address::Kind::kGround
               ? std::int16_t{-1}
               : static_cast<std::int16_t>(addr.satellite.slot);
  }
  void trace_event(TraceEventType type, const Address& from,
                   const Address& to, std::int32_t a, double v,
                   std::int64_t episode) const;
  /// Plane-level health event (sat/peer carry plane indices).
  void trace_link_event(TraceEventType type, int plane_a, int plane_b,
                        std::int32_t a, double v, std::int64_t episode) const;

  Simulator* sim_;
  Options options_;
  Rng rng_;
  NodeState ground_;
  std::vector<std::vector<NodeState>> sats_;  ///< [plane][slot]
  bool any_failed_ = false;  ///< any fail_silent() since reset
  std::vector<Envelope> pool_;                ///< in-flight envelope slab
  std::vector<std::uint32_t> free_slots_;
  NetworkStats stats_;
  ShardTraceBuffer* trace_ = nullptr;
  std::int64_t trace_episode_ = -1;
  EpisodeLedger* ledger_ = nullptr;
  DropHandler drop_handler_;

  // Degradation state. All empty/zero on the undegraded path, where every
  // hot-path read collapses to one predictable branch.
  int link_block_planes_ = 0;     ///< side length of the refcount matrix
  int active_link_blocks_ = 0;    ///< total live block_link refs
  std::vector<std::uint16_t> link_blocks_;  ///< [plane_a * n + plane_b]
  std::vector<std::pair<std::uint32_t, PlaneSet>> partitions_;
  std::vector<std::pair<std::uint32_t, double>> loss_overrides_;
  std::vector<std::pair<std::uint32_t, double>> delay_factors_;
  double delay_scale_ = 1.0;  ///< product of active factors; 1 when none

  /// One active per-link loss window (push_link_loss).
  struct LinkLoss {
    std::uint32_t token = 0;
    int plane_a = 0;
    int plane_b = 0;
    double probability = 0.0;
  };
  std::vector<LinkLoss> link_losses_;

  /// Per-plane-pair health cell. Default state = pristine: fully healthy,
  /// never demoted.
  struct LinkHealth {
    double ewma = 1.0;
    bool demoted = false;
    int level = 0;  ///< consecutive-demotion escalation (probation power)
    TimePoint retry_at{};

    friend bool operator==(const LinkHealth&, const LinkHealth&) = default;
  };
  [[nodiscard]] LinkHealth& health_cell(int plane_a, int plane_b);
  [[nodiscard]] const LinkHealth* find_health(int plane_a,
                                              int plane_b) const;
  int health_planes_ = 0;            ///< side length of health_ matrix
  bool health_dirty_ = false;        ///< any sample recorded since reset
  int demoted_links_ = 0;            ///< currently demoted plane pairs
  std::vector<LinkHealth> health_;   ///< [plane_a * n + plane_b], a <= b
};

}  // namespace oaq
