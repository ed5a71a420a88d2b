// Per-target protocol state machine behind EpisodeContext, and reached
// only through it: a context hosts one target per simulate episode, or
// every admitted signal of a campaign replication (concurrent signals with
// compute contention). Include this header only to implement the context.
//
// A TargetEpisode owns one signal's protocol lifecycle over a Simulator
// and CrosslinkNetwork it does NOT own; the context's targets share both.
// Messages carry a target id so a satellite participating in multiple
// coordinations can dispatch to the right target.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "net/crosslink.hpp"
#include "oaq/episode.hpp"
#include "oaq/messages.hpp"
#include "oaq/schedule.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace oaq {

/// One signal's protocol run over shared infrastructure.
class TargetEpisode {
 public:
  /// `calendar` may be null (uncontended computations). `known_failed` may
  /// be null (no membership view). `trace` may be null (tracing disabled —
  /// every recording site is a single branch on the pointer). All must
  /// outlive the episode.
  TargetEpisode(int target_id, Simulator& sim, CrosslinkNetwork& net,
                const CoverageSchedule& schedule, const ProtocolConfig& cfg,
                bool opportunity_adaptive, Rng& rng,
                ComputeCalendar* calendar,
                const std::set<SatelliteId>* known_failed,
                ShardTraceBuffer* trace = nullptr);

  TargetEpisode(const TargetEpisode&) = delete;
  TargetEpisode& operator=(const TargetEpisode&) = delete;

  /// Return the episode to its just-constructed state for the next signal
  /// in a run, rebinding the per-episode inputs (target id, RNG stream,
  /// trace sink) while keeping every grown buffer — passes, agents,
  /// participants, overlap scratch — so a re-armed episode allocates
  /// nothing in steady state. The infrastructure bindings (simulator,
  /// network, schedule, config, calendar, membership view) are unchanged.
  void reset_for(int target_id, Rng& rng, ShardTraceBuffer* trace);

  /// Locate t0 and schedule the detection event. Returns true when the
  /// signal will be detected (otherwise the episode is already final:
  /// missed).
  bool arm(TimePoint signal_start, Duration signal_duration);

  /// Dispatch a delivered envelope addressed to a satellite participating
  /// in this episode (the owner routes by target id).
  void handle_satellite_message(SatelliteId self, const Envelope& env);

  /// Dispatch an alert delivered to the ground for this target.
  void handle_ground_alert(const AlertMessage& alert);

  /// Final-drop hook (CrosslinkNetwork::DropHandler): when a coordination
  /// request is lost for good — retry budget spent, link down, or the
  /// peer dead — the requester re-routes the chain to the next live
  /// downstream pass, provided the window-of-opportunity bound still
  /// holds. Its wait deadline stays armed, so the rescue guarantee is
  /// untouched when no re-route is possible.
  void handle_send_failure(const Envelope& env, DropReason reason);

  /// Run the end-of-episode resolution audit (call after the simulator
  /// has drained the horizon).
  void finalize();

  [[nodiscard]] int target_id() const { return target_id_; }
  [[nodiscard]] const EpisodeResult& result() const { return result_; }
  /// The armed episode's pass horizon; its satellites are the only ones the
  /// episode ever addresses (the owner registers network handlers for them).
  [[nodiscard]] const std::vector<Pass>& horizon() const { return passes_; }

 private:
  struct AgentState {
    int ordinal = 0;
    GeolocationSummary own;
    SatelliteId downstream{};
    bool has_downstream = false;
    bool waiting = false;
    EventId wait_timeout{};
    bool resolved = false;
    /// Pass start of the downstream peer this agent last requested —
    /// where handle_send_failure resumes the pass scan on a re-route.
    Duration last_request_pass_start = Duration::zero();
  };

  [[nodiscard]] bool alive(TimePoint t) const;
  [[nodiscard]] Duration sample_computation();
  /// Completion time of a computation by `sat` requested now (queues on
  /// the shared calendar when present).
  [[nodiscard]] TimePoint computation_done(SatelliteId sat);
  /// Passes covering `t`, written into the reusable covering scratch (the
  /// reference is valid until the next covering() call).
  [[nodiscard]] const std::vector<Pass>& covering(TimePoint t);
  /// This satellite's agent state, inserted default-constructed on first
  /// touch (the flat sorted-vector equivalent of map::operator[]).
  [[nodiscard]] AgentState& agent(SatelliteId id);
  [[nodiscard]] std::optional<Pass> next_pass_after(Duration after) const;
  [[nodiscard]] std::optional<Pass> next_pass_of(SatelliteId sat,
                                                 Duration after) const;
  void send_alert(SatelliteId reporter, const GeolocationSummary& summary);
  void send_done_downstream(SatelliteId from);
  /// Terminate `sat`'s part of the coordination; `cause` names why (one
  /// of the term_* trace events — TC-1/TC-2/TC-3, geometry, window, ...).
  void finish(SatelliteId sat, TraceEventType cause);
  /// Records a protocol event when tracing is enabled (no-op otherwise).
  void trace(TraceEventType type, SatelliteId sat, int peer_slot, int a,
             double v) const;
  [[nodiscard]] bool tc1_holds(const GeolocationSummary& s) const;
  [[nodiscard]] bool tc2_holds(int n) const;
  void after_iteration(SatelliteId sat, Duration my_pass_start);
  void on_wait_timeout(SatelliteId sat);
  void on_done(SatelliteId sat);
  void on_request(SatelliteId self, const CoordinationRequest& req);
  void handle_cannot_compute(SatelliteId self, TimePoint when);
  void on_detection();
  void start_simultaneous(SatelliteId s1, int co_observers);
  void schedule_preliminary_at_deadline(SatelliteId s1);

  int target_id_;
  Simulator* sim_;
  CrosslinkNetwork* net_;
  const CoverageSchedule* schedule_;
  const ProtocolConfig* cfg_;
  bool oaq_;
  Rng* rng_;
  ComputeCalendar* calendar_;
  const std::set<SatelliteId>* known_failed_;
  ShardTraceBuffer* trace_;

  TimePoint sig_start_{};
  TimePoint sig_end_{};
  TimePoint t0_{};
  TimePoint deadline_{};
  std::vector<Pass> passes_;
  /// Agents sorted by satellite id — the map it replaces iterated in key
  /// order, which finalize() relies on. Materialized lazily on first
  /// touch, so only the chain's actual participants (a handful, even at
  /// mega-constellation scale) ever get entries; inserts are cheap and
  /// lookups branch-predictable; capacity survives reset_for().
  std::vector<std::pair<SatelliteId, AgentState>> agents_;
  EpisodeResult result_;
  std::vector<Pass> covering_scratch_;
  std::vector<OverlapEvent> overlap_scratch_;
};

}  // namespace oaq
