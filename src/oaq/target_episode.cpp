#include "oaq/target_episode.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace oaq {

TargetEpisode::TargetEpisode(int target_id, Simulator& sim,
                             CrosslinkNetwork& net,
                             const CoverageSchedule& schedule,
                             const ProtocolConfig& cfg,
                             bool opportunity_adaptive, Rng& rng,
                             ComputeCalendar* calendar,
                             const std::set<SatelliteId>* known_failed,
                             ShardTraceBuffer* trace)
    : target_id_(target_id), sim_(&sim), net_(&net), schedule_(&schedule),
      cfg_(&cfg), oaq_(opportunity_adaptive), rng_(&rng),
      calendar_(calendar), known_failed_(known_failed), trace_(trace) {}

void TargetEpisode::trace(TraceEventType type, SatelliteId sat, int peer_slot,
                          int a, double v) const {
  if (trace_ == nullptr) return;
  TraceEvent ev;
  ev.episode = target_id_;
  ev.t_min = sim_->now().since_origin().to_minutes();
  ev.type = type;
  ev.sat = static_cast<std::int16_t>(sat.slot);
  ev.peer = static_cast<std::int16_t>(peer_slot);
  ev.a = a;
  ev.v = v;
  trace_->push(ev);
}

bool TargetEpisode::alive(TimePoint t) const {
  return t >= sig_start_ && t < sig_end_;
}

Duration TargetEpisode::sample_computation() {
  const Duration z = rng_->exponential(cfg_->nu);
  return std::min(z, cfg_->computation_cap);
}

TimePoint TargetEpisode::computation_done(SatelliteId sat) {
  const Duration z = sample_computation();
  if (calendar_ != nullptr) {
    return calendar_->schedule(sat, sim_->now(), z);
  }
  return sim_->now() + z;
}

const std::vector<Pass>& TargetEpisode::covering(TimePoint t) {
  covering_scratch_.clear();
  const Duration d = t.since_origin();
  for (const auto& p : passes_) {
    if (p.start > d) break;  // so does every later pass
    if (d < p.end) covering_scratch_.push_back(p);
  }
  return covering_scratch_;
}

TargetEpisode::AgentState& TargetEpisode::agent(SatelliteId id) {
  auto it = std::lower_bound(
      agents_.begin(), agents_.end(), id,
      [](const auto& entry, SatelliteId v) { return entry.first < v; });
  if (it == agents_.end() || it->first != id) {
    it = agents_.insert(it, {id, AgentState{}});
  }
  return it->second;
}

void TargetEpisode::reset_for(int target_id, Rng& rng,
                              ShardTraceBuffer* trace) {
  target_id_ = target_id;
  rng_ = &rng;
  trace_ = trace;
  sig_start_ = TimePoint{};
  sig_end_ = TimePoint{};
  t0_ = TimePoint{};
  deadline_ = TimePoint{};
  passes_.clear();
  agents_.clear();
  // Field-wise result reset that keeps the participants capacity.
  auto participants = std::move(result_.participants);
  participants.clear();
  result_ = EpisodeResult{};
  result_.participants = std::move(participants);
}

std::optional<Pass> TargetEpisode::next_pass_after(Duration after) const {
  const auto first =
      std::partition_point(passes_.begin(), passes_.end(),
                           [after](const Pass& p) { return p.start <= after; });
  for (auto it = first; it != passes_.end(); ++it) {
    if (known_failed_ != nullptr && known_failed_->contains(it->satellite)) {
      continue;
    }
    return *it;
  }
  return std::nullopt;
}

std::optional<Pass> TargetEpisode::next_pass_of(SatelliteId sat,
                                                Duration after) const {
  const auto first =
      std::partition_point(passes_.begin(), passes_.end(),
                           [after](const Pass& p) { return p.start < after; });
  for (auto it = first; it != passes_.end(); ++it) {
    if (it->satellite == sat) return *it;
  }
  return std::nullopt;
}

void TargetEpisode::send_alert(SatelliteId reporter,
                               const GeolocationSummary& summary) {
  if (net_->is_failed(Address::sat(reporter))) return;
  AlertMessage alert;
  alert.target_id = target_id_;
  alert.detection_time = t0_;
  alert.sent = sim_->now();
  alert.summary = summary;
  alert.reporter = reporter;
  ++result_.alerts_sent;
  trace(TraceEventType::kAlert, reporter, -1, summary.contributing_passes,
        summary.estimated_error_km);
  net_->send(Address::sat(reporter), Address::ground(), alert,
             target_id_);
}

void TargetEpisode::send_done_downstream(SatelliteId from) {
  auto& st = agent(from);
  if (!st.has_downstream) return;
  CoordinationDone done;
  done.target_id = target_id_;
  done.detection_time = t0_;
  done.reporter = from;
  net_->send(Address::sat(from), Address::sat(st.downstream), done,
             target_id_);
}

void TargetEpisode::finish(SatelliteId sat, TraceEventType cause) {
  auto& st = agent(sat);
  trace(cause, sat, -2, result_.chain_length, st.own.estimated_error_km);
  ++result_.terminations;
  if (st.resolved) ++result_.double_terminations;
  if (cause == TraceEventType::kTermWaitDeadline) ++result_.wait_rescues;
  st.resolved = true;
  send_alert(sat, st.own);
  if (cfg_->backward_messaging) send_done_downstream(sat);
}

bool TargetEpisode::tc1_holds(const GeolocationSummary& s) const {
  return cfg_->error_threshold_km > 0.0 &&
         s.estimated_error_km <= cfg_->error_threshold_km;
}

bool TargetEpisode::tc2_holds(int n) const {
  // δ_eff = δ for best-effort links; with reliable links the margin must
  // absorb the worst-case retry latency (ProtocolConfig::effective_delta).
  const Duration elapsed = sim_->now() - t0_;
  const Duration margin =
      cfg_->tau -
      (static_cast<double>(n) * cfg_->effective_delta() + cfg_->tg);
  return elapsed > margin;
}

void TargetEpisode::after_iteration(SatelliteId sat, Duration my_pass_start) {
  auto& st = agent(sat);
  if (sim_->now() > deadline_) {
    trace(TraceEventType::kTermLate, sat, -2, result_.chain_length,
          st.own.estimated_error_km);
    ++result_.terminations;
    if (st.resolved) ++result_.double_terminations;
    st.resolved = true;  // a downstream timeout already covered the alert
    return;
  }
  if (tc1_holds(st.own)) {
    finish(sat, TraceEventType::kTermTc1);
    return;
  }
  if (tc2_holds(st.ordinal)) {
    finish(sat, TraceEventType::kTermTc2);
    return;
  }
  const auto next = next_pass_after(my_pass_start);
  if (!next || next->satellite == sat) {
    finish(sat, TraceEventType::kTermGeometry);  // nobody else will arrive
    return;
  }
  // Window-of-opportunity margin (the geometry behind Eq. (2), plus the
  // TC-2 timing margin applied to the peer's KNOWN arrival time): continue
  // only if arrival + Tg + n·δ < t0 + τ, which also guarantees the "done"
  // reaches this satellite before its own wait deadline.
  const TimePoint completion_bound =
      TimePoint::at(next->start) + cfg_->tg +
      static_cast<double>(st.ordinal) * cfg_->effective_delta();
  if (completion_bound >= deadline_) {
    finish(sat, TraceEventType::kTermWindow);
    return;
  }
  st.last_request_pass_start = next->start;
  CoordinationRequest req;
  req.target_id = target_id_;
  req.detection_time = t0_;
  req.receiver_ordinal = st.ordinal + 1;
  req.summary = st.own;
  req.requester = sat;
  ++result_.coordination_requests;
  trace(TraceEventType::kChainHop, sat, next->satellite.slot, st.ordinal,
        st.own.estimated_error_km);
  net_->send(Address::sat(sat), Address::sat(next->satellite), req,
             target_id_);

  if (cfg_->backward_messaging) {
    st.waiting = true;
    const TimePoint wait_deadline =
        t0_ + cfg_->tau -
        static_cast<double>(st.ordinal - 1) * cfg_->effective_delta();
    if (wait_deadline <= sim_->now()) {
      on_wait_timeout(sat);
      return;
    }
    st.wait_timeout =
        sim_->schedule_at(wait_deadline, [this, sat] { on_wait_timeout(sat); });
  } else {
    st.resolved = true;  // forward responsibility: no waiting
  }
}

void TargetEpisode::on_wait_timeout(SatelliteId sat) {
  auto& st = agent(sat);
  if (!st.waiting || st.resolved) return;
  trace(TraceEventType::kWaitDeadline, sat, -2, st.ordinal, 0.0);
  st.waiting = false;
  finish(sat, TraceEventType::kTermWaitDeadline);
}

void TargetEpisode::on_done(SatelliteId sat) {
  auto& st = agent(sat);
  if (st.resolved) return;
  trace(TraceEventType::kDone, sat, -2, st.ordinal, 0.0);
  st.resolved = true;
  if (st.waiting) {
    st.waiting = false;
    sim_->cancel(st.wait_timeout);
  }
  if (cfg_->backward_messaging) send_done_downstream(sat);
}

void TargetEpisode::on_request(SatelliteId self,
                               const CoordinationRequest& req) {
  auto& st = agent(self);
  st.ordinal = req.receiver_ordinal;
  st.own = req.summary;  // inherited until own measurements arrive
  st.downstream = req.requester;
  st.has_downstream = true;
  const auto pass =
      next_pass_of(self, sim_->now().since_origin() - Duration::seconds(1));
  if (!pass) {
    handle_cannot_compute(self, sim_->now());
    return;
  }
  const TimePoint arrival = std::max(TimePoint::at(pass->start), sim_->now());
  sim_->schedule_at(arrival, [this, self, pass = *pass, arrival] {
    if (!alive(arrival)) {
      handle_cannot_compute(self, arrival);  // TC-3
      return;
    }
    auto& state = agent(self);
    state.own.contributing_passes += 1;
    state.own.simultaneous = false;
    state.own.estimated_error_km =
        cfg_->accuracy.sequential_error_km(state.own.contributing_passes);
    result_.participants.push_back(self);
    result_.chain_length =
        std::max(result_.chain_length, state.own.contributing_passes);
    const TimePoint done_at = computation_done(self);
    sim_->schedule_at(done_at, [this, self, start = pass.start] {
      after_iteration(self, start);
    });
  });
}

void TargetEpisode::handle_cannot_compute(SatelliteId self, TimePoint when) {
  auto& st = agent(self);
  trace(TraceEventType::kTermTc3, self, -2, result_.chain_length,
        st.own.estimated_error_km);
  ++result_.terminations;
  if (st.resolved) ++result_.double_terminations;
  st.resolved = true;
  if (!cfg_->backward_messaging) {
    // Forward responsibility: forward the predecessor's result (timeliness
    // recorded at the ground).
    (void)when;
    send_alert(self, st.own);
  }
  // Backward messaging: stay silent; the predecessor's timeout fires.
}

void TargetEpisode::on_detection() {
  result_.detected = true;
  result_.detection = t0_;
  const auto& cover = covering(t0_);
  OAQ_ENSURE(!cover.empty(), "detection without coverage");
  const SatelliteId s1 = cover.front().satellite;
  auto& st = agent(s1);
  st.ordinal = 1;
  result_.participants.push_back(s1);
  trace(TraceEventType::kDetection, s1, -2, static_cast<int>(cover.size()),
        0.0);

  if (cover.size() >= 2) {
    start_simultaneous(s1, static_cast<int>(cover.size()));
    return;
  }

  st.own.contributing_passes = 1;
  st.own.simultaneous = false;
  st.own.estimated_error_km = cfg_->accuracy.sequential_error_km(1);
  result_.chain_length = 1;

  if (!oaq_) {
    sim_->schedule_after(cfg_->tg,
                         [this, s1] { finish(s1, TraceEventType::kTermBaq); });
    return;
  }

  // OAQ: is a simultaneous-coverage opportunity coming before τ? The
  // sweep starts at t0, so the first window (when any) is the one whose
  // start the withhold targets.
  const std::optional<Duration> t_sim = first_overlap_start(
      passes_, t0_.since_origin(), deadline_.since_origin(), overlap_scratch_);
  if (t_sim) {
    trace(TraceEventType::kWithhold, s1, -2, 0,
          (*t_sim - t0_.since_origin()).to_minutes());
    sim_->schedule_at(TimePoint::at(*t_sim), [this, s1, t = *t_sim] {
      if (!alive(TimePoint::at(t))) {
        schedule_preliminary_at_deadline(s1);
        return;
      }
      start_simultaneous(s1, 2);
    });
    return;
  }
  sim_->schedule_after(cfg_->tg, [this, s1, pass_start = cover.front().start] {
    after_iteration(s1, pass_start);
  });
}

void TargetEpisode::start_simultaneous(SatelliteId s1, int co_observers) {
  auto& st = agent(s1);
  st.own.contributing_passes = co_observers;
  st.own.simultaneous = true;
  st.own.estimated_error_km = cfg_->accuracy.simultaneous_error_km();
  result_.chain_length = std::max(result_.chain_length, co_observers);
  const TimePoint done_at = computation_done(s1);
  if (done_at <= deadline_) {
    sim_->schedule_at(done_at, [this, s1] {
      finish(s1, TraceEventType::kTermSimultaneous);
    });
  } else {
    schedule_preliminary_at_deadline(s1);
  }
}

void TargetEpisode::schedule_preliminary_at_deadline(SatelliteId s1) {
  sim_->schedule_at(deadline_, [this, s1] {
    auto& st = agent(s1);
    st.own.contributing_passes = 1;
    st.own.simultaneous = false;
    st.own.estimated_error_km = cfg_->accuracy.sequential_error_km(1);
    finish(s1, TraceEventType::kTermPreliminary);
  });
}

bool TargetEpisode::arm(TimePoint signal_start, Duration signal_duration) {
  OAQ_REQUIRE(signal_duration > Duration::zero(),
              "signal duration must be positive");
  sig_start_ = signal_start;
  sig_end_ = signal_start + signal_duration;

  const Duration from = signal_start.since_origin() - Duration::minutes(20);
  const Duration to = signal_start.since_origin() +
                      std::min(signal_duration, Duration::minutes(30)) +
                      cfg_->tau + Duration::minutes(60);
  schedule_->passes_into(from, to, passes_);

  std::optional<TimePoint> t0;
  if (!covering(signal_start).empty()) {
    t0 = signal_start;
  } else {
    for (const auto& p : passes_) {
      const TimePoint start = TimePoint::at(p.start);
      if (start >= signal_start && alive(start)) {
        t0 = start;
        break;
      }
      if (start >= sig_end_) break;
    }
  }
  // An escaped signal leaves the default result, which the context
  // returns as the episode's outcome.
  if (!t0) return false;
  result_.horizon_passes = static_cast<int>(passes_.size());

  t0_ = *t0;
  deadline_ = *t0 + cfg_->tau;
  // Agents materialize lazily on first touch: only the satellites the
  // coordination actually reaches (the chain, not the whole pass horizon)
  // ever get state. Default-constructed states are invisible to
  // finalize() (ordinal == 0), so skipping the old horizon-wide pre-touch
  // — at mega-constellation scale, hundreds of entries per episode — is
  // behavior-neutral and keeps arm() O(|passes|).
  sim_->schedule_at(t0_, [this] { on_detection(); });
  return true;
}

void TargetEpisode::handle_satellite_message(SatelliteId self,
                                             const Envelope& env) {
  if (const auto* req = env.payload.get_if<CoordinationRequest>()) {
    if (req->target_id == target_id_) on_request(self, *req);
    return;
  }
  if (const auto* done = env.payload.get_if<CoordinationDone>()) {
    if (done->target_id == target_id_) on_done(self);
  }
}

void TargetEpisode::handle_ground_alert(const AlertMessage& alert) {
  if (alert.target_id != target_id_) return;
  if (result_.alert_delivered) return;
  result_.alert_delivered = true;
  result_.level = alert.summary.level();
  result_.reported_error_km = alert.summary.estimated_error_km;
  result_.first_alert_sent = alert.sent;
  result_.timely = alert.sent <= deadline_;
  trace(TraceEventType::kAlertDelivered, alert.reporter, -1,
        to_int(result_.level), (alert.sent - t0_).to_minutes());
}

void TargetEpisode::handle_send_failure(const Envelope& env,
                                        DropReason reason) {
  (void)reason;
  // Only coordination requests are re-routed: a lost "done" is covered by
  // the wait-deadline rescue, and downlink alerts are lossless.
  const auto* req = env.payload.get_if<CoordinationRequest>();
  if (req == nullptr || req->target_id != target_id_) return;
  const SatelliteId sat = req->requester;
  auto& st = agent(sat);
  // Backward messaging: a requester that already resolved (rescue fired,
  // or done arrived through an earlier route) must not grow the chain.
  if (cfg_->backward_messaging && (st.resolved || !st.waiting)) return;
  if (sim_->now() > deadline_) return;  // past τ the rescue already covers
  if (net_->is_failed(Address::sat(sat))) return;

  // Next live downstream candidate, skipping the requester itself and the
  // peer that just failed. With self-healing links on, a first scan also
  // skips candidates reachable only over a demoted (avoided) link; if no
  // healthy candidate is feasible, a second scan allows them — probing a
  // suspect link is never worse than giving up.
  const bool health = net_->options().health.enabled;
  std::optional<Pass> next;
  bool rerouted = false;
  for (int scan = 0; scan < (health ? 2 : 1) && !next; ++scan) {
    const bool avoid = health && scan == 0;
    bool avoided_any = false;
    Duration after = st.last_request_pass_start;
    for (;;) {
      next = next_pass_after(after);
      if (!next) break;  // chain exhausted on this scan
      if (next->satellite != sat && next->satellite != env.to.satellite) {
        if (avoid &&
            net_->link_avoided(sat.plane, next->satellite.plane)) {
          avoided_any = true;
          after = next->start;
          next.reset();
          continue;
        }
        break;
      }
      after = next->start;
      next.reset();
    }
    // A re-route is a resend that skipped >= 1 demoted relay AND settled
    // on a healthy one; the allow-all second scan is a probe, not one.
    rerouted = next.has_value() && avoid && avoided_any;
  }
  if (!next) return;  // chain exhausted; the wait deadline stands
  const TimePoint completion_bound =
      TimePoint::at(next->start) + cfg_->tg +
      static_cast<double>(st.ordinal) * cfg_->effective_delta();
  if (completion_bound >= deadline_) return;  // no window left

  if (rerouted) {
    // Counted against invariant I9's livelock bound; each re-route
    // strictly advances the requester's pass cursor.
    ++result_.reroutes;
    net_->note_reroute(target_id_);
  }
  st.last_request_pass_start = next->start;
  ++result_.coordination_requests;
  trace(TraceEventType::kChainHop, sat, next->satellite.slot, st.ordinal,
        st.own.estimated_error_km);
  net_->send(Address::sat(sat), Address::sat(next->satellite), *req,
             target_id_);
}

void TargetEpisode::finalize() {
  for (const auto& [id, st] : agents_) {
    if (st.ordinal > 0 && !st.resolved &&
        !net_->is_failed(Address::sat(id))) {
      result_.all_participants_resolved = false;
    }
  }
}

}  // namespace oaq
