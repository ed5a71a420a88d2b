#include "fault/injector.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace oaq {

namespace {

constexpr TraceEventType trace_type_of(FaultClauseKind kind) {
  switch (kind) {
    case FaultClauseKind::kFailSilent:
      return TraceEventType::kFaultFailSilent;
    case FaultClauseKind::kRecover:
      return TraceEventType::kFaultRecover;
    case FaultClauseKind::kLinkOutage:
      return TraceEventType::kFaultLinkOutage;
    case FaultClauseKind::kDelaySpike:
      return TraceEventType::kFaultDelaySpike;
    case FaultClauseKind::kBurstLoss:
      return TraceEventType::kFaultBurstLoss;
    case FaultClauseKind::kPartition:
      return TraceEventType::kFaultPartition;
    case FaultClauseKind::kLinkLoss:
      return TraceEventType::kFaultLinkLoss;
    case FaultClauseKind::kGeLoss:
    case FaultClauseKind::kOutageTrain:
    case FaultClauseKind::kSatLifecycle:
      // Stochastic kinds are expanded away before arming; they never
      // reach the event loop (the mapping is only for completeness).
      return TraceEventType::kFaultLinkLoss;
  }
  return TraceEventType::kFaultFailSilent;  // unreachable
}

}  // namespace

FaultInjector::FaultInjector(Simulator& sim, CrosslinkNetwork& net,
                             const FaultPlan& plan, Rng rng,
                             ShardTraceBuffer* trace, std::int64_t episode_id,
                             EpisodeLedger* ledger,
                             FaultProcessExpander* expander)
    : sim_(&sim),
      net_(&net),
      plan_(&plan),
      rng_(rng),
      trace_(trace),
      episode_id_(episode_id),
      ledger_(ledger),
      expander_(expander) {}

void FaultInjector::arm(TimePoint anchor) {
  OAQ_REQUIRE(!armed_, "a FaultInjector arms exactly once");
  armed_ = true;
  if (has_stochastic_clauses(*plan_)) {
    // Expand the generative clauses into scripted ones from the reserved
    // fault stream — before any event fires, so protocol draws are
    // untouched and the expansion is identical at any worker count.
    if (expander_ == nullptr) {
      owned_expander_ = std::make_unique<FaultProcessExpander>();
      expander_ = owned_expander_.get();
    }
    const std::uint64_t truncated = expander_->stats().truncated_clauses;
    plan_ = &expander_->expand(*plan_, rng_);
    stats_.expanded_clauses = plan_->size();
    stats_.truncated_clauses =
        expander_->stats().truncated_clauses - truncated;
  }
  stats_.clauses_armed = plan_->size();
  if (plan_->empty()) return;

  net_->reserve_fault_state(plan_->max_plane() + 1, plan_->size());
  const auto& clauses = plan_->clauses();
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const FaultClause& c = clauses[i];
    if (c.windowed()) {
      sim_->schedule_at(std::max(anchor + c.window_start, sim_->now()),
                        [this, i] { activate(i); });
      sim_->schedule_at(std::max(anchor + c.window_end, sim_->now()),
                        [this, i] { deactivate(i); });
    } else {
      sim_->schedule_at(std::max(anchor + c.at, sim_->now()),
                        [this, i] { activate(i); });
    }
  }
}

void FaultInjector::activate(std::size_t index) {
  const FaultClause& c = plan_->clauses()[index];
  const auto token = static_cast<std::uint32_t>(index);
  switch (c.kind) {
    case FaultClauseKind::kFailSilent:
      net_->fail_silent(Address::sat(c.satellite));
      break;
    case FaultClauseKind::kRecover:
      net_->recover(Address::sat(c.satellite));
      break;
    case FaultClauseKind::kLinkOutage:
      net_->block_link(c.plane_a, c.plane_b);
      break;
    case FaultClauseKind::kDelaySpike:
      net_->push_delay_scale(token, c.value);
      break;
    case FaultClauseKind::kBurstLoss:
      net_->push_loss_override(token, c.value);
      break;
    case FaultClauseKind::kPartition:
      net_->push_partition(token, c.plane_mask);
      break;
    case FaultClauseKind::kLinkLoss:
      net_->push_link_loss(token, c.plane_a, c.plane_b, c.value);
      break;
    case FaultClauseKind::kGeLoss:
    case FaultClauseKind::kOutageTrain:
    case FaultClauseKind::kSatLifecycle:
      break;  // unreachable: expanded away in arm()
  }
  if (c.origin == FaultClauseOrigin::kLifecycle) {
    // Spare-swap accounting (invariant I11): lifecycle expansions always
    // emit matched death/spare pairs, and both events always fire.
    if (c.kind == FaultClauseKind::kFailSilent) ++stats_.lifecycle_deaths;
    if (c.kind == FaultClauseKind::kRecover) ++stats_.lifecycle_spares;
  }
  ++stats_.activations;
  if (ledger_ != nullptr) ledger_->record_fault(episode_id_);
  trace_clause(c, +1);
}

void FaultInjector::deactivate(std::size_t index) {
  const FaultClause& c = plan_->clauses()[index];
  const auto token = static_cast<std::uint32_t>(index);
  switch (c.kind) {
    case FaultClauseKind::kLinkOutage:
      net_->unblock_link(c.plane_a, c.plane_b);
      break;
    case FaultClauseKind::kDelaySpike:
      net_->pop_delay_scale(token);
      break;
    case FaultClauseKind::kBurstLoss:
      net_->pop_loss_override(token);
      break;
    case FaultClauseKind::kPartition:
      net_->pop_partition(token);
      break;
    case FaultClauseKind::kLinkLoss:
      net_->pop_link_loss(token);
      break;
    case FaultClauseKind::kFailSilent:
    case FaultClauseKind::kRecover:
      break;  // point clauses never deactivate
    case FaultClauseKind::kGeLoss:
    case FaultClauseKind::kOutageTrain:
    case FaultClauseKind::kSatLifecycle:
      break;  // unreachable: expanded away in arm()
  }
  trace_clause(c, -1);
}

void FaultInjector::trace_clause(const FaultClause& c,
                                 std::int32_t direction) const {
  if (trace_ == nullptr) return;
  TraceEvent ev;
  ev.episode = episode_id_;
  ev.t_min = sim_->now().since_origin().to_minutes();
  ev.type = trace_type_of(c.kind);
  ev.a = direction;
  switch (c.kind) {
    case FaultClauseKind::kFailSilent:
    case FaultClauseKind::kRecover:
      ev.sat = static_cast<std::int16_t>(c.satellite.slot);
      ev.peer = static_cast<std::int16_t>(c.satellite.plane);
      break;
    case FaultClauseKind::kLinkOutage:
      ev.sat = static_cast<std::int16_t>(c.plane_a);
      ev.peer = static_cast<std::int16_t>(c.plane_b);
      break;
    case FaultClauseKind::kDelaySpike:
    case FaultClauseKind::kBurstLoss:
      ev.v = c.value;
      break;
    case FaultClauseKind::kPartition:
      ev.v = static_cast<double>(c.plane_mask.low_word());
      break;
    case FaultClauseKind::kLinkLoss:
      ev.sat = static_cast<std::int16_t>(c.plane_a);
      ev.peer = static_cast<std::int16_t>(c.plane_b);
      ev.v = c.value;
      break;
    case FaultClauseKind::kGeLoss:
    case FaultClauseKind::kOutageTrain:
    case FaultClauseKind::kSatLifecycle:
      break;  // unreachable: expanded away in arm()
  }
  trace_->push(ev);
}

}  // namespace oaq
