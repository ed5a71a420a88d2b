// Deterministic DES-driven fault injection (ISSUE 5 tentpole).
//
// A FaultInjector replays a FaultPlan against one CrosslinkNetwork:
// arm(anchor) schedules every clause as ordinary pooled DES events (one
// for point clauses, activate + deactivate for windowed ones), so faults
// interleave with protocol events under the simulator's deterministic
// tie-breaking and the run is bit-identical at any worker count.
//
// Determinism contract: the injector owns a *dedicated* RNG fork handed
// in by the caller (episode: the protocol stream's fork(0x666c74);
// campaign: master.fork(6)). Rng::fork is const — taking the fork never
// advances the parent — so attaching a plan, or adding clause types to
// it, cannot perturb the protocol's own draws. Stochastic clauses (ge_loss,
// outage_train, sat_lifecycle — ISSUE 10) consume exactly this reserved
// stream: arm() expands them through a FaultProcessExpander into
// scripted clauses *before* any event fires, so protocol draws still see
// untouched streams and jobs-1/4/8 byte-identity holds.
//
// Cost contract: arm() does all allocation up front (event scheduling +
// CrosslinkNetwork::reserve_fault_state); the firing callbacks only flip
// pre-sized network state and push trace events — zero steady-state
// allocations (bench/fault_storm gate).
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "fault/process.hpp"
#include "net/crosslink.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace oaq {

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t clauses_armed = 0;
    std::uint64_t activations = 0;  ///< fired activate events (a = +1)
    /// Scripted clauses after stochastic expansion (0 for scripted plans).
    std::uint64_t expanded_clauses = 0;
    /// Stochastic clauses whose sample path this arm cut short at
    /// FaultProcessExpander::kMaxIntervalsPerClause.
    std::uint64_t truncated_clauses = 0;
    std::uint64_t lifecycle_deaths = 0;  ///< fired lifecycle fail_silents
    std::uint64_t lifecycle_spares = 0;  ///< fired lifecycle recovers
  };

  /// The injector must outlive the simulator run (callbacks capture
  /// `this`). `trace`/`episode_id` stamp the fault_* events like the
  /// network's xlink_* events (null disables tracing). `ledger` (nullable)
  /// receives every activation under `episode_id` — campaign plans anchor
  /// at the origin and belong to no single episode, so they land in the
  /// ledger's global row. `expander` (nullable) is the reusable
  /// stochastic-clause expander; the episode context passes a long-lived
  /// one so repeated arms allocate nothing, one-shot callers may leave it null
  /// and the injector creates its own on demand.
  FaultInjector(Simulator& sim, CrosslinkNetwork& net, const FaultPlan& plan,
                Rng rng, ShardTraceBuffer* trace = nullptr,
                std::int64_t episode_id = -1,
                EpisodeLedger* ledger = nullptr,
                FaultProcessExpander* expander = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every clause relative to `anchor` (clause times before
  /// `sim.now()` fire immediately, preserving causality). Call once.
  void arm(TimePoint anchor);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void activate(std::size_t index);
  void deactivate(std::size_t index);
  void trace_clause(const FaultClause& clause, std::int32_t direction) const;

  Simulator* sim_;
  CrosslinkNetwork* net_;
  const FaultPlan* plan_;
  Rng rng_;  ///< reserved fault stream; feeds stochastic expansion only
  ShardTraceBuffer* trace_;
  std::int64_t episode_id_;
  EpisodeLedger* ledger_;
  FaultProcessExpander* expander_;
  std::unique_ptr<FaultProcessExpander> owned_expander_;
  Stats stats_;
  bool armed_ = false;
};

}  // namespace oaq
