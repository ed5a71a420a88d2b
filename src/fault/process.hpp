// Stochastic fault-process expansion (ISSUE 10 tentpole).
//
// The generative clause kinds (ge_loss, outage_train, sat_lifecycle —
// see src/fault/plan.hpp) describe fault *processes*: links that flap
// with memory and satellites that die and get replaced, rather than
// scripted one-shot windows. FaultProcessExpander realises one sample
// path of every such process, deterministically, from an explicit RNG —
// the injector's reserved fault fork (`fork(0x666c74)` per episode,
// `master.fork(6)` per campaign) — producing a fully scripted FaultPlan
// the unchanged injector event loop then replays.
//
// Determinism argument (DESIGN.md §16): expansion happens entirely at
// arm() time, before any protocol event fires, and consumes only the
// reserved fault fork. Protocol draws therefore see exactly the streams
// they would with a scripted plan, and the expanded clause list is a
// pure function of (plan, rng) — the same at any --jobs. Each clause expands from its own sub-fork
// (rng.fork(i + 1)), so clause order in the plan never couples the
// per-clause sample paths.
//
// The expander owns one reusable FaultPlan: after warm-up, expansion
// performs zero steady-state allocations (gated by bench/chaos_soak).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "fault/plan.hpp"

namespace oaq {

/// True when `plan` holds at least one generative clause and therefore
/// needs FaultProcessExpander::expand before arming.
[[nodiscard]] bool has_stochastic_clauses(const FaultPlan& plan);

/// Expands generative clauses into scripted ones; scripted clauses pass
/// through unchanged (in their original relative order, generated
/// clauses appended in clause order then time order within a clause).
class FaultProcessExpander {
 public:
  /// Ceiling on the scripted clauses one generative clause may emit —
  /// a degenerate parameterisation (e.g. millisecond dwells over an
  /// hour-long window) truncates its sample path here instead of
  /// exhausting memory. Counted in Stats::truncated_clauses.
  static constexpr int kMaxIntervalsPerClause = 1024;

  struct Stats {
    std::uint64_t expansions = 0;         ///< expand() calls
    std::uint64_t stochastic_clauses = 0; ///< generative clauses seen
    std::uint64_t emitted_clauses = 0;    ///< scripted clauses generated
    std::uint64_t truncated_clauses = 0;  ///< hit kMaxIntervalsPerClause
  };

  /// Expands `plan` against `rng`; the returned reference stays valid
  /// until the next expand() call on this expander. Clause i draws from
  /// rng.fork(i + 1) only.
  [[nodiscard]] const FaultPlan& expand(const FaultPlan& plan, Rng rng);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void expand_ge_loss(const FaultClause& c, Rng rng);
  void expand_outage_train(const FaultClause& c, Rng rng);
  void expand_sat_lifecycle(const FaultClause& c, Rng rng);

  FaultPlan out_;
  Stats stats_;
};

}  // namespace oaq
