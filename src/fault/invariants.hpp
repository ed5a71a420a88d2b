// Protocol invariant checking under fault injection (ISSUE 5 tentpole).
//
// The checker audits each finished episode's result and the DES kernel's
// event accounting against properties the protocol must keep under *any*
// fault plan (paper §3.2 guarantees):
//
//   I1 a detected episode records at least one termination cause;
//   I2 no agent terminates twice (exactly one recorded cause each);
//   I3 a delivered alert implies a detection and a sent alert;
//   I4 a delivered alert is counted timely iff its first alert left by
//      t0 + τ — no late alert is ever counted timely;
//   I5 alerts never outnumber terminations;
//   I6 a duplicate final alert only happens with a recorded wait-deadline
//      rescue (the lost-done path) — never spontaneously;
//   I7 an episode with no drops and no injected faults leaves no
//      participant unresolved. Single-episode engines audit exact
//      per-episode telemetry; shared-network campaigns used to audit
//      run-wide counters (any drop anywhere excused every episode) but
//      now read the per-episode EpisodeLedger (src/obs/ledger.hpp), so
//      the audit is exact per target: only an episode whose OWN envelopes
//      were dropped — or that overlapped a fault activation — is excused;
//   I8 the kernel's ledger balances: scheduled = processed + cancelled +
//      still-pending (no leaked or double-freed pooled events).
//
// ISSUE 10 adds four robustness invariants over the self-healing link
// layer and the stochastic fault processes:
//
//   I9  no routing livelock: health-aware re-routes are bounded by
//       horizon_passes × participants — each re-route strictly advances
//       the chain's pass cursor, so it cannot exceed the search space;
//   I10 health-state conservation: every demotion is either restored
//       during the episode or still demoted at its end
//       (links_demoted = links_restored + links_demoted_end);
//   I11 spare-swap accounting: sat_lifecycle expansions emit matched
//       death/spare pairs and the run drains both, so fired lifecycle
//       deaths equal fired lifecycle spares;
//   I12 recovery bounded on quiesce: once the episode drains, no windowed
//       degradation (outage, partition, loss override, delay spike,
//       link-loss overlay) is still active — every activate met its
//       deactivate.
//
// Always compiled in; a detached checker is a null pointer at the call
// sites (EpisodeContext::run), so the default path pays one branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oaq/episode.hpp"
#include "sim/simulator.hpp"

namespace oaq {

class InvariantChecker {
 public:
  /// Retained violation descriptions (the count is unbounded).
  static constexpr std::size_t kMaxSamples = 32;

  /// Audit one finished episode (I1–I7, I9–I12).
  void check_episode(std::int64_t episode_id, const EpisodeResult& result,
                     const ProtocolConfig& config);

  /// Audit the DES kernel ledger after the run (I8).
  void check_simulator(std::int64_t episode_id,
                       const SimAccounting& accounting);

  /// Fold another checker's findings in (shard-merge; sample list stays
  /// capped at kMaxSamples).
  void merge(const InvariantChecker& other);

  [[nodiscard]] bool ok() const { return violations_ == 0; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] std::uint64_t episodes_checked() const {
    return episodes_checked_;
  }
  [[nodiscard]] const std::vector<std::string>& samples() const {
    return samples_;
  }

 private:
  void record(std::int64_t episode_id, std::string_view invariant,
              std::string_view what);

  std::uint64_t violations_ = 0;
  std::uint64_t episodes_checked_ = 0;
  std::vector<std::string> samples_;
};

}  // namespace oaq
