// E12 — Messaging-variant ablation (§3.2 last paragraph): backward
// "coordination done" propagation versus forward responsibility, under
// fail-silent injection of the requested peer.
//
// Expected: both variants deliver every detected signal without faults;
// with the second chain member fail-silent, backward messaging still
// guarantees delivery (the predecessor's wait deadline fires) while
// forward responsibility silently loses the alert. The fault is a
// fail_silent clause at the signal start. Exits nonzero when the faulted
// rows break that claim.
#include <iostream>

#include "common/table.hpp"
#include "fault/plan.hpp"
#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"

using namespace oaq;

namespace {

struct Outcome {
  int detected = 0;
  int delivered = 0;
  int timely = 0;
  int duplicates = 0;
};

Outcome run_campaign(bool backward, bool inject_fault) {
  const PlaneGeometry geometry;
  const int k = 9;
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(5);
  cfg.delta = Duration::seconds(12);
  cfg.tg = Duration::seconds(6);
  cfg.nu = Rate::per_minute(30);
  cfg.computation_cap = Duration::seconds(6);
  cfg.backward_messaging = backward;

  Rng master(2024);
  Rng phase_rng = master.fork(1);
  Rng dur_rng = master.fork(2);
  Rng ep_rng = master.fork(3);

  Outcome out;
  const int episodes = 4000;
  for (int e = 0; e < episodes; ++e) {
    const Duration phase =
        phase_rng.uniform(Duration::zero(), geometry.tr(k));
    const AnalyticSchedule sched(geometry, k, phase);
    const TimePoint start = TimePoint::at(Duration::minutes(60));
    const Duration dur = dur_rng.exponential(Rate::per_minute(0.2));

    FaultPlan plan;
    if (inject_fault) {
      // Kill the chain's SECOND member: first locate the detector S1 (the
      // pass covering the signal start, or the first pass after it), then
      // fail the satellite of the next pass.
      const auto passes = sched.passes(Duration::minutes(50),
                                       Duration::minutes(100));
      Duration t0 = Duration::minutes(60);
      for (const auto& p : passes) {
        if (p.start <= t0 && t0 < p.end) break;        // covered at start
        if (p.start > t0) { t0 = p.start; break; }     // detected on arrival
      }
      for (const auto& p : passes) {
        if (p.start > t0) {
          plan.add(FaultPlan::fail_silent(p.satellite, Duration::zero()));
          break;
        }
      }
    }
    EpisodeContext context(sched, cfg, true, &plan);
    const auto& r = context.run(
        0, ep_rng.fork(static_cast<std::uint64_t>(e)), start, dur);
    out.detected += r.detected;
    out.delivered += r.alert_delivered;
    out.timely += (r.alert_delivered && r.timely);
    out.duplicates += (r.alerts_sent > 1);
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: backward messaging vs forward responsibility "
               "(k = 9, tau = 5, fail-silent second chain member) ===\n\n";
  TablePrinter table({"variant", "fault", "detected", "delivered",
                      "delivered/detected", "timely", "duplicates"},
                     4);
  bool backward_guaranteed = false;
  bool forward_loses = false;
  for (const bool backward : {true, false}) {
    for (const bool fault : {false, true}) {
      const auto o = run_campaign(backward, fault);
      if (fault && backward) backward_guaranteed = o.delivered == o.detected;
      if (fault && !backward) forward_loses = o.delivered < o.detected;
      table.add_row({std::string(backward ? "backward-done" : "forward-resp"),
                     std::string(fault ? "S2 fail-silent" : "none"),
                     static_cast<long long>(o.detected),
                     static_cast<long long>(o.delivered),
                     o.detected ? static_cast<double>(o.delivered) / o.detected
                                : 0.0,
                     static_cast<long long>(o.timely),
                     static_cast<long long>(o.duplicates)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper claim: \"with the backward-messaging scheme, the "
               "delivery of the alert message will be guaranteed even if "
               "Sn+1 becomes fail-silent in the middle of computation.\"\n";
  if (!backward_guaranteed || !forward_loses) {
    std::cout << "CLAIM FAILED: under S2 fail-silence backward-done must "
                 "deliver every detected signal and forward-resp fewer\n";
    return 1;
  }
  return 0;
}
