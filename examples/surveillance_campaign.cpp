// Surveillance campaign: a 3.5-year mission over one orbital plane.
//
// Satellites fail at rate λ; in-orbit spares, the threshold-triggered
// ground launch and the scheduled restoration keep the plane alive. RF
// signals (Poisson arrivals, exponential durations) occur at a 30°N target
// on the plane's centerline; each is handled by OAQ and, for comparison,
// BAQ. The example ties together the fault, analytic and protocol layers.
#include <iomanip>
#include <iostream>

#include "common/table.hpp"
#include "fault/plane_capacity.hpp"
#include "oaq/montecarlo.hpp"

using namespace oaq;

int main() {
  // Mission model.
  PlaneDependability dependability;
  dependability.satellite_failure_rate = Rate::per_hour(7e-5);
  dependability.policy.ground_threshold = 10;
  const Duration mission = Duration::hours(30000);  // one scheduled cycle

  // Capacity history for this mission (seeded: reproducible).
  const auto trace = simulate_capacity_trace(dependability, 2003, mission);
  std::cout << "=== Mission capacity timeline (lambda = 7e-5/hr, eta = 10) "
               "===\n";
  int min_k = 14;
  for (const auto& ev : trace) {
    min_k = std::min(min_k, ev.active);
  }
  std::cout << trace.size() << " capacity events over "
            << mission.to_days() << " days; minimum capacity k = " << min_k
            << "\nFirst events:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(trace.size(), 8); ++i) {
    std::cout << "  day " << std::setw(7) << std::fixed
              << std::setprecision(1) << trace[i].at.since_origin().to_days()
              << "  k -> " << trace[i].active << '\n';
  }

  // Signals arrive as a Poisson process; each sees the plane capacity of
  // its arrival instant (PASTA). Evaluate the QoS of every signal with the
  // protocol Monte-Carlo, one episode per signal.
  const Rate signal_rate = Rate::per_hour(1.0 / 50.0);  // one per ~2 days
  const Rate mu = Rate::per_minute(0.3);
  ProtocolConfig protocol;
  protocol.computation_cap = Duration::seconds(6);

  Rng rng(77);
  DiscretePmf oaq_levels, baq_levels;
  int signals = 0;
  TimePoint t = TimePoint::origin();
  std::size_t cursor = 0;
  const PlaneGeometry geometry;
  while (true) {
    t = t + rng.exponential(signal_rate);
    if (t.since_origin() >= mission) break;
    ++signals;
    while (cursor + 1 < trace.size() && trace[cursor + 1].at <= t) ++cursor;
    const int k = trace[cursor].active;
    if (k == 0) {
      oaq_levels.add(0);
      baq_levels.add(0);
      continue;
    }
    const Duration phase =
        rng.uniform(Duration::zero(), geometry.tr(k));
    const AnalyticSchedule schedule(geometry, k, phase);
    const Duration duration = rng.exponential(mu);
    const TimePoint start = TimePoint::at(Duration::minutes(60));
    for (const bool oaq : {true, false}) {
      EpisodeContext episode(schedule, protocol, oaq);
      const auto& r = episode.run(
          signals, rng.fork(static_cast<std::uint64_t>(signals) * 2 + oaq),
          start, duration);
      (oaq ? oaq_levels : baq_levels)
          .add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
    }
  }

  std::cout << "\n=== " << signals << " signals processed ===\n";
  TablePrinter table({"scheme", "P(Y=0)", "P(Y=1)", "P(Y=2)", "P(Y=3)",
                      "P(Y>=2)"},
                     4);
  for (const bool oaq : {true, false}) {
    const auto& pmf = oaq ? oaq_levels : baq_levels;
    table.add_row({std::string(oaq ? "OAQ" : "BAQ"), pmf.probability(0),
                   pmf.probability(1), pmf.probability(2), pmf.probability(3),
                   pmf.tail_probability(2)});
  }
  table.print(std::cout);
  std::cout << "\nOver the same failure history and the same signals, OAQ\n"
               "delivers high-end results (Y >= 2) far more often than the\n"
               "baseline — the paper's Fig. 9 story on a single mission.\n";
  return 0;
}
