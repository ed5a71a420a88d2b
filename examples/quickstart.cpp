// Quickstart: build the reference constellation, degrade one plane past
// its spares, and watch the OAQ protocol coordinate a geolocation.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"

using namespace oaq;

int main() {
  // 1. The paper's reference RF-geolocation constellation:
  //    7 planes x (14 active + 2 in-orbit spares), 90-minute orbits,
  //    9-minute footprint coverage time.
  auto constellation = Constellation::reference();
  std::cout << "Reference constellation: " << constellation.num_planes()
            << " planes, " << constellation.total_active()
            << " active satellites\n";

  // 2. Structural degradation: plane 0 loses satellites past its spares
  //    and re-phases the 9 survivors. Tr[9] = 10 min > Tc = 9 min: the
  //    footprints underlap and simultaneous coverage is gone.
  constellation.plane(0).set_active_count(9);
  std::cout << "Plane 0 degraded to k = 9: revisit time "
            << constellation.plane(0).revisit_time().to_minutes()
            << " min vs coverage time 9 min -> underlapping\n\n";

  // 3. One signal episode under OAQ, against the degraded plane's
  //    timing-diagram schedule (worst case: emitter on the centerline).
  const PlaneGeometry geometry;
  const AnalyticSchedule schedule(geometry, 9, Duration::zero());
  ProtocolConfig config;       // tau = 5 min, delta = 12 s, Tg = 6 s
  config.computation_cap = Duration::seconds(6);
  EpisodeContext episode(schedule, config, /*opportunity_adaptive=*/true);

  // Signal starts at t = 2 min (inside a pass) and lasts 20 minutes.
  const auto result = episode.run(/*episode_id=*/0, Rng(7),
                                  TimePoint::at(Duration::minutes(2)),
                                  Duration::minutes(20));

  std::cout << "Episode: detected=" << result.detected
            << ", level=" << to_string(result.level)
            << ", chain length=" << result.chain_length
            << ", coordination requests=" << result.coordination_requests
            << "\n         alert sent at t+"
            << (result.first_alert_sent - result.detection).to_minutes()
            << " min (deadline " << config.tau.to_minutes()
            << "), timely=" << result.timely
            << ", reported error=" << result.reported_error_km << " km\n\n";

  // 4. The same plane, many episodes: OAQ vs BAQ conditional QoS.
  for (const bool oaq : {true, false}) {
    QosSimulationConfig mc;
    mc.k = 9;
    mc.opportunity_adaptive = oaq;
    mc.episodes = 5000;
    mc.protocol = config;
    const auto sim = simulate_qos(mc);
    std::cout << (oaq ? "OAQ" : "BAQ") << " @ k=9:  P(missed)="
              << sim.probability(QosLevel::kMissed)
              << "  P(single)=" << sim.probability(QosLevel::kSingle)
              << "  P(seq-dual)="
              << sim.probability(QosLevel::kSequentialDual) << '\n';
  }
  std::cout << "\nOAQ turns a share of single-coverage deliveries into\n"
               "sequential-dual ones — accuracy recovered from the\n"
               "constellation's own mobility, with no new hardware.\n";
  return 0;
}
