// Integration: the paper's full evaluation pipeline, Eq. (3) —
// dependability model P(k) composed with the conditional QoS model —
// against a direct campaign simulation that samples capacities from the
// same failure history and runs real protocol episodes.
#include <gtest/gtest.h>

#include "analytic/measure.hpp"
#include "fault/plane_capacity.hpp"
#include "oaq/montecarlo.hpp"

namespace oaq {
namespace {

TEST(Pipeline, AnalyticMeasureMatchesCampaignSimulation) {
  PlaneDependability dep;
  dep.satellite_failure_rate = Rate::per_hour(7e-5);
  dep.policy.ground_threshold = 10;

  // Analytic side: Eq. (3) with the simulated capacity pmf.
  const auto pk = plane_capacity_pmf(dep, 11, 400);
  QosModelParams params;
  params.tau = Duration::minutes(5);
  params.mu = Rate::per_minute(0.5);
  params.nu = Rate::per_minute(30);
  const QosModel model(PlaneGeometry{}, params);
  const auto analytic = qos_measure(model, pk, Scheme::kOaq);

  // Campaign side: sample signal arrival instants over a long capacity
  // trace (PASTA), run a protocol episode per signal.
  const auto trace =
      simulate_capacity_trace(dep, 11, Duration::hours(30000.0 * 50));
  ProtocolConfig protocol;
  protocol.tau = params.tau;
  protocol.delta = Duration::zero();
  protocol.tg = Duration::zero();
  protocol.nu = params.nu;
  Rng rng(12);
  DiscretePmf levels;
  const PlaneGeometry geometry;
  const Duration horizon = Duration::hours(30000.0 * 50);
  std::size_t cursor = 0;
  TimePoint t = TimePoint::origin();
  const Rate signal_rate = Rate::per_hour(1.0 / 120.0);
  int signals = 0;
  while (signals < 8000) {
    t = t + rng.exponential(signal_rate);
    if (t.since_origin() >= horizon) break;
    ++signals;
    while (cursor + 1 < trace.size() && trace[cursor + 1].at <= t) ++cursor;
    const int k = trace[cursor].active;
    if (k <= 0) {
      levels.add(0);
      continue;
    }
    const AnalyticSchedule sched(
        geometry, k, rng.uniform(Duration::zero(), geometry.tr(k)));
    EpisodeContext context(sched, protocol, true);
    const auto& r = context.run(
        signals, rng.fork(static_cast<std::uint64_t>(signals)),
        TimePoint::at(Duration::minutes(60)), rng.exponential(params.mu));
    levels.add(to_int(r.alert_delivered ? r.level : QosLevel::kMissed));
  }
  ASSERT_GT(signals, 4000);

  for (int y = 0; y <= 3; ++y) {
    EXPECT_NEAR(levels.probability(y), analytic.at(y), 0.03)
        << "level " << y;
  }
}

TEST(Pipeline, CapacityPmfFromTraceMatchesDirectPmf) {
  // The time-weighted pmf accumulated from a trace must agree with the
  // dedicated estimator (same engine, same regeneration argument).
  PlaneDependability dep;
  dep.satellite_failure_rate = Rate::per_hour(1e-4);
  dep.policy.ground_threshold = 10;
  const int cycles = 200;
  const Duration horizon = dep.policy.scheduled_period * cycles;
  const auto trace = simulate_capacity_trace(dep, 21, horizon);
  DiscretePmf from_trace;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TimePoint end =
        i + 1 < trace.size() ? trace[i + 1].at : TimePoint::at(horizon);
    from_trace.add(trace[i].active, (end - trace[i].at).to_hours());
  }
  const auto direct = plane_capacity_pmf(dep, 21, cycles);
  for (int k = 7; k <= 14; ++k) {
    EXPECT_NEAR(from_trace.probability(k), direct.probability(k), 1e-9)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace oaq
