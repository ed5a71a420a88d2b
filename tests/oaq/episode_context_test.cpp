// Reuse-vs-fresh property of the episode lifecycle: thousands of episodes
// run through ONE reused EpisodeContext must be indistinguishable from a
// fresh EpisodeEngine::run per episode on the same fork(e) streams —
// identical EpisodeResults (telemetry included), identical sequential
// trace bytes, identical ledger rows, identical invariant audits — for
// OAQ and BAQ, on the analytic k = 9 plane and the iridium-next
// constellation, with and without a stochastic storm over reliable
// self-healing links.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "scalar_oracle.hpp"

namespace oaq {
namespace {

/// Gilbert–Elliott loss inside every plane plus alternating outages
/// between neighbouring planes over the protocol window.
FaultPlan storm_plan(int planes) {
  FaultPlan plan;
  for (int p = 0; p < planes; ++p) {
    plan.add(FaultPlan::ge_loss(p, p, 4.0, 2.0, 0.9, Duration::zero(),
                                Duration::minutes(5)));
    plan.add(FaultPlan::outage_train(p, (p + 1) % planes, 1.0, 0.5,
                                     Duration::zero(), Duration::minutes(5)));
  }
  return plan;
}

/// 2000 episodes through one reused context and through a fresh
/// EpisodeEngine::run each; `geometric` null = the analytic k = 9 plane.
void expect_reuse_matches_fresh(oracle::Sequence s, int planes, bool storm,
                                const std::string& label) {
  s.episode_rng = Rng(20261016).fork(3);
  s.protocol.computation_cap = s.protocol.tg;
  std::optional<FaultPlan> plan;
  if (storm) {
    s.protocol.crosslink_loss_probability = 0.1;
    s.protocol.reliable_links = true;
    s.protocol.self_healing_links = true;
    s.plan = &plan.emplace(storm_plan(planes));
  }
  const oracle::EpisodeOutputs want = oracle::run_fresh(s);
  oracle::expect_same_outputs(oracle::run_reused(s), want, label);
  EXPECT_EQ(want.violations, 0u) << label;
  // The property is only as strong as the paths it crosses: episodes must
  // drain, analytic ones must also escape (the geometric presets cover the
  // target continuously), and storms must actually fire.
  std::int64_t detected = 0;
  for (const EpisodeResult& r : want.results) detected += r.detected ? 1 : 0;
  EXPECT_GT(detected, 0) << label;
  if (s.geometric == nullptr) {
    EXPECT_LT(detected, s.episodes) << label;
  }
  if (storm) {
    EXPECT_NE(want.ledger.find("\"ep\":"), std::string::npos) << label;
  }
}

TEST(EpisodeContext, ReusedMatchesFreshAnalytic) {
  for (const bool oaq : {true, false}) {
    for (const bool storm : {false, true}) {
      oracle::Sequence s;
      s.oaq = oaq;
      expect_reuse_matches_fresh(s, 1, storm,
                                 std::string(oaq ? "oaq" : "baq") +
                                     (storm ? " storm" : " clean"));
    }
  }
}

TEST(EpisodeContext, ReusedMatchesFreshGeometric) {
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  ProtocolConfig protocol;
  const Duration quantum =
      visibility_quantum(kSignalStart + c.max_period(), protocol.tau);
  SharedVisibilityCache cache(c, /*earth_rotation=*/false, {quantum});
  cache.seed_window(GeoPoint{0.0, 0.0}, Duration::zero(), quantum);
  cache.freeze();
  const GeometricSchedule schedule(cache);
  for (const bool oaq : {true, false}) {
    for (const bool storm : {false, true}) {
      oracle::Sequence s;
      s.geometric = &schedule;
      s.phase_span = c.max_period();
      s.signal_start = signal_start;
      s.oaq = oaq;
      expect_reuse_matches_fresh(s, c.num_planes(), storm,
                                 std::string("iridium-next ") +
                                     (oaq ? "oaq" : "baq") +
                                     (storm ? " storm" : " clean"));
    }
  }
}

TEST(EpisodeContext, EscapedEpisodeLeavesTheContextReusable) {
  // A failed arm() schedules nothing, so the next reset() succeeds and the
  // escaped result is the scalar engine's default.
  const PlaneGeometry geometry;
  ASSERT_GT(geometry.tr(7), geometry.tc() + Duration::seconds(4));
  AnalyticSchedule schedule(geometry, 7, Duration::zero());
  ProtocolConfig cfg;
  EpisodeContext context(schedule, cfg, /*opportunity_adaptive=*/true);
  // Pass j is centred on j·Tr; the second after pass 5 ends is uncovered.
  const Duration centre = geometry.tr(7) * 5.0;
  const EpisodeResult& escaped = context.run(
      0, Rng(1), TimePoint::at(centre + geometry.tc() / 2.0 +
                               Duration::seconds(1)),
      Duration::seconds(1));
  EXPECT_FALSE(escaped.detected);
  EXPECT_TRUE(escaped == EpisodeResult{});
  const EpisodeResult& armed = context.run(1, Rng(2), TimePoint::at(centre),
                                           Duration::minutes(10));
  EXPECT_TRUE(armed.detected);
  EXPECT_GT(armed.telemetry.sim_events, 0u);
}

}  // namespace
}  // namespace oaq
