// Integration: the OAQ protocol driven by TRUE orbital geometry (a
// GeometricSchedule over a real constellation's frozen pass table) instead
// of the timing-diagram idealization.
#include <gtest/gtest.h>

#include "../oaq/frozen_pass_table.hpp"
#include "oaq/episode.hpp"

namespace oaq {
namespace {

Constellation polar_plane(int k) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = k;
  d.inclination_rad = deg2rad(90.0);
  return Constellation(d);
}

ProtocolConfig quick_config(double tau_min = 5.0) {
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(tau_min);
  cfg.delta = Duration::seconds(6);
  cfg.tg = Duration::seconds(3);
  cfg.computation_cap = Duration::seconds(3);
  return cfg;
}

TEST(FullGeometryEpisode, UnderlapPlaneReachesSequentialDual) {
  // k = 9 polar plane over an equatorial centerline target: real passes
  // are 9 min with 1-min gaps (Tr = 10).
  const auto c = polar_plane(9);
  const FrozenPassTable table(
      c, GeoPoint{0.0, 0.0},
      visibility_quantum(Duration::minutes(13.0), quick_config().tau));
  EpisodeContext context(table.schedule, quick_config(), true);
  // Passes over the target run [5.5, 14.5], [15.5, 24.5], ... ; a signal
  // at t = 13 is detected near the end of a pass, so the next satellite
  // (arriving 15.5) is inside the 5-minute window of opportunity.
  const auto& r = context.run(0, Rng(1), TimePoint::at(Duration::minutes(13.0)),
                              Duration::minutes(30));
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSequentialDual);
  EXPECT_TRUE(r.timely);
  EXPECT_EQ(r.alerts_sent, 1);
}

TEST(FullGeometryEpisode, OverlapPlaneReachesSimultaneousDual) {
  // k = 14 polar plane: Tr = 6.43 < Tc = 9, real overlap windows exist.
  const auto c = polar_plane(14);
  const FrozenPassTable table(
      c, GeoPoint{0.0, 0.0},
      visibility_quantum(Duration::minutes(10.0), quick_config().tau));
  EpisodeContext context(table.schedule, quick_config(), true);
  const auto& r = context.run(0, Rng(2), TimePoint::at(Duration::minutes(10.0)),
                              Duration::minutes(30));
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.level, QosLevel::kSimultaneousDual);
  EXPECT_TRUE(r.timely);
}

TEST(FullGeometryEpisode, BaqNeverExceedsOaqOverManyEpisodes) {
  const auto c = polar_plane(9);
  // The last signal starts at 5 + 1.5 · 59 = 93.5 min.
  const FrozenPassTable table(
      c, GeoPoint{0.0, 0.0},
      visibility_quantum(Duration::minutes(93.5), quick_config().tau));
  EpisodeContext oaq(table.schedule, quick_config(), true);
  EpisodeContext baq(table.schedule, quick_config(), false);
  Rng master(3);
  int oaq_high = 0, baq_high = 0;
  for (int e = 0; e < 60; ++e) {
    const auto start = TimePoint::at(
        Duration::minutes(5.0 + 1.5 * static_cast<double>(e)));
    const auto& ro = oaq.run(e, master.fork(static_cast<std::uint64_t>(2 * e)),
                             start, Duration::minutes(25));
    const auto& rb =
        baq.run(e, master.fork(static_cast<std::uint64_t>(2 * e + 1)), start,
                Duration::minutes(25));
    oaq_high += to_int(ro.level) >= 2;
    baq_high += to_int(rb.level) >= 2;
    EXPECT_GE(to_int(ro.level), to_int(rb.level) > 0 ? 1 : 0);
  }
  EXPECT_GT(oaq_high, baq_high);
  EXPECT_GT(oaq_high, 20);
  EXPECT_EQ(baq_high, 0);  // underlap: BAQ cannot exceed level 1
}

TEST(FullGeometryEpisode, ReferenceConstellationAt30North) {
  // The full 98-satellite constellation over a 30°N target: detection is
  // quick (near-continuous coverage) and a timely alert always goes out.
  const auto c = Constellation::reference();
  // The last signal starts at 3 + 4 · 9 = 39 min.
  const FrozenPassTable table(
      c, GeoPoint::from_degrees(30.0, 13.0),
      visibility_quantum(Duration::minutes(39.0), quick_config().tau));
  EpisodeContext context(table.schedule, quick_config(), true);
  Rng master(4);
  for (int e = 0; e < 10; ++e) {
    const auto start = TimePoint::at(
        Duration::minutes(3.0 + 4.0 * static_cast<double>(e)));
    const auto& r = context.run(e, master.fork(static_cast<std::uint64_t>(e)),
                                start, Duration::minutes(20));
    EXPECT_TRUE(r.detected) << "episode " << e;
    EXPECT_TRUE(r.alert_delivered) << "episode " << e;
    EXPECT_TRUE(r.timely) << "episode " << e;
    EXPECT_GE(to_int(r.level), 1) << "episode " << e;
  }
}

TEST(FullGeometryEpisode, DegradedReferencePlaneStillDelivers) {
  auto c = Constellation::reference();
  for (int j = 0; j < c.num_planes(); ++j) c.plane(j).set_active_count(9);
  const FrozenPassTable table(
      c, GeoPoint::from_degrees(0.0, 0.0),
      visibility_quantum(Duration::minutes(12.0), quick_config().tau));
  EpisodeContext context(table.schedule, quick_config(), true);
  const auto& r = context.run(0, Rng(5), TimePoint::at(Duration::minutes(12.0)),
                              Duration::minutes(30));
  EXPECT_TRUE(r.detected);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_TRUE(r.timely);
}

}  // namespace
}  // namespace oaq
