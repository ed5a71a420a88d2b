// Integration: coordination chains across orbital planes.
//
// Footnote 3 of the paper assumes, for illustration, that the chain
// coincides with one plane — "however, the algorithm itself is general".
// With true geometry, a target sitting between two planes' ground tracks
// is revisited by satellites of BOTH planes; the protocol's next-visitor
// rule (next pass over the target, whoever flies it) forms a cross-plane
// chain without any special handling.
#include <gtest/gtest.h>

#include <set>

#include "../oaq/frozen_pass_table.hpp"
#include "oaq/episode.hpp"

namespace oaq {
namespace {

/// Two sparse polar planes with nodes 30° apart: each plane alone leaves
/// minute-scale gaps over a target between their tracks, but their passes
/// interleave.
Constellation two_planes() {
  ConstellationDesign d;
  d.num_planes = 2;
  d.sats_per_plane = 9;
  d.inclination_rad = deg2rad(90.0);
  d.raan_spread_rad = deg2rad(60.0);  // planes at 0° and 30°
  d.phasing_factor = 1;  // shift plane 1 by 5 min: passes interleave
  return Constellation(d);
}

TEST(CrossPlaneChain, ParticipantsSpanPlanes) {
  const auto c = two_planes();
  // A target between the two ground tracks (both planes' footprints reach
  // it during their equator crossings).
  const GeoPoint target = GeoPoint::from_degrees(0.0, 16.0);

  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(20);
  cfg.delta = Duration::seconds(6);
  cfg.tg = Duration::seconds(3);
  cfg.computation_cap = Duration::seconds(3);
  // The last signal starts at 2 + 2 · 39 = 80 min.
  const FrozenPassTable table(
      c, target, visibility_quantum(Duration::minutes(80.0), cfg.tau));
  EpisodeContext context(table.schedule, cfg, true);

  // Sweep signal starts until an episode's chain spans both planes.
  bool cross_plane_seen = false;
  Rng master(7);
  for (int e = 0; e < 40 && !cross_plane_seen; ++e) {
    const auto& r = context.run(
        e, master.fork(static_cast<std::uint64_t>(e)),
        TimePoint::at(Duration::minutes(2.0 + 2.0 * e)),
        Duration::minutes(40));
    if (!r.detected) continue;
    EXPECT_TRUE(r.alert_delivered);
    std::set<int> planes;
    for (const auto id : r.participants) planes.insert(id.plane);
    if (planes.size() >= 2) {
      cross_plane_seen = true;
      EXPECT_GE(r.chain_length, 2);
      EXPECT_GE(to_int(r.level), 2);
    }
  }
  EXPECT_TRUE(cross_plane_seen)
      << "no cross-plane chain formed in 40 episodes";
}

TEST(CrossPlaneChain, ParticipantsMatchChainLength) {
  // In the single-plane timing-diagram world, participants are exactly the
  // chain members (sequential case) and in join order.
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(25);
  cfg.delta = Duration::zero();
  cfg.tg = Duration::zero();
  cfg.computation_cap = Duration::seconds(1e-6);
  EpisodeContext context(sched, cfg, true);
  const auto& r = context.run(0, Rng(1), TimePoint::at(Duration::minutes(2)),
                              Duration::minutes(60));
  ASSERT_EQ(r.chain_length, 4);
  ASSERT_EQ(r.participants.size(), 4u);
  // Join order: slots descend mod k (next visitor = slot − 1 mod 9).
  for (std::size_t i = 1; i < r.participants.size(); ++i) {
    EXPECT_EQ(r.participants[i].slot,
              (r.participants[i - 1].slot + 9 - 1) % 9);
  }
}

}  // namespace
}  // namespace oaq
