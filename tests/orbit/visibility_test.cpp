#include "orbit/visibility.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace oaq {
namespace {

/// Single-plane constellation whose plane 0 passes over the target's
/// longitude; target on the ground-track centerline (equator crossing).
Constellation single_plane(int k) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = k;
  d.inclination_rad = deg2rad(90.0);  // polar: ground track along a meridian
  return Constellation(d);
}

TEST(PassPredictor, CenterlinePassLastsCoverageTime) {
  // A point on the ground track is covered for exactly Tc = 9 min.
  auto c = single_plane(10);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};  // on the track (node at lon 0)
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  ASSERT_FALSE(passes.empty());
  // Interior passes (not clipped by the horizon) last Tc.
  int interior = 0;
  for (const auto& p : passes) {
    if (p.start > Duration::zero() && p.end < Duration::minutes(90.0)) {
      EXPECT_NEAR(p.duration().to_minutes(), 9.0, 0.01);
      ++interior;
    }
  }
  EXPECT_GE(interior, 7);
}

TEST(PassPredictor, RevisitIntervalMatchesTrOfK) {
  auto c = single_plane(10);  // Tr = 9 min = Tc: back-to-back coverage
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  ASSERT_GE(passes.size(), 3u);
  // Skip horizon-clipped passes; interior pass starts are spaced Tr apart.
  for (std::size_t i = 2; i + 1 < passes.size(); ++i) {
    const double gap = (passes[i].start - passes[i - 1].start).to_minutes();
    EXPECT_NEAR(gap, 9.0, 0.02) << "pass " << i;
  }
}

TEST(PassPredictor, OverlappingPlaneShowsSimultaneousCoverage) {
  // k = 14 > 10: Tr < Tc, adjacent footprints overlap on the centerline.
  auto c = single_plane(14);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  const auto timeline = PassPredictor::multiplicity_timeline(
      passes, Duration::zero(), Duration::minutes(90.0));
  const auto stats = PassPredictor::summarize(timeline);
  EXPECT_EQ(stats.max_multiplicity, 2);
  EXPECT_GT(stats.multiple.to_minutes(), 1.0);
  EXPECT_NEAR(stats.uncovered.to_minutes(), 0.0, 0.05);
  // Overlap share per period should be L2 = Tc − Tr ≈ 2.571 min out of
  // every Tr ≈ 6.43 min.
  const double expected_multi_fraction = (9.0 - 90.0 / 14.0) / (90.0 / 14.0);
  EXPECT_NEAR(stats.multiple / stats.horizon, expected_multi_fraction, 0.02);
}

TEST(PassPredictor, UnderlappingPlaneShowsGaps) {
  // k = 9 < 10: Tr = 10 min > Tc = 9 min; 1-minute gaps appear.
  auto c = single_plane(9);
  const PassPredictor pred(c);
  const GeoPoint target{0.0, 0.0};
  const auto passes = pred.passes(target, Duration::zero(),
                                  Duration::minutes(90.0));
  const auto timeline = PassPredictor::multiplicity_timeline(
      passes, Duration::zero(), Duration::minutes(90.0));
  const auto stats = PassPredictor::summarize(timeline);
  EXPECT_EQ(stats.max_multiplicity, 1);
  EXPECT_NEAR(stats.longest_gap.to_minutes(), 1.0, 0.02);
  EXPECT_NEAR(stats.uncovered.to_minutes(), 9.0, 0.2);  // 9 gaps × 1 min
}

TEST(PassPredictor, TimelinePartitionsHorizonExactly) {
  auto c = single_plane(12);
  const PassPredictor pred(c);
  const auto t0 = Duration::zero();
  const auto t1 = Duration::minutes(45.0);
  const auto passes = pred.passes(GeoPoint{0.0, 0.0}, t0, t1);
  const auto timeline = PassPredictor::multiplicity_timeline(passes, t0, t1);
  ASSERT_FALSE(timeline.empty());
  EXPECT_EQ(timeline.front().start, t0);
  EXPECT_EQ(timeline.back().end, t1);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].start, timeline[i - 1].end);
    EXPECT_GT(timeline[i].duration(), Duration::zero());
  }
  // Segment multiplicity changes between adjacent segments.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_NE(timeline[i].satellites, timeline[i - 1].satellites);
  }
}

TEST(PassPredictor, OffTrackPointHasShorterPasses) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  // 10° off the track: chord through the 18°-radius cap is shorter.
  const auto passes = pred.passes(GeoPoint::from_degrees(0.0, 10.0),
                                  Duration::zero(), Duration::minutes(90.0));
  ASSERT_FALSE(passes.empty());
  for (const auto& p : passes) {
    if (p.start > Duration::zero() && p.end < Duration::minutes(90.0)) {
      EXPECT_LT(p.duration().to_minutes(), 9.0);
      EXPECT_GT(p.duration().to_minutes(), 5.0);
    }
  }
}

TEST(PassPredictor, FarOffTrackPointSeesNothing) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  const auto passes = pred.passes(GeoPoint::from_degrees(0.0, 90.0),
                                  Duration::zero(), Duration::minutes(90.0));
  EXPECT_TRUE(passes.empty());
}

TEST(PassPredictor, RejectsEmptyHorizon) {
  auto c = single_plane(10);
  const PassPredictor pred(c);
  EXPECT_THROW(
      (void)pred.passes(GeoPoint{}, Duration::minutes(5), Duration::minutes(5)),
      PreconditionError);
}


TEST(PassPredictor, PassesThatStartTogetherSortBySatellite) {
  // Near the pole of the default Walker-star design many footprints already
  // cover the target at t0, so their passes all start at t0. The tie must
  // resolve by (plane, slot), whatever the standard library's unstable
  // sort would do with it.
  const Constellation c{ConstellationDesign{}};
  const PassPredictor pred(c);
  const auto passes = pred.passes(GeoPoint::from_degrees(88.0, 0.0),
                                  Duration::zero(), Duration::minutes(90.0));
  int at_t0 = 0;
  for (const Pass& p : passes) {
    if (p.start == Duration::zero()) ++at_t0;
  }
  EXPECT_GE(at_t0, 3);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const Pass& a = passes[i - 1];
    const Pass& b = passes[i];
    EXPECT_TRUE(a.start < b.start ||
                (a.start == b.start && a.satellite < b.satellite))
        << "pass " << i;
  }
}
}  // namespace
}  // namespace oaq
