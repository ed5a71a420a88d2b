#include "oaq/schedule.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace oaq {
namespace {

TEST(AnalyticSchedule, PassStructureMatchesTimingDiagram) {
  // k = 12, θ = 90, Tc = 9: Tr = 7.5, overlap L2 = 1.5 per period.
  const AnalyticSchedule sched(PlaneGeometry{}, 12, Duration::zero());
  const auto passes = sched.passes(Duration::zero(), Duration::minutes(45));
  ASSERT_GE(passes.size(), 6u);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_NEAR(passes[i].duration().to_minutes(), 9.0, 1e-9);
    if (i > 0) {
      EXPECT_NEAR((passes[i].start - passes[i - 1].start).to_minutes(), 7.5,
                  1e-9);
    }
  }
}

TEST(AnalyticSchedule, PhaseShiftsThePattern) {
  const AnalyticSchedule a(PlaneGeometry{}, 12, Duration::zero());
  const AnalyticSchedule b(PlaneGeometry{}, 12, Duration::minutes(2));
  const auto pa = a.passes(Duration::minutes(10), Duration::minutes(30));
  const auto pb = b.passes(Duration::minutes(10), Duration::minutes(30));
  ASSERT_FALSE(pa.empty());
  ASSERT_FALSE(pb.empty());
  const double shift = (pb.front().start - pa.front().start).to_minutes();
  // The shift is 2 minutes modulo the 7.5-minute period.
  EXPECT_NEAR(std::fmod(shift + 7.5, 7.5), 2.0, 1e-9);
}

TEST(AnalyticSchedule, ConsecutiveVisitorsAreChainNeighbors) {
  // Successive passes must be slot s, s-1, s-2 ... (mod k): the slot
  // trailing in orbital phase revisits the target next.
  const int k = 10;
  const AnalyticSchedule sched(PlaneGeometry{}, k, Duration::minutes(3));
  const auto passes = sched.passes(Duration::zero(), Duration::minutes(120));
  ASSERT_GE(passes.size(), 10u);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const int prev = passes[i - 1].satellite.slot;
    const int cur = passes[i].satellite.slot;
    EXPECT_EQ(cur, (prev + k - 1) % k) << "pass " << i;
  }
}

TEST(AnalyticSchedule, SatelliteIdentityIsPeriodic) {
  const int k = 9;
  const AnalyticSchedule sched(PlaneGeometry{}, k, Duration::zero());
  const auto passes = sched.passes(Duration::zero(), Duration::minutes(181));
  // After k passes the same satellite returns (one orbit period later).
  ASSERT_GT(passes.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 0; i + k < passes.size(); ++i) {
    EXPECT_EQ(passes[i].satellite, passes[i + k].satellite);
    EXPECT_NEAR((passes[i + k].start - passes[i].start).to_minutes(), 90.0,
                1e-9);
  }
}

TEST(OverlapWindows, OverlappingPlaneHasWindowsOfLengthL2) {
  const AnalyticSchedule sched(PlaneGeometry{}, 12, Duration::zero());
  const auto passes = sched.passes(Duration::zero(), Duration::minutes(60));
  const auto windows =
      overlap_windows(passes, Duration::zero(), Duration::minutes(60));
  ASSERT_GE(windows.size(), 5u);
  for (const auto& w : windows) {
    EXPECT_NEAR(w.duration().to_minutes(), 1.5, 0.01);  // L2[12]
    EXPECT_EQ(w.multiplicity(), 2);
  }
  // Windows recur every Tr.
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_NEAR((windows[i].start - windows[i - 1].start).to_minutes(), 7.5,
                1e-6);
  }
}

TEST(OverlapWindows, UnderlappingPlaneHasNone) {
  for (int k : {9, 10}) {
    const AnalyticSchedule sched(PlaneGeometry{}, k, Duration::zero());
    const auto passes = sched.passes(Duration::zero(), Duration::minutes(90));
    const auto windows =
        overlap_windows(passes, Duration::zero(), Duration::minutes(90));
    EXPECT_TRUE(windows.empty()) << "k=" << k;
  }
}

TEST(GeometricSchedule, MatchesAnalyticStructureOnCenterline) {
  // A real polar plane over an equatorial target reproduces the analytic
  // pass structure: k = 10 gives back-to-back 9-minute passes.
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  const GeometricSchedule sched(c, GeoPoint{0.0, 0.0});
  const auto passes = sched.passes(Duration::zero(), Duration::minutes(90));
  ASSERT_GE(passes.size(), 9u);
  // Skip the first pass: it may be clipped at the horizon start.
  for (std::size_t i = 2; i + 1 < passes.size(); ++i) {
    EXPECT_NEAR(passes[i].duration().to_minutes(), 9.0, 0.05);
    EXPECT_NEAR((passes[i].start - passes[i - 1].start).to_minutes(), 9.0,
                0.05);
  }
}

TEST(GeometricSchedule, NegativeWindowIsClippedToZero) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  const GeometricSchedule sched(c, GeoPoint{0.0, 0.0});
  const auto passes =
      sched.passes(Duration::minutes(-30), Duration::minutes(30));
  for (const auto& p : passes) {
    EXPECT_GE(p.start, Duration::zero());
  }
}

TEST(AnalyticSchedule, RejectsBadArguments) {
  EXPECT_THROW(AnalyticSchedule(PlaneGeometry{}, 0, Duration::zero()),
               PreconditionError);
  const AnalyticSchedule s(PlaneGeometry{}, 10, Duration::zero());
  EXPECT_THROW((void)s.passes(Duration::minutes(5), Duration::minutes(5)),
               PreconditionError);
}

}  // namespace
}  // namespace oaq
