#include "orbit/visibility.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "orbit/constellation_builder.hpp"

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
  const auto timeline = multiplicity_timeline(
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
  const auto timeline = multiplicity_timeline(
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
  const auto timeline = multiplicity_timeline(passes, t0, t1);
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

// --- Coverage margin -------------------------------------------------------
//
// coverage_margin measures the central angle between the position vector
// and the target direction directly. It must agree with the public chain
// ψ − central_angle(subsatellite_point(t, rot), target), whose geodetic
// round trip (asin of z/r) can lose ~1e-8 rad near the poles; over the
// cases below the two agree to 2.7e-15 rad. A margin that rotates by +θ
// instead of −θ misses by up to 2·ω_E·t.

constexpr double kChainTol = 1e-7;  // rad

/// Largest |coverage_margin − chain margin| over [0, t1] sampled every
/// 5.3 s, for targets at latitudes {0, 37, 53, 70} and longitude 10°.
double max_margin_vs_chain(const Orbit& orbit, double psi, bool rotation,
                           double t1) {
  double worst = 0.0;
  for (const double lat : {0.0, 37.0, 53.0, 70.0}) {
    const GeoPoint target = GeoPoint::from_degrees(lat, 10.0);
    const Vec3 target_unit = geo_to_ecef_unit(target);
    for (double s = 0.0; s <= t1; s += 5.3) {
      const Duration t = Duration::seconds(s);
      const double chain =
          psi - central_angle(orbit.subsatellite_point(t, rotation), target);
      worst = std::max(worst, std::abs(coverage_margin(orbit, target_unit, psi,
                                                       rotation, t) -
                                       chain));
    }
  }
  return worst;
}

TEST(CoverageMargin, MatchesGeodeticChain) {
  const double t1 = Duration::hours(3.0).to_seconds();
  for (const char* preset :
       {"reference", "kepler", "iridium-next", "oneweb", "starlink"}) {
    for (const bool j2 : {false, true}) {
      std::vector<ConstellationDesign> shells;
      for (const WalkerShell& shell : constellation_preset(preset)) {
        ConstellationDesign d = design_from_shell(shell);
        d.j2 = j2;
        shells.push_back(d);
      }
      const Constellation c(shells);
      // About 16 satellites spread over planes and slots per preset.
      const int stride = std::max(1, c.total_active() / 16);
      int index = 0;
      for (int pi = 0; pi < c.num_planes(); ++pi) {
        const double psi = c.footprint_of_plane(pi).angular_radius_rad();
        for (int slot = 0; slot < c.plane(pi).active_count(); ++slot) {
          if (index++ % stride != 0) continue;
          for (const bool rotation : {false, true}) {
            EXPECT_LE(max_margin_vs_chain(c.plane(pi).orbit_of(slot), psi,
                                          rotation, t1),
                      kChainTol)
                << preset << (j2 ? " J2" : "") << (rotation ? " rot" : "")
                << " satellite (" << pi << ", " << slot << ")";
          }
        }
      }
    }
  }
  // The e = 0.3 orbit of AdaptiveSweep.EccentricOrbitMatchesDenseGrid.
  KeplerianElements el;
  el.semi_major_km = 12000.0;
  el.eccentricity = 0.3;
  el.inclination_rad = deg2rad(63.4);
  el.arg_perigee_rad = 0.9;
  const Orbit eccentric(el);
  for (const Orbit& orbit : {eccentric, eccentric.with_j2()}) {
    for (const bool rotation : {false, true}) {
      EXPECT_LE(max_margin_vs_chain(orbit, deg2rad(18.0), rotation,
                                    orbit.period().to_seconds()),
                kChainTol)
          << "eccentric" << (orbit.j2_enabled() ? " J2" : "")
          << (rotation ? " rot" : "");
    }
  }
}

// --- Adaptive sweep completeness -------------------------------------------
//
// The reference is a dense grid at Tc/1024, refined on the same margin
// function to kRefTol. Every reference pass longer than the sweep's step
// floor (Tc/64) must appear in the adaptive table for the same satellite
// with both ends within the table's tolerance; every adaptive pass with no
// reference counterpart must be real (margin > 0 at its midpoint). Sweeping
// with subsatellite_rate_bound × 0.1 skips whole passes and fails these
// checks.

constexpr double kTol = 0.01;     // PassPredictor::passes default
constexpr double kRefTol = 1e-6;  // reference refinement

/// Dense-grid pass table of one orbit: sign changes of the margin on a
/// fixed `step` grid over [t0, t1], refined with Brent to kRefTol.
std::vector<Pass> dense_reference(const Orbit& orbit, SatelliteId id,
                                  const Vec3& target_unit, double psi,
                                  bool rotation, double step, double t0,
                                  double t1) {
  auto margin = [&](double t) {
    return coverage_margin(orbit, target_unit, psi, rotation,
                           Duration::seconds(t));
  };
  std::vector<double> times;
  std::vector<double> margins;
  for (double t = t0;; t = std::min(t + step, t1)) {
    times.push_back(t);
    margins.push_back(margin(t));
    if (t >= t1) break;
  }
  std::vector<Pass> out;
  double start = margins[0] > 0.0 ? t0 : -1.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (margins[i - 1] <= 0.0 && margins[i] > 0.0) {
      start = find_root(margin, times[i - 1], times[i], kRefTol);
    } else if (margins[i - 1] > 0.0 && margins[i] <= 0.0) {
      out.push_back({id, Duration::seconds(start),
                     Duration::seconds(
                         find_root(margin, times[i - 1], times[i], kRefTol))});
    }
  }
  if (margins.back() > 0.0) {
    out.push_back({id, Duration::seconds(start), Duration::seconds(t1)});
  }
  return out;
}

/// Checks one satellite's adaptive passes against its dense reference and
/// returns how many reference passes longer than `min_step` it matched.
int expect_complete(const Orbit& orbit, const Vec3& target_unit,
                    double psi, bool rotation, double min_step,
                    const std::vector<Pass>& reference,
                    std::vector<Pass> adaptive, const std::string& where) {
  int matched = 0;
  for (const Pass& ref : reference) {
    const auto hit = std::find_if(
        adaptive.begin(), adaptive.end(), [&](const Pass& p) {
          return std::abs((p.start - ref.start).to_seconds()) <=
                     kTol + kRefTol &&
                 std::abs((p.end - ref.end).to_seconds()) <= kTol + kRefTol;
        });
    if (hit == adaptive.end()) {
      EXPECT_LE(ref.duration().to_seconds(), min_step)
          << where << ": adaptive sweep misses the reference pass ["
          << ref.start.to_seconds() << ", " << ref.end.to_seconds()
          << "] of satellite (" << ref.satellite.plane << ", "
          << ref.satellite.slot << ")";
      continue;
    }
    if (ref.duration().to_seconds() > min_step) ++matched;
    adaptive.erase(hit);
  }
  for (const Pass& extra : adaptive) {
    const Duration mid = 0.5 * (extra.start + extra.end);
    EXPECT_GT(coverage_margin(orbit, target_unit, psi, rotation, mid), 0.0)
        << where << ": adaptive pass [" << extra.start.to_seconds() << ", "
        << extra.end.to_seconds() << "] is not covered at its midpoint";
  }
  return matched;
}

using SweepCase = std::tuple<std::string, bool, bool>;  // preset, rot, J2

class AdaptiveSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AdaptiveSweep, FindsEveryDenseGridPass) {
  const auto& [preset, rotation, j2] = GetParam();
  std::vector<ConstellationDesign> shells;
  for (const WalkerShell& shell : constellation_preset(preset)) {
    ConstellationDesign d = design_from_shell(shell);
    d.j2 = j2;
    shells.push_back(d);
  }
  const Constellation c(shells);
  const PassPredictor pred(c, rotation);
  const double t1 = Duration::hours(3.0).to_seconds();
  // About 32 satellites spread over planes and slots keep the dense
  // reference affordable on the mega-constellations.
  const int stride = std::max(1, c.total_active() / 32);
  int checked = 0;
  for (const double lat : {0.0, 37.0, 53.0, 70.0}) {
    const GeoPoint target = GeoPoint::from_degrees(lat, 10.0);
    const Vec3 target_unit = geo_to_ecef_unit(target);
    const std::vector<Pass> table =
        pred.passes(target, Duration::zero(), Duration::seconds(t1));
    int index = 0;
    for (int pi = 0; pi < c.num_planes(); ++pi) {
      const auto& plane = c.plane(pi);
      const auto& fp = c.footprint_of_plane(pi);
      const double tc = fp.coverage_time(plane.period()).to_seconds();
      for (int slot = 0; slot < plane.active_count(); ++slot, ++index) {
        if (index % stride != 0) continue;
        const SatelliteId id{pi, slot};
        const Orbit& orbit = plane.orbit_of(slot);
        const double psi = fp.angular_radius_rad();
        std::vector<Pass> adaptive;
        for (const Pass& p : table) {
          if (p.satellite == id) adaptive.push_back(p);
        }
        checked += expect_complete(
            orbit, target_unit, psi, rotation, tc / 64.0,
            dense_reference(orbit, id, target_unit, psi, rotation,
                            tc / 1024.0, 0.0, t1),
            adaptive, preset + " lat " + std::to_string(lat));
      }
    }
  }
  EXPECT_GT(checked, 0) << "no reference pass exercised the sweep";
}

INSTANTIATE_TEST_SUITE_P(
    PresetsRotationJ2, AdaptiveSweep,
    ::testing::Combine(::testing::Values("reference", "kepler", "iridium-next",
                                         "oneweb", "starlink"),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (std::get<1>(info.param) ? "_rot" : "_inertial") +
             (std::get<2>(info.param) ? "_j2" : "_twobody");
    });

TEST(AdaptiveSweep, EccentricOrbitMatchesDenseGrid) {
  // e = 0.3: the true anomaly at perigee runs (1+e)²/(1−e²)^{3/2} ≈ 1.95×
  // the mean motion, the case the peak-rate factor exists for.
  const double psi = deg2rad(18.0);
  int checked = 0;
  for (const bool j2 : {false, true}) {
    for (const bool rotation : {false, true}) {
      for (int k = 0; k < 3; ++k) {
        KeplerianElements el;
        el.semi_major_km = 12000.0;
        el.eccentricity = 0.3;
        el.inclination_rad = deg2rad(63.4 + 10.0 * k);
        el.raan_rad = 2.1 * k;
        el.arg_perigee_rad = 0.9 + 1.7 * k;
        el.mean_anomaly_rad = 0.4 * k;
        const Orbit base(el);
        const Orbit orbit = j2 ? base.with_j2() : base;
        const double tc = orbit.period().to_seconds() * psi / kPi;
        const double t1 = Duration::hours(24.0).to_seconds();
        for (const double lat : {0.0, 37.0, 53.0, 70.0}) {
          const Vec3 target_unit =
              geo_to_ecef_unit(GeoPoint::from_degrees(lat, 10.0));
          std::vector<Pass> adaptive;
          sweep_orbit_passes(orbit, SatelliteId{0, k}, target_unit, psi,
                             rotation, Duration::seconds(tc / 64.0),
                             Duration::zero(), Duration::seconds(t1),
                             Duration::seconds(kTol), adaptive);
          checked += expect_complete(
              orbit, target_unit, psi, rotation, tc / 64.0,
              dense_reference(orbit, SatelliteId{0, k}, target_unit, psi,
                              rotation, tc / 1024.0, 0.0, t1),
              adaptive, "eccentric lat " + std::to_string(lat));
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(AdaptiveSweep, GrazingTargetAtFootprintEdge) {
  // A target 0.05° inside the footprint edge of a polar plane's fixed
  // ground track (no Earth rotation): every pass is a ~40 s chord, a few
  // step floors long, reached only where the margin is smallest.
  auto c = single_plane(10);
  const PassPredictor pred(c);
  const auto& fp = c.footprint_of_plane(0);
  const double psi = fp.angular_radius_rad();
  const double tc = fp.coverage_time(c.plane(0).period()).to_seconds();
  const GeoPoint target{0.0, psi - deg2rad(0.05)};
  const Vec3 target_unit = geo_to_ecef_unit(target);
  const double t1 = Duration::minutes(180.0).to_seconds();
  const std::vector<Pass> table =
      pred.passes(target, Duration::zero(), Duration::seconds(t1));
  int checked = 0;
  for (int slot = 0; slot < c.plane(0).active_count(); ++slot) {
    const SatelliteId id{0, slot};
    const Orbit& orbit = c.plane(0).orbit_of(slot);
    std::vector<Pass> adaptive;
    for (const Pass& p : table) {
      if (p.satellite == id) {
        adaptive.push_back(p);
        EXPECT_LT(p.duration().to_seconds(), 60.0);
      }
    }
    checked += expect_complete(
        orbit, target_unit, psi, false, tc / 64.0,
        dense_reference(orbit, id, target_unit, psi, false, tc / 1024.0, 0.0,
                        t1),
        adaptive, "grazing");
  }
  EXPECT_GE(checked, 10);
}

TEST(AdaptiveSweep, RateBoundCoversSampledDirectionRate) {
  // Finite differences of the sub-satellite direction never outrun the
  // bound; on a circular inertial orbit the bound is tight (it is n).
  auto measured_peak = [](const Orbit& orbit, bool rotation) {
    const double dt = 0.5;
    double peak = 0.0;
    Vec3 prev;
    for (int i = 0; i <= 40000; ++i) {
      const Duration t = Duration::seconds(dt * i);
      Vec3 u = orbit.position_eci(t);
      if (rotation) u = eci_to_ecef(u, t);
      u = u / u.norm();
      if (i > 0) {
        const double angle = std::atan2(u.cross(prev).norm(), u.dot(prev));
        peak = std::max(peak, angle / dt);
      }
      prev = u;
    }
    return peak;
  };
  const Orbit circular = Orbit::circular(550.0, deg2rad(53.0), 0.3, 0.0);
  KeplerianElements el;
  el.semi_major_km = 12000.0;
  el.eccentricity = 0.3;
  el.inclination_rad = deg2rad(63.4);
  const Orbit eccentric(el);
  for (const Orbit& base : {circular, eccentric}) {
    for (const Orbit& orbit : {base, base.with_j2()}) {
      for (const bool rotation : {false, true}) {
        // 1e-12 rad/s absorbs the rounding of the finite difference.
        EXPECT_LE(measured_peak(orbit, rotation),
                  subsatellite_rate_bound(orbit, rotation) + 1e-12);
      }
    }
  }
  EXPECT_NEAR(measured_peak(circular, false),
              subsatellite_rate_bound(circular, false),
              1e-6 * circular.mean_motion_rad_s());
}

}  // namespace
}  // namespace oaq
