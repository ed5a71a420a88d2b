// Plane cull of the pass sweep: PassPredictor::passes sweeps only the
// planes plane_may_cover admits, and plane_may_cover rejects a plane only when none of its satellites can come
// within ψ of the target. The matrix is every preset (kepler is the
// retrograde plane, i = 98.6°) × rotation × J2 × latitudes
// {0, 37, 53, 70, 85}° × longitudes {0, 10}° over 27 h, plus e = 0.3 orbits
// and a two-shell constellation whose shells differ in ψ. Culling once the
// distance tops ψ/2 instead of ψ fails CulledPlanesNeverCover.
//
// Built into test_geometry with the pass table's seed tests, so the
// sanitizer jobs run the jobs-4 sweeps too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "orbit/constellation_builder.hpp"
#include "orbit/visibility.hpp"

namespace oaq {
namespace {

/// A named preset with J2 secular drift switched on or off.
Constellation preset_constellation(const std::string& preset, bool j2) {
  std::vector<ConstellationDesign> shells;
  for (const WalkerShell& shell : constellation_preset(preset)) {
    ConstellationDesign d = design_from_shell(shell);
    d.j2 = j2;
    shells.push_back(d);
  }
  return Constellation(shells);
}

constexpr Duration kCullWindow = Duration::hours(27.0);
constexpr double kCullLats[] = {0.0, 37.0, 53.0, 70.0, 85.0};
constexpr double kCullLons[] = {0.0, 10.0};

/// The e = 0.3 orbits of AdaptiveSweep.EccentricOrbitMatchesDenseGrid.
std::vector<Orbit> eccentric_orbits() {
  std::vector<Orbit> orbits;
  for (const bool j2 : {false, true}) {
    for (int k = 0; k < 3; ++k) {
      KeplerianElements el;
      el.semi_major_km = 12000.0;
      el.eccentricity = 0.3;
      el.inclination_rad = deg2rad(63.4 + 10.0 * k);
      el.raan_rad = 2.1 * k;
      el.arg_perigee_rad = 0.9 + 1.7 * k;
      el.mean_anomaly_rad = 0.4 * k;
      const Orbit base(el);
      orbits.push_back(j2 ? base.with_j2() : base);
    }
  }
  return orbits;
}

/// The geometric presets with and without J2, and a two-shell
/// constellation whose shells differ in altitude, inclination and ψ.
std::vector<std::pair<std::string, Constellation>> cull_constellations() {
  std::vector<std::pair<std::string, Constellation>> out;
  for (const auto name : constellation_preset_names()) {
    for (const bool j2 : {false, true}) {
      out.emplace_back(std::string(name) + (j2 ? " J2" : ""),
                       preset_constellation(std::string(name), j2));
    }
  }
  WalkerShell low;
  low.total_sats = 40;
  low.planes = 5;
  low.phasing = 1;
  WalkerShell high;
  high.total_sats = 24;
  high.planes = 4;
  high.altitude_km = 1100.0;
  high.inclination_deg = 86.0;
  high.footprint_deg = 24.0;
  out.emplace_back("two-shell",
                   ConstellationBuilder().add_shell(low).add_shell(high)
                       .build());
  return out;
}

TEST(PassPredictor, CulledPlanesNeverCover) {
  // Culled planes per (rotation, J2): each of the three bounds must cull
  // something, or the gate would not test it.
  int culled[2][2] = {};
  const auto expect_no_pass = [](const Orbit& orbit, SatelliteId id,
                                 const Vec3& target_unit, double psi,
                                 bool rotation, Duration min_step,
                                 const std::string& where) {
    std::vector<Pass> found;
    sweep_orbit_passes(orbit, id, target_unit, psi, rotation, min_step,
                       Duration::zero(), kCullWindow,
                       PassPredictor::kDefaultTolerance, found);
    EXPECT_TRUE(found.empty())
        << where << ": culled satellite (" << id.plane << ", " << id.slot
        << ") has a pass at " << found.front().start.to_seconds() << " s";
  };
  for (const auto& [name, c] : cull_constellations()) {
    for (const bool rotation : {false, true}) {
      for (const double lat : kCullLats) {
        for (const double lon : kCullLons) {
          const Vec3 target_unit =
              geo_to_ecef_unit(GeoPoint::from_degrees(lat, lon));
          const std::string where = name + (rotation ? " rot" : "") +
                                    " at " + std::to_string(lat) + ", " +
                                    std::to_string(lon);
          for (int pi = 0; pi < c.num_planes(); ++pi) {
            const auto& plane = c.plane(pi);
            const auto& fp = c.footprint_of_plane(pi);
            const double psi = fp.angular_radius_rad();
            if (plane_may_cover(plane.orbit_of(0), target_unit, psi, rotation,
                                Duration::zero(), kCullWindow)) {
              continue;
            }
            ++culled[rotation][plane.orbit_of(0).j2_enabled()];
            const Duration min_step = fp.coverage_time(plane.period()) / 64.0;
            for (int slot = 0; slot < plane.active_count(); ++slot) {
              expect_no_pass(plane.orbit_of(slot), SatelliteId{pi, slot},
                             target_unit, psi, rotation, min_step, where);
            }
          }
        }
      }
    }
  }
  const double psi = deg2rad(18.0);
  int eccentric_culled = 0;
  int k = 0;
  for (const Orbit& orbit : eccentric_orbits()) {
    const Duration min_step =
        Duration::seconds(orbit.period().to_seconds() * psi / kPi / 64.0);
    for (const bool rotation : {false, true}) {
      for (const double lat : kCullLats) {
        for (const double lon : kCullLons) {
          const Vec3 target_unit =
              geo_to_ecef_unit(GeoPoint::from_degrees(lat, lon));
          if (plane_may_cover(orbit, target_unit, psi, rotation,
                              Duration::zero(), kCullWindow)) {
            continue;
          }
          ++eccentric_culled;
          expect_no_pass(orbit, SatelliteId{0, k}, target_unit, psi, rotation,
                         min_step,
                         "eccentric at " + std::to_string(lat) + ", " +
                             std::to_string(lon));
        }
      }
    }
    ++k;
  }
  EXPECT_GT(culled[false][false], 0) << "two-body inertial bound";
  EXPECT_GT(culled[false][true], 0) << "J2 inertial bound";
  EXPECT_GT(culled[true][false], 0) << "latitude bound, two-body";
  EXPECT_GT(culled[true][true], 0) << "latitude bound, J2";
  EXPECT_GT(eccentric_culled, 0);
}

/// The table passes() would give without the cull: every active satellite
/// swept over [0, t1] at the default tolerance, sorted by (start,
/// satellite).
std::vector<Pass> unculled_passes(const Constellation& c,
                                  const GeoPoint& target, bool rotation,
                                  Duration t1) {
  const Vec3 target_unit = geo_to_ecef_unit(target);
  std::vector<Pass> out;
  for (int pi = 0; pi < c.num_planes(); ++pi) {
    const auto& plane = c.plane(pi);
    const auto& fp = c.footprint_of_plane(pi);
    for (int slot = 0; slot < plane.active_count(); ++slot) {
      sweep_orbit_passes(plane.orbit_of(slot), SatelliteId{pi, slot},
                         target_unit, fp.angular_radius_rad(), rotation,
                         fp.coverage_time(plane.period()) / 64.0,
                         Duration::zero(), t1,
                         PassPredictor::kDefaultTolerance, out);
    }
  }
  std::sort(out.begin(), out.end(), [](const Pass& a, const Pass& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.satellite < b.satellite;
  });
  return out;
}

/// Index of the first pass whose start, end or satellite differs in any
/// bit, or the shorter size when one table is a prefix of the other, or
/// -1 when the tables are equal.
long first_bitwise_difference(const std::vector<Pass>& a,
                              const std::vector<Pass>& b) {
  const auto bits = [](Duration d) {
    return std::bit_cast<std::uint64_t>(d.to_seconds());
  };
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].satellite != b[i].satellite ||
        bits(a[i].start) != bits(b[i].start) ||
        bits(a[i].end) != bits(b[i].end)) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

TEST(PassPredictor, CullKeepsTableBitwise) {
  std::size_t total = 0;
  for (const auto& [name, c] : cull_constellations()) {
    for (const bool rotation : {false, true}) {
      const PassPredictor pred(c, rotation);
      for (const double lat : kCullLats) {
        for (const double lon : kCullLons) {
          const GeoPoint target = GeoPoint::from_degrees(lat, lon);
          const std::vector<Pass> want =
              unculled_passes(c, target, rotation, kCullWindow);
          total += want.size();
          for (const int jobs : {1, 4}) {
            EXPECT_EQ(first_bitwise_difference(
                          pred.passes(target, Duration::zero(), kCullWindow,
                                      PassPredictor::kDefaultTolerance, jobs),
                          want),
                      -1)
                << name << (rotation ? " rot" : "") << " at " << lat << ", "
                << lon << " jobs " << jobs;
          }
        }
      }
    }
  }
  EXPECT_GT(total, 0u);
}

TEST(PassPredictor, PlaneCullCountsOnPresets) {
  // The speedup rests on these counts: if the cull stops culling, the
  // table keeps its bits and only this test notices.
  const auto culled = [](const char* preset, const GeoPoint& target,
                         bool rotation) {
    const Constellation c = preset_constellation(preset, false);
    const Vec3 target_unit = geo_to_ecef_unit(target);
    int n = 0;
    for (int pi = 0; pi < c.num_planes(); ++pi) {
      n += !plane_may_cover(c.plane(pi).orbit_of(0), target_unit,
                            c.footprint_of_plane(pi).angular_radius_rad(),
                            rotation, Duration::zero(), kCullWindow);
    }
    return n;
  };
  EXPECT_EQ(culled("starlink", GeoPoint{0.0, 0.0}, false), 54);
  EXPECT_EQ(culled("iridium-next", GeoPoint{0.0, 0.0}, false), 5);
  EXPECT_EQ(culled("starlink", GeoPoint::from_degrees(45.0, 10.0), true), 0);
}

}  // namespace
}  // namespace oaq
