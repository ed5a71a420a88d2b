// Pass prediction: when does which satellite cover a ground point?
//
// This extracts, from true constellation geometry, the α/β/γ interval
// structure that the paper's Fig. 6 timing diagrams idealize: single-
// coverage stretches, overlap windows (simultaneous multiple coverage) and
// gaps. The protocol simulator and the analytic model are cross-validated
// against these intervals.
#pragma once

#include <vector>

#include "orbit/constellation.hpp"

namespace oaq {

/// One contiguous interval during which a single satellite's footprint
/// covers the target point.
struct Pass {
  SatelliteId satellite;
  Duration start{};
  Duration end{};

  [[nodiscard]] Duration duration() const { return end - start; }
};

/// A maximal interval with a constant set of covering satellites.
struct CoverageSegment {
  Duration start{};
  Duration end{};
  std::vector<SatelliteId> satellites;

  [[nodiscard]] int multiplicity() const {
    return static_cast<int>(satellites.size());
  }
  [[nodiscard]] Duration duration() const { return end - start; }
};

/// Aggregate coverage statistics over a horizon.
struct CoverageStats {
  Duration horizon{};
  Duration uncovered{};       ///< total gap time
  Duration single{};          ///< covered by exactly one satellite
  Duration multiple{};        ///< covered by two or more satellites
  Duration longest_gap{};
  Duration longest_single_pass{};
  int max_multiplicity = 0;
};

/// Coverage margin ψ − central angle between the sub-satellite direction of
/// `orbit` at `t` (rotated into ECEF when `earth_rotation`) and the target
/// direction `target_unit` (geo_to_ecef_unit of the target): positive while
/// the footprint of angular radius `psi` covers the target. The angle is
/// taken between the position vector and `target_unit` directly, which
/// equals central_angle(orbit.subsatellite_point(t, earth_rotation),
/// target) without the geodetic round trip.
[[nodiscard]] double coverage_margin(const Orbit& orbit,
                                     const Vec3& target_unit, double psi,
                                     bool earth_rotation, Duration t);

/// Upper bound (rad/s) on how fast `orbit`'s sub-satellite direction
/// turns (in the Earth-fixed frame when `earth_rotation`): the peak true-
/// anomaly rate n·(1+e)²/(1−e²)^{3/2}, plus the J2 secular rates when the
/// orbit has them, plus ω_E with Earth rotation. The coverage margin
/// ψ − central angle changes no faster than this.
[[nodiscard]] double subsatellite_rate_bound(const Orbit& orbit,
                                             bool earth_rotation);

/// Passes of one orbit over the target direction `target_unit` (ECEF unit
/// vector) within [t0, t1], appended to `out` in time order. The sweep
/// steps from a sample with margin m by max(min_step, |m| / rate) with
/// rate = subsatellite_rate_bound, so a step longer than `min_step` never
/// crosses a pass boundary and every pass longer than `min_step` is
/// bracketed; crossings are refined to `tol` by Brent on the same
/// coverage_margin.
void sweep_orbit_passes(const Orbit& orbit, SatelliteId id,
                        const Vec3& target_unit, double footprint_radius_rad,
                        bool earth_rotation, Duration min_step, Duration t0,
                        Duration t1, Duration tol, std::vector<Pass>& out);

/// Whether any satellite sharing `orbit`'s plane may cover the target
/// direction `target_unit` (ECEF unit vector) with a footprint of angular
/// radius `psi` at some time in [t0, t1]. false means provably never: the
/// test reads only the plane (inclination i, node Ω, J2 node drift Ω̇,
/// elements at epoch 0), never the in-plane phase, so it holds for every
/// slot of an OrbitalPlane, and its bounds hold at any eccentricity. It
/// culls when the target lies more than psi + 1e-9 rad from every point a
/// satellite can reach:
///  - any case: the latitude band |lat| ≤ min(i, π − i), since
///    |sin lat| ≤ sin i on every orbit of the plane and neither J2 nor
///    Earth rotation changes i;
///  - no Earth rotation: the plane's great circle, at asin|n̂·t̂| from the
///    target, n̂ = (sin i sin Ω, −sin i cos Ω, cos i); with J2, n̂ turns
///    about the pole, moving at most |Ω̇|·sin i·max(|t0|, |t1|), and that
///    much is taken off the distance.
/// The 1e-9 rad margin dwarfs the rounding of coverage_margin, so a plane
/// that grazes the footprint edge is kept.
[[nodiscard]] bool plane_may_cover(const Orbit& orbit, const Vec3& target_unit,
                                   double psi, bool earth_rotation,
                                   Duration t0, Duration t1);

/// Partition [t0, t1] into segments of constant covering-satellite sets.
[[nodiscard]] std::vector<CoverageSegment> multiplicity_timeline(
    const std::vector<Pass>& passes, Duration t0, Duration t1);

/// Predicts satellite passes over ground points for a constellation.
class PassPredictor {
 public:
  /// Default boundary tolerance of passes(); the shared pass table's too.
  static constexpr Duration kDefaultTolerance = Duration::seconds(0.01);

  /// `earth_rotation` selects whether targets rotate with the Earth; the
  /// paper's periodic revisit analysis corresponds to `false`.
  explicit PassPredictor(const Constellation& constellation,
                         bool earth_rotation = false);

  /// All passes over `target` within [t0, t1], sorted by start time, then
  /// by satellite (plane, slot): sweep_orbit_passes for every active
  /// satellite of each plane that plane_may_cover admits at the plane's
  /// own footprint radius, with a step floor of Tc/64 of its plane. The
  /// planes it rejects provably have no pass, so the table is the one a
  /// sweep of every satellite gives, bit for bit.
  /// Boundary crossings are refined to `tol` by bisection/Brent.
  /// The planes are swept as independent tasks through run_shards on up
  /// to `jobs` executors (the caller is one of them; at 1 they run inline
  /// and the pool is never created). The result is
  /// bit-identical for every `jobs`: each plane's passes are a pure
  /// function of its orbits, they are joined in plane order, and the sort
  /// is a total order.
  [[nodiscard]] std::vector<Pass> passes(const GeoPoint& target, Duration t0,
                                         Duration t1,
                                         Duration tol = kDefaultTolerance,
                                         int jobs = 1) const;

  /// Summarize a timeline into coverage statistics.
  [[nodiscard]] static CoverageStats summarize(
      const std::vector<CoverageSegment>& timeline);

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
};

}  // namespace oaq
