// Keplerian orbital mechanics (hand-rolled, spherical Earth).
//
// The reference constellation flies circular LEO orbits, but the propagator
// supports general elliptical elements so the library is usable beyond the
// paper's case study. Two-body motion plus optional J2 SECULAR rates (node
// regression, perigee drift, mean-motion correction): the paper's geometric
// analysis (Tr, Tc) assumes ideal repeating geometry, and the J2 option
// exists precisely to quantify that idealization
// (bench/ablation_ideal_geometry). Short-periodic J2 terms and drag are out
// of scope.
#pragma once

#include "common/units.hpp"
#include "geom/geodesy.hpp"
#include "geom/vec3.hpp"

namespace oaq {

/// Position/velocity pair in the ECI frame (km, km/s).
struct StateVector {
  Vec3 position_km;
  Vec3 velocity_km_s;
};

/// Classical orbital elements at epoch t = 0.
struct KeplerianElements {
  double semi_major_km = 0.0;     ///< semi-major axis a > Earth radius
  double eccentricity = 0.0;      ///< e in [0, 1)
  double inclination_rad = 0.0;   ///< i in [0, π]
  double raan_rad = 0.0;          ///< right ascension of ascending node Ω
  double arg_perigee_rad = 0.0;   ///< argument of perigee ω
  double mean_anomaly_rad = 0.0;  ///< mean anomaly M at epoch
};

/// Solve Kepler's equation M = E − e·sin E for the eccentric anomaly E.
/// Newton iteration; converges for all e in [0, 1).
[[nodiscard]] double solve_kepler(double mean_anomaly_rad, double eccentricity,
                                  double tol = 1e-13);

/// Two-body propagator for one satellite.
class Orbit {
 public:
  explicit Orbit(const KeplerianElements& elements);

  /// Circular orbit factory: altitude above the spherical Earth surface,
  /// inclination, node, and initial argument of latitude u0 (angle from the
  /// ascending node along the orbit at epoch).
  [[nodiscard]] static Orbit circular(double altitude_km,
                                      double inclination_rad, double raan_rad,
                                      double arg_latitude_rad);

  /// Circular orbit with the given period instead of altitude.
  [[nodiscard]] static Orbit circular_with_period(Duration period,
                                                  double inclination_rad,
                                                  double raan_rad,
                                                  double arg_latitude_rad);

  [[nodiscard]] const KeplerianElements& elements() const { return elements_; }
  [[nodiscard]] Duration period() const;
  /// Mean motion n, rad/s.
  [[nodiscard]] double mean_motion_rad_s() const { return mean_motion_; }

  /// ECI state at elapsed time `t` since epoch.
  [[nodiscard]] StateVector state_at(Duration t) const;

  /// ECI position only; circular orbits skip the Kepler solve. The pass
  /// sweep (coverage_margin in orbit/visibility) calls it once per sample,
  /// so it is the only propagator behind every pass table.
  [[nodiscard]] Vec3 position_eci(Duration t) const;

  /// Sub-satellite point. When `earth_rotation` is true the ECI position is
  /// rotated into ECEF first; otherwise the ground track repeats every orbit
  /// (the idealization behind the paper's revisit-time analysis).
  [[nodiscard]] GeoPoint subsatellite_point(Duration t,
                                            bool earth_rotation = false) const;

  /// Semi-major axis for a circular orbit of the given period.
  [[nodiscard]] static double semi_major_for_period(Duration period);

  /// Enable J2 secular perturbations: the returned orbit's node, argument
  /// of perigee and mean anomaly drift at the standard secular rates.
  [[nodiscard]] Orbit with_j2() const;

  /// Secular rates (rad/s) under J2 for these elements:
  /// {dΩ/dt, dω/dt, dM/dt correction}.
  struct SecularRates {
    double raan_rate = 0.0;
    double arg_perigee_rate = 0.0;
    double mean_anomaly_rate = 0.0;
  };
  [[nodiscard]] SecularRates j2_secular_rates() const;

  [[nodiscard]] bool j2_enabled() const { return j2_; }

 private:
  /// The J2-free orbit of the elements drifted secularly to time t.
  [[nodiscard]] Orbit drifted(Duration t) const;

  KeplerianElements elements_;
  double mean_motion_ = 0.0;  // rad/s
  bool j2_ = false;
  // Precomputed perifocal→ECI rotation columns.
  Vec3 p_hat_;  // toward perigee
  Vec3 q_hat_;  // 90° ahead in the orbit plane
};

}  // namespace oaq
