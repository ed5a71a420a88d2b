#include "orbit/kepler.hpp"

#include <cmath>

#include "common/error.hpp"

namespace oaq {

double solve_kepler(double mean_anomaly_rad, double eccentricity, double tol) {
  OAQ_REQUIRE(eccentricity >= 0.0 && eccentricity < 1.0,
              "eccentricity must be in [0, 1)");
  const double m = wrap_pi(mean_anomaly_rad);
  // Starting guess: E ≈ M + e·sin M works well for all e < 1.
  double e_anom = m + eccentricity * std::sin(m);
  for (int iter = 0; iter < 64; ++iter) {
    const double f = e_anom - eccentricity * std::sin(e_anom) - m;
    const double fp = 1.0 - eccentricity * std::cos(e_anom);
    const double step = f / fp;
    e_anom -= step;
    if (std::abs(step) < tol) break;
  }
  return e_anom;
}

Orbit::Orbit(const KeplerianElements& elements) : elements_(elements) {
  OAQ_REQUIRE(elements.semi_major_km > kEarthRadiusKm,
              "orbit must be above the Earth surface");
  OAQ_REQUIRE(elements.eccentricity >= 0.0 && elements.eccentricity < 1.0,
              "eccentricity must be in [0, 1)");
  const double a = elements.semi_major_km;
  mean_motion_ = std::sqrt(kEarthMuKm3PerS2 / (a * a * a));

  // Perifocal→ECI rotation R = Rz(Ω)·Rx(i)·Rz(ω), stored as the images of
  // the perifocal x (toward perigee) and y axes.
  const double co = std::cos(elements.raan_rad);
  const double so = std::sin(elements.raan_rad);
  const double ci = std::cos(elements.inclination_rad);
  const double si = std::sin(elements.inclination_rad);
  const double cw = std::cos(elements.arg_perigee_rad);
  const double sw = std::sin(elements.arg_perigee_rad);
  p_hat_ = {co * cw - so * sw * ci, so * cw + co * sw * ci, sw * si};
  q_hat_ = {-co * sw - so * cw * ci, -so * sw + co * cw * ci, cw * si};
}

Orbit Orbit::circular(double altitude_km, double inclination_rad,
                      double raan_rad, double arg_latitude_rad) {
  OAQ_REQUIRE(altitude_km > 0.0, "altitude must be positive");
  KeplerianElements el;
  el.semi_major_km = kEarthRadiusKm + altitude_km;
  el.eccentricity = 0.0;
  el.inclination_rad = inclination_rad;
  el.raan_rad = raan_rad;
  el.arg_perigee_rad = 0.0;
  // For e = 0 the mean anomaly equals the argument of latitude.
  el.mean_anomaly_rad = wrap_two_pi(arg_latitude_rad);
  return Orbit(el);
}

Orbit Orbit::circular_with_period(Duration period, double inclination_rad,
                                  double raan_rad, double arg_latitude_rad) {
  const double a = semi_major_for_period(period);
  return circular(a - kEarthRadiusKm, inclination_rad, raan_rad,
                  arg_latitude_rad);
}

double Orbit::semi_major_for_period(Duration period) {
  OAQ_REQUIRE(period > Duration::zero(), "period must be positive");
  const double t_over_2pi = period.to_seconds() / (2.0 * kPi);
  return std::cbrt(kEarthMuKm3PerS2 * t_over_2pi * t_over_2pi);
}

Duration Orbit::period() const {
  return Duration::seconds(2.0 * kPi / mean_motion_);
}

Orbit Orbit::with_j2() const {
  Orbit copy = *this;
  copy.j2_ = true;
  return copy;
}

Orbit::SecularRates Orbit::j2_secular_rates() const {
  // Standard first-order secular J2 rates (Vallado eq. 9-38ff):
  //   dΩ/dt = −(3/2) J2 n (Re/p)² cos i
  //   dω/dt =  (3/4) J2 n (Re/p)² (4 − 5 sin² i)
  //   dM/dt =  (3/4) J2 n (Re/p)² √(1−e²) (2 − 3 sin² i)
  const double a = elements_.semi_major_km;
  const double e = elements_.eccentricity;
  const double p = a * (1.0 - e * e);
  const double factor = kEarthJ2 * mean_motion_ *
                        (kEarthRadiusKm / p) * (kEarthRadiusKm / p);
  const double si = std::sin(elements_.inclination_rad);
  const double ci = std::cos(elements_.inclination_rad);
  SecularRates rates;
  rates.raan_rate = -1.5 * factor * ci;
  rates.arg_perigee_rate = 0.75 * factor * (4.0 - 5.0 * si * si);
  rates.mean_anomaly_rate =
      0.75 * factor * std::sqrt(1.0 - e * e) * (2.0 - 3.0 * si * si);
  return rates;
}

Orbit Orbit::drifted(Duration t) const {
  const SecularRates rates = j2_secular_rates();
  KeplerianElements el = elements_;
  const double dt = t.to_seconds();
  el.raan_rad = wrap_two_pi(elements_.raan_rad + rates.raan_rate * dt);
  el.arg_perigee_rad =
      wrap_two_pi(elements_.arg_perigee_rad + rates.arg_perigee_rate * dt);
  el.mean_anomaly_rad =
      elements_.mean_anomaly_rad + rates.mean_anomaly_rate * dt;
  return Orbit(el);
}

StateVector Orbit::state_at(Duration t) const {
  if (j2_) return drifted(t).state_at(t);
  const double a = elements_.semi_major_km;
  const double e = elements_.eccentricity;
  const double m = elements_.mean_anomaly_rad + mean_motion_ * t.to_seconds();
  const double e_anom = solve_kepler(m, e);
  const double ce = std::cos(e_anom);
  const double se = std::sin(e_anom);
  const double b_over_a = std::sqrt(1.0 - e * e);

  // Perifocal coordinates.
  const double x = a * (ce - e);
  const double y = a * b_over_a * se;
  const double r = a * (1.0 - e * ce);
  const double vx = -a * mean_motion_ * a / r * se;
  const double vy = a * mean_motion_ * a / r * b_over_a * ce;

  return {p_hat_ * x + q_hat_ * y, p_hat_ * vx + q_hat_ * vy};
}

Vec3 Orbit::position_eci(Duration t) const {
  if (j2_) return drifted(t).position_eci(t);
  const double e = elements_.eccentricity;
  if (e == 0.0) {
    // Fast path for circular orbits — no Kepler solve.
    const double u = elements_.mean_anomaly_rad + mean_motion_ * t.to_seconds();
    const double a = elements_.semi_major_km;
    return p_hat_ * (a * std::cos(u)) + q_hat_ * (a * std::sin(u));
  }
  return state_at(t).position_km;
}

GeoPoint Orbit::subsatellite_point(Duration t, bool earth_rotation) const {
  const Vec3 eci = position_eci(t);
  return ecef_to_geo(earth_rotation ? eci_to_ecef(eci, t) : eci);
}

}  // namespace oaq
