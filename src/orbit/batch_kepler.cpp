#include "orbit/batch_kepler.hpp"

#include <cmath>

#include "common/error.hpp"

namespace oaq {

BatchKepler::BatchKepler(const Orbit& orbit)
    : elements_(orbit.elements()),
      mean_motion_(orbit.mean_motion_rad_s()),
      j2_(orbit.j2_enabled()),
      b_over_a_(std::sqrt(1.0 - orbit.elements().eccentricity *
                                    orbit.elements().eccentricity)),
      p_hat_(orbit.perifocal_x_eci()),
      q_hat_(orbit.perifocal_y_eci()) {
  if (j2_) j2_rates_ = orbit.j2_secular_rates();
}

void BatchKepler::solve(const double* mean_anomaly_rad, std::size_t n,
                        double eccentricity, double* eccentric_anomaly_rad,
                        double tol) {
  OAQ_REQUIRE(eccentricity >= 0.0 && eccentricity < 1.0,
              "eccentricity must be in [0, 1)");
  constexpr std::size_t kW = kBatchKeplerWidth;
  for (std::size_t base = 0; base < n; base += kW) {
    const std::size_t nb = std::min(kW, n - base);
    double m[kW];
    double e_anom[kW];
    bool active[kW];
    // Same guess as the scalar solver: E ≈ M + e·sin M after wrapping.
    for (std::size_t j = 0; j < nb; ++j) {
      m[j] = wrap_pi(mean_anomaly_rad[base + j]);
      e_anom[j] = m[j] + eccentricity * std::sin(m[j]);
      active[j] = true;
    }
    // Masked Newton: each lane performs exactly the scalar iteration —
    // apply the step, THEN retire on |step| < tol — so a lane's value
    // sequence matches solve_kepler's regardless of its neighbours.
    for (int iter = 0; iter < 64; ++iter) {
      bool any = false;
      for (std::size_t j = 0; j < nb; ++j) {
        if (!active[j]) continue;
        const double f = e_anom[j] - eccentricity * std::sin(e_anom[j]) - m[j];
        const double fp = 1.0 - eccentricity * std::cos(e_anom[j]);
        const double step = f / fp;
        e_anom[j] -= step;
        if (std::abs(step) < tol) {
          active[j] = false;
        } else {
          any = true;
        }
      }
      if (!any) break;
    }
    for (std::size_t j = 0; j < nb; ++j) eccentric_anomaly_rad[base + j] = e_anom[j];
  }
}

void BatchKepler::positions_block(const double* t_s, std::size_t nb,
                                  double* x_km, double* y_km,
                                  double* z_km) const {
  constexpr std::size_t kW = kBatchKeplerWidth;
  const double a = elements_.semi_major_km;
  const double e = elements_.eccentricity;

  // Per-lane rotation columns and epoch anomaly: constant without J2,
  // secularly drifted per sample with it (the scalar path rebuilds a
  // drifted Orbit per call; the rates are hoisted — they are a pure
  // function of the elements, so every call computed the same values).
  double phx[kW], phy[kW], phz[kW], qhx[kW], qhy[kW], qhz[kW], m0[kW];
  if (j2_) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double dt = t_s[j];
      const double raan =
          wrap_two_pi(elements_.raan_rad + j2_rates_.raan_rate * dt);
      const double argp = wrap_two_pi(elements_.arg_perigee_rad +
                                      j2_rates_.arg_perigee_rate * dt);
      m0[j] = elements_.mean_anomaly_rad + j2_rates_.mean_anomaly_rate * dt;
      // Same R = Rz(Ω)·Rx(i)·Rz(ω) column expressions as the Orbit ctor.
      const double co = std::cos(raan);
      const double so = std::sin(raan);
      const double ci = std::cos(elements_.inclination_rad);
      const double si = std::sin(elements_.inclination_rad);
      const double cw = std::cos(argp);
      const double sw = std::sin(argp);
      phx[j] = co * cw - so * sw * ci;
      phy[j] = so * cw + co * sw * ci;
      phz[j] = sw * si;
      qhx[j] = -co * sw - so * cw * ci;
      qhy[j] = -so * sw + co * cw * ci;
      qhz[j] = cw * si;
    }
  } else {
    for (std::size_t j = 0; j < nb; ++j) {
      phx[j] = p_hat_.x;
      phy[j] = p_hat_.y;
      phz[j] = p_hat_.z;
      qhx[j] = q_hat_.x;
      qhy[j] = q_hat_.y;
      qhz[j] = q_hat_.z;
      m0[j] = elements_.mean_anomaly_rad;
    }
  }

  // Perifocal coordinates, mirroring position_eci's two branches. The
  // named xc/yc products keep the multiply/add association identical to
  // the inlined Vec3 operator chain of the scalar path.
  double xc[kW], yc[kW];
  if (e == 0.0) {
    for (std::size_t j = 0; j < nb; ++j) {
      const double u = m0[j] + mean_motion_ * t_s[j];
      xc[j] = a * std::cos(u);
      yc[j] = a * std::sin(u);
    }
  } else {
    double m[kW], e_anom[kW];
    for (std::size_t j = 0; j < nb; ++j) {
      m[j] = m0[j] + mean_motion_ * t_s[j];
    }
    solve(m, nb, e, e_anom);
    for (std::size_t j = 0; j < nb; ++j) {
      const double ce = std::cos(e_anom[j]);
      const double se = std::sin(e_anom[j]);
      xc[j] = a * (ce - e);
      yc[j] = a * b_over_a_ * se;  // a·√(1−e²)·sin E, sqrt hoisted
    }
  }
  for (std::size_t j = 0; j < nb; ++j) {
    const double px = phx[j] * xc[j];
    const double qx = qhx[j] * yc[j];
    x_km[j] = px + qx;
    const double py = phy[j] * xc[j];
    const double qy = qhy[j] * yc[j];
    y_km[j] = py + qy;
    const double pz = phz[j] * xc[j];
    const double qz = qhz[j] * yc[j];
    z_km[j] = pz + qz;
  }
}

void BatchKepler::positions_eci(const double* t_s, std::size_t n, double* x_km,
                                double* y_km, double* z_km) const {
  constexpr std::size_t kW = kBatchKeplerWidth;
  for (std::size_t base = 0; base < n; base += kW) {
    const std::size_t nb = std::min(kW, n - base);
    positions_block(t_s + base, nb, x_km + base, y_km + base, z_km + base);
  }
}

void BatchKepler::coverage_margins(const Vec3& target_unit,
                                   double footprint_radius_rad,
                                   bool earth_rotation, const double* t_s,
                                   std::size_t n, double* margin_rad) const {
  constexpr std::size_t kW = kBatchKeplerWidth;
  for (std::size_t base = 0; base < n; base += kW) {
    const std::size_t nb = std::min(kW, n - base);
    double x[kW], y[kW], z[kW];
    positions_block(t_s + base, nb, x, y, z);
    if (earth_rotation) {
      for (std::size_t j = 0; j < nb; ++j) {
        const double theta = kEarthRotationRadPerS * t_s[base + j];
        const double c = std::cos(theta);
        const double s = std::sin(theta);
        const double ex = c * x[j] + s * y[j];
        const double ey = -s * x[j] + c * y[j];
        x[j] = ex;
        y[j] = ey;
      }
    }
    // central_angle(subsat, target) without the geodetic round trip: the
    // angle between the (unnormalized) position and the target direction
    // equals the angle between their unit vectors; atan2(|u×v|, u·v) is
    // scale-invariant in u.
    for (std::size_t j = 0; j < nb; ++j) {
      const Vec3 pos{x[j], y[j], z[j]};
      const double angle =
          std::atan2(pos.cross(target_unit).norm(), pos.dot(target_unit));
      margin_rad[base + j] = footprint_radius_rad - angle;
    }
  }
}

}  // namespace oaq
