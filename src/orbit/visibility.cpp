#include "orbit/visibility.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "common/parallel.hpp"

namespace oaq {

PassPredictor::PassPredictor(const Constellation& constellation,
                             bool earth_rotation)
    : constellation_(&constellation), earth_rotation_(earth_rotation) {}

double coverage_margin(const Orbit& orbit, const Vec3& target_unit,
                       double psi, bool earth_rotation, Duration t) {
  const Vec3 eci = orbit.position_eci(t);
  return psi - angle_between(earth_rotation ? eci_to_ecef(eci, t) : eci,
                             target_unit);
}

double subsatellite_rate_bound(const Orbit& orbit, bool earth_rotation) {
  // The sub-satellite direction is the unit position vector (rotated into
  // ECEF when the Earth turns). Its angular velocity is the sum of the
  // motion along the orbit (true anomaly, plus perigee drift), the node
  // regression about the polar axis and, in ECEF, −ω_E about the same
  // axis; the speed of a unit vector is at most the norm of its angular
  // velocity, so the sum of the magnitudes bounds it. The true anomaly
  // advances at dν/dM · dM/dt with dν/dM = (1 + e·cos ν)²/(1 − e²)^{3/2},
  // largest at perigee, and dM/dt = n + Ṁ_J2 in the propagator.
  const double e = orbit.elements().eccentricity;
  const double one_minus_e2 = 1.0 - e * e;
  const double peak_dnu_dm =
      (1.0 + e) * (1.0 + e) / (one_minus_e2 * std::sqrt(one_minus_e2));
  double rate = peak_dnu_dm * orbit.mean_motion_rad_s();
  if (orbit.j2_enabled()) {
    const Orbit::SecularRates j2 = orbit.j2_secular_rates();
    rate += peak_dnu_dm * std::abs(j2.mean_anomaly_rate) +
            std::abs(j2.arg_perigee_rate) + std::abs(j2.raan_rate);
  }
  if (earth_rotation) rate += kEarthRotationRadPerS;
  return rate;
}

bool plane_may_cover(const Orbit& orbit, const Vec3& target_unit, double psi,
                     bool earth_rotation, Duration t0, Duration t1) {
  constexpr double kCullMargin = 1e-9;  // rad
  const KeplerianElements& el = orbit.elements();
  const double inc = el.inclination_rad;
  const double sin_inc = std::sin(inc);
  // Distance from the target to the band of latitudes the plane reaches.
  double gap = std::asin(std::min(1.0, std::abs(target_unit.z))) -
               std::min(inc, kPi - inc);
  if (!earth_rotation) {
    const Vec3 normal{sin_inc * std::sin(el.raan_rad),
                      -sin_inc * std::cos(el.raan_rad), std::cos(inc)};
    double plane_gap =
        std::asin(std::min(1.0, std::abs(normal.dot(target_unit))));
    if (orbit.j2_enabled()) {
      const double horizon =
          std::max(std::abs(t0.to_seconds()), std::abs(t1.to_seconds()));
      plane_gap -=
          std::abs(orbit.j2_secular_rates().raan_rate) * sin_inc * horizon;
    }
    gap = std::max(gap, plane_gap);
  }
  return gap <= psi + kCullMargin;
}

void sweep_orbit_passes(const Orbit& orbit, SatelliteId id,
                        const Vec3& target_unit, double footprint_radius_rad,
                        bool earth_rotation, Duration min_step, Duration t0,
                        Duration t1, Duration tol, std::vector<Pass>& out) {
  OAQ_REQUIRE(t1 > t0, "pass horizon must be nonempty");
  OAQ_REQUIRE(min_step > Duration::zero(), "sweep step must be positive");
  OAQ_REQUIRE(tol > Duration::zero(), "tolerance must be positive");
  // The sweep and the root refinement evaluate this one function, so
  // bracket endpoints agree bitwise and find_root's sign precondition
  // always holds; the refinement reuses the sweep's endpoint margins.
  auto margin = [&](double t_sec) {
    return coverage_margin(orbit, target_unit, footprint_radius_rad,
                           earth_rotation, Duration::seconds(t_sec));
  };
  // The margin ψ − γ changes no faster than the central angle γ, which is
  // 1-Lipschitz in the sub-satellite direction: |dm/dt| <= rate. From a
  // sample with margin m the sign cannot change for |m| / rate seconds,
  // so the sweep leaps that far; near a boundary the step floors at
  // `min_step`, so every pass longer than that holds a sample. The bound
  // needs no safety factor: rounding in the margin (~1e-15 rad) can hide
  // only passes whose peak margin is that small, microseconds long.
  const double rate = subsatellite_rate_bound(orbit, earth_rotation);
  const double floor_step = min_step.to_seconds();
  const double end = t1.to_seconds();
  const double tol_s = tol.to_seconds();

  double t = t0.to_seconds();
  double m = margin(t);
  double pass_start = m > 0.0 ? t : -1.0;
  while (t < end) {
    const double t_next =
        std::min(t + std::max(floor_step, std::abs(m) / rate), end);
    const double m_next = margin(t_next);
    if (m <= 0.0 && m_next > 0.0) {
      pass_start = find_root(margin, t, t_next, m, m_next, tol_s);
    } else if (m > 0.0 && m_next <= 0.0) {
      const double pass_end = find_root(margin, t, t_next, m, m_next, tol_s);
      OAQ_ENSURE(pass_start >= 0.0, "pass end without start");
      out.push_back({id, Duration::seconds(pass_start),
                     Duration::seconds(pass_end)});
      pass_start = -1.0;
    }
    t = t_next;
    m = m_next;
  }
  if (pass_start >= 0.0 && m > 0.0) {
    // Still covered at the end of the horizon.
    out.push_back({id, Duration::seconds(pass_start), t1});
  }
}

std::vector<Pass> PassPredictor::passes(const GeoPoint& target, Duration t0,
                                        Duration t1, Duration tol,
                                        int jobs) const {
  OAQ_REQUIRE(t1 > t0, "pass horizon must be nonempty");
  OAQ_REQUIRE(tol > Duration::zero(), "tolerance must be positive");
  OAQ_REQUIRE(jobs >= 1, "pass sweep needs at least one executor");
  const Vec3 target_unit = geo_to_ecef_unit(target);
  // Planes that may cover the target; the rest have no pass. Every slot
  // shares its plane's i, Ω and J2 drift, so slot 0 speaks for all.
  std::vector<int> planes;
  for (int pi = 0; pi < constellation_->num_planes(); ++pi) {
    const auto& plane = constellation_->plane(pi);
    if (plane.active_count() > 0 &&
        plane_may_cover(
            plane.orbit_of(0), target_unit,
            constellation_->footprint_of_plane(pi).angular_radius_rad(),
            earth_rotation_, t0, t1)) {
      planes.push_back(pi);
    }
  }
  const int n_tasks = static_cast<int>(planes.size());

  // One task per swept plane, each appending to its own vector: a sweep is
  // a pure function of (orbit, target, window), so a plane's passes do not
  // depend on which executor swept it.
  std::vector<std::vector<Pass>> plane_passes(planes.size());
  const auto sweep_plane = [&](int task) {
    const int pi = planes[static_cast<std::size_t>(task)];
    const auto& plane = constellation_->plane(pi);
    // Per-plane footprint: shells differ in altitude and sensor half-angle
    // (single-shell constellations see the same fp/ψ as before).
    const auto& fp = constellation_->footprint_of_plane(pi);
    const double psi = fp.angular_radius_rad();
    // Step floor: a footprint transit lasts Tc = θ·ψ/π; 64 samples per
    // transit reliably bracket every crossing.
    const Duration min_step = fp.coverage_time(plane.period()) / 64.0;
    auto& out = plane_passes[static_cast<std::size_t>(task)];
    for (int slot = 0; slot < plane.active_count(); ++slot) {
      sweep_orbit_passes(plane.orbit_of(slot), SatelliteId{pi, slot},
                         target_unit, psi, earth_rotation_, min_step, t0, t1,
                         tol, out);
    }
  };
  run_shards(n_tasks, jobs, sweep_plane);

  std::size_t total = 0;
  for (const auto& v : plane_passes) total += v.size();
  std::vector<Pass> result;
  result.reserve(total);
  for (const auto& v : plane_passes) {
    result.insert(result.end(), v.begin(), v.end());
  }
  // Total order: passes that start together (e.g. every satellite already
  // covering the target at t0) sort by satellite, so the table never
  // depends on the standard library's unstable sort — nor, with the plane
  // order above, on the executor count.
  std::sort(result.begin(), result.end(), [](const Pass& a, const Pass& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.satellite < b.satellite;
  });
  return result;
}

std::vector<CoverageSegment> multiplicity_timeline(
    const std::vector<Pass>& passes, Duration t0, Duration t1) {
  OAQ_REQUIRE(t1 > t0, "timeline horizon must be nonempty");
  // Sweep over pass boundaries.
  struct Event {
    Duration at;
    bool enter;
    SatelliteId sat;
  };
  std::vector<Event> events;
  events.reserve(passes.size() * 2);
  for (const auto& p : passes) {
    const Duration s = std::max(p.start, t0);
    const Duration e = std::min(p.end, t1);
    if (e <= s) continue;
    events.push_back({s, true, p.satellite});
    events.push_back({e, false, p.satellite});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.enter < b.enter;  // process exits before entries at equal times
  });

  std::vector<CoverageSegment> timeline;
  std::vector<SatelliteId> current;
  Duration cursor = t0;
  auto emit = [&](Duration upto) {
    if (upto > cursor) {
      timeline.push_back({cursor, upto, current});
      cursor = upto;
    }
  };
  for (const auto& ev : events) {
    emit(ev.at);
    if (ev.enter) {
      current.push_back(ev.sat);
    } else {
      current.erase(std::remove(current.begin(), current.end(), ev.sat),
                    current.end());
    }
  }
  emit(t1);
  return timeline;
}

CoverageStats PassPredictor::summarize(
    const std::vector<CoverageSegment>& timeline) {
  CoverageStats stats;
  for (const auto& seg : timeline) {
    const Duration d = seg.duration();
    stats.horizon += d;
    switch (seg.multiplicity()) {
      case 0:
        stats.uncovered += d;
        stats.longest_gap = std::max(stats.longest_gap, d);
        break;
      case 1:
        stats.single += d;
        stats.longest_single_pass = std::max(stats.longest_single_pass, d);
        break;
      default:
        stats.multiple += d;
        break;
    }
    stats.max_multiplicity = std::max(stats.max_multiplicity, seg.multiplicity());
  }
  return stats;
}

}  // namespace oaq
