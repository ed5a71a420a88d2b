#include "orbit/visibility.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "orbit/batch_kepler.hpp"

namespace oaq {

PassPredictor::PassPredictor(const Constellation& constellation,
                             bool earth_rotation)
    : constellation_(&constellation), earth_rotation_(earth_rotation) {}

std::vector<Pass> PassPredictor::passes(const GeoPoint& target, Duration t0,
                                        Duration t1, Duration tol) const {
  OAQ_REQUIRE(t1 > t0, "pass horizon must be nonempty");
  OAQ_REQUIRE(tol > Duration::zero(), "tolerance must be positive");
  std::vector<Pass> result;

  // Sample grid and margin sweep, reused across satellites. The grid
  // accumulates exactly like the pre-batch scalar loop did (t += step,
  // clamped to t1), so crossing brackets land on the same sample times.
  std::vector<double> times;
  std::vector<double> margins;

  for (int pi = 0; pi < constellation_->num_planes(); ++pi) {
    const auto& plane = constellation_->plane(pi);
    // Per-plane footprint: shells differ in altitude and sensor half-angle
    // (single-shell constellations see the same fp/ψ as before).
    const auto& fp = constellation_->footprint_of_plane(pi);
    const double psi = fp.angular_radius_rad();
    // Sample interval: a footprint transit lasts Tc = θ·ψ/π; 64 samples per
    // transit reliably brackets every crossing.
    const Duration transit = fp.coverage_time(plane.period());
    const Duration step = transit / 64.0;
    times.clear();
    {
      double t = t0.to_seconds();
      times.push_back(t);
      while (t < t1.to_seconds()) {
        t = std::min(t + step.to_seconds(), t1.to_seconds());
        times.push_back(t);
      }
    }
    for (int slot = 0; slot < plane.active_count(); ++slot) {
      const Orbit orbit = plane.orbit_of(slot);
      const BatchKepler batch(orbit);
      // Root refinement evaluates single elements through the SAME batched
      // kernel, so bracket endpoints agree bitwise with the sweep values —
      // find_root's sign preconditions can never be violated by a
      // sweep/refine mismatch.
      auto margin = [&](double t_sec) {
        double m = 0.0;
        batch.coverage_margins(target, psi, earth_rotation_, &t_sec, 1, &m);
        return m;
      };

      margins.resize(times.size());
      batch.coverage_margins(target, psi, earth_rotation_, times.data(),
                             times.size(), margins.data());

      double m_prev = margins[0];
      double pass_start = m_prev > 0.0 ? times[0] : -1.0;
      for (std::size_t i = 1; i < times.size(); ++i) {
        const double t = times[i - 1];
        const double t_next = times[i];
        const double m_next = margins[i];
        if (m_prev <= 0.0 && m_next > 0.0) {
          pass_start = find_root(margin, t, t_next, tol.to_seconds());
        } else if (m_prev > 0.0 && m_next <= 0.0) {
          const double pass_end = find_root(margin, t, t_next, tol.to_seconds());
          OAQ_ENSURE(pass_start >= 0.0, "pass end without start");
          result.push_back({SatelliteId{pi, slot},
                            Duration::seconds(pass_start),
                            Duration::seconds(pass_end)});
          pass_start = -1.0;
        }
        m_prev = m_next;
      }
      if (pass_start >= 0.0 && m_prev > 0.0) {
        // Still covered at the end of the horizon.
        result.push_back({SatelliteId{pi, slot}, Duration::seconds(pass_start),
                          t1});
      }
    }
  }

  // Total order: passes that start together (e.g. every satellite already
  // covering the target at t0) sort by satellite, so the table never
  // depends on the standard library's unstable sort.
  std::sort(result.begin(), result.end(), [](const Pass& a, const Pass& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.satellite < b.satellite;
  });
  return result;
}

std::vector<CoverageSegment> PassPredictor::multiplicity_timeline(
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
