#include "oaq/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace oaq {

AnalyticSchedule::AnalyticSchedule(PlaneGeometry geometry, int k,
                                   Duration phase)
    : geometry_(geometry), k_(k), phase_(phase) {
  OAQ_REQUIRE(k > 0, "schedule needs at least one satellite");
}

void AnalyticSchedule::passes_into(Duration from, Duration to,
                                   std::vector<Pass>& out) const {
  OAQ_REQUIRE(to > from, "pass window must be nonempty");
  out.clear();
  const Duration tr = geometry_.tr(k_);
  const Duration tc = geometry_.tc();
  // Pass j (j ∈ ℤ) is centered at phase + j·Tr and covers ±Tc/2 around it.
  // Satellite identity: slot (j mod k) descending so that consecutive
  // visitors are consecutive chain members (slot j, j-1, ... mod k).
  const double from_c = (from - tc / 2.0 - phase_) / tr;
  const double to_c = (to + tc / 2.0 - phase_) / tr;
  // Ascending j yields ascending centers, so the output is already sorted
  // by start time.
  for (long j = static_cast<long>(std::floor(from_c));
       j <= static_cast<long>(std::ceil(to_c)); ++j) {
    const Duration center = phase_ + tr * static_cast<double>(j);
    const Duration start = center - tc / 2.0;
    const Duration end = center + tc / 2.0;
    if (end < from || start > to) continue;
    const int slot = static_cast<int>(((-j % k_) + k_) % k_);
    out.push_back({SatelliteId{0, slot}, start, end});
  }
}

GeometricSchedule::GeometricSchedule(const SharedVisibilityCache& cache,
                                     VisibilityCacheStats* stats)
    : cache_(&cache), stats_(stats) {}

void GeometricSchedule::passes_into(Duration from, Duration to,
                                    std::vector<Pass>& out) const {
  cache_->passes_window_into(cache_->target(), from, to, out, stats_);
}

int GeometricSchedule::satellite_count() const {
  return cache_->satellite_count();
}

Duration visibility_quantum(Duration latest_start, Duration tau) {
  return latest_start + tau + Duration::hours(2);
}

RunPassTable::RunPassTable(const Constellation& constellation,
                           bool earth_rotation, GeoPoint target,
                           Duration quantum, SpanArena* spans)
    : cache(constellation, earth_rotation, {quantum}) {
  hook.seed = [this, target, quantum, spans](int jobs) {
    const ScopedSpan span(spans, "visibility_seed");
    cache.seed_window(target, Duration::zero(), quantum, jobs);
  };
  hook.freeze = [this, spans] {
    const ScopedSpan span(spans, "visibility_freeze");
    cache.freeze();
  };
}

std::optional<Duration> first_overlap_start(const std::vector<Pass>& passes,
                                            Duration from, Duration to,
                                            std::vector<OverlapEvent>& scratch) {
  if (passes.empty() || to <= from) return std::nullopt;
  scratch.clear();
  for (const auto& p : passes) {
    const Duration s = std::max(p.start, from);
    const Duration e = std::min(p.end, to);
    if (e <= s) continue;
    scratch.push_back({s, true});
    scratch.push_back({e, false});
  }
  // Boundary order mirrors multiplicity_timeline exactly: by time, exits
  // before entries at equal times, so segment multiplicities match the
  // materializing sweep bit for bit.
  std::sort(scratch.begin(), scratch.end(),
            [](const OverlapEvent& a, const OverlapEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.enter < b.enter;
            });
  int depth = 0;
  Duration cursor = from;
  const auto qualifies = [&](Duration upto) {
    // overlap_windows keeps segments with multiplicity >= 2 that are not
    // degenerate; merging only ever extends a window's end, so the first
    // kept segment's start is the first window's start.
    return depth >= 2 && upto - cursor > Duration::seconds(1e-6);
  };
  for (const auto& ev : scratch) {
    if (ev.at > cursor) {
      if (qualifies(ev.at)) return cursor;
      cursor = ev.at;
    }
    depth += ev.enter ? 1 : -1;
  }
  if (to > cursor && qualifies(to)) return cursor;
  return std::nullopt;
}

std::vector<CoverageSegment> overlap_windows(const std::vector<Pass>& passes,
                                             Duration from, Duration to) {
  if (passes.empty() || to <= from) return {};
  auto timeline = multiplicity_timeline(passes, from, to);
  std::vector<CoverageSegment> out;
  for (auto& seg : timeline) {
    if (seg.multiplicity() < 2) continue;
    if (seg.duration() <= Duration::seconds(1e-6)) continue;  // degenerate
    if (!out.empty() && out.back().end == seg.start &&
        seg.multiplicity() >= 2) {
      out.back().end = seg.end;  // merge adjacent ≥2 segments
    } else {
      out.push_back(std::move(seg));
    }
  }
  return out;
}

}  // namespace oaq
