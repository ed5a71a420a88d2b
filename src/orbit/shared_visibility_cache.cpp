#include "orbit/shared_visibility_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "common/error.hpp"

namespace oaq {

SharedVisibilityCache::SharedVisibilityCache(const Constellation& constellation,
                                             bool earth_rotation,
                                             Options options)
    : constellation_(&constellation),
      earth_rotation_(earth_rotation),
      window_quantum_(options.window_quantum) {
  OAQ_REQUIRE(options.window_quantum > Duration::zero(),
              "window quantum must be positive");
}

void SharedVisibilityCache::seed_window(const GeoPoint& target, Duration from,
                                        Duration to, int jobs) {
  OAQ_REQUIRE(!frozen_, "seed_window after freeze");
  OAQ_REQUIRE(!seeded_, "pass table already seeded");
  const Duration f = std::max(from, Duration::zero());
  OAQ_REQUIRE(to > f, "seeded window must be nonempty after clamping to 0");
  const double q = window_quantum_.to_seconds();
  from_ = Duration::seconds(std::floor(f.to_seconds() / q) * q);
  to_ = Duration::seconds(std::ceil(to.to_seconds() / q) * q);
  target_ = target;
  passes_ = PassPredictor(*constellation_, earth_rotation_)
                .passes(target, from_, to_, PassPredictor::kDefaultTolerance,
                        jobs);
  max_end_.clear();
  max_end_.reserve(passes_.size());
  std::vector<SatelliteId> ids;
  ids.reserve(passes_.size());
  for (const Pass& p : passes_) {
    max_end_.push_back(max_end_.empty() ? p.end
                                        : std::max(max_end_.back(), p.end));
    ids.push_back(p.satellite);
  }
  std::sort(ids.begin(), ids.end());
  satellite_count_ = static_cast<int>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  seeded_ = true;
}

void SharedVisibilityCache::freeze() {
  OAQ_REQUIRE(!frozen_, "freeze called twice");
  frozen_ = true;
}

void SharedVisibilityCache::passes_window_into(const GeoPoint& target,
                                               Duration from, Duration to,
                                               std::vector<Pass>& out,
                                               VisibilityCacheStats* stats)
    const {
  OAQ_REQUIRE(frozen_, "passes_window before freeze");
  OAQ_REQUIRE(to > from, "pass window must be nonempty");
  out.clear();
  const Duration f = std::max(from, Duration::zero());
  if (to <= f) return;
  OAQ_REQUIRE(seeded_ &&
                  std::bit_cast<std::uint64_t>(target.lat_rad) ==
                      std::bit_cast<std::uint64_t>(target_.lat_rad) &&
                  std::bit_cast<std::uint64_t>(target.lon_rad) ==
                      std::bit_cast<std::uint64_t>(target_.lon_rad),
              "pass query for a target the table was not seeded with");
  OAQ_REQUIRE(f >= from_ && to <= to_,
              "pass query outside the seeded window");
  if (stats != nullptr) {
    ++stats->pass_queries;
    ++stats->pass_hits;
  }
  // Every pass before the first running-max end past `f` ends at or
  // before `f`, so the clip below would skip it: starting there yields
  // the same passes in the same order. (A pass that starts before `f`
  // may still straddle it, so the start cannot be searched on instead.)
  const auto first = std::partition_point(
      max_end_.begin(), max_end_.end(), [f](Duration e) { return e <= f; });
  const auto skip = static_cast<std::size_t>(first - max_end_.begin());
  for (const Pass& p : std::span(passes_).subspan(skip)) {
    if (p.start >= to) break;  // the table is sorted by start
    if (p.end <= f) continue;
    out.push_back({p.satellite, std::max(p.start, f), std::min(p.end, to)});
  }
}

std::vector<Pass> SharedVisibilityCache::passes_window(
    const GeoPoint& target, Duration from, Duration to,
    VisibilityCacheStats* stats) const {
  std::vector<Pass> out;
  passes_window_into(target, from, to, out, stats);
  return out;
}

std::size_t SharedVisibilityCache::frozen_entries() const {
  OAQ_REQUIRE(frozen_, "frozen_entries before freeze");
  return seeded_ ? 1 : 0;
}

int SharedVisibilityCache::satellite_count() const {
  OAQ_REQUIRE(seeded_, "satellite_count before seed_window");
  return satellite_count_;
}

}  // namespace oaq
