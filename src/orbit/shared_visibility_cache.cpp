#include "orbit/shared_visibility_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace oaq {
namespace {

/// splitmix64 finalizer — a fast, well-distributed 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Quantized enclosing window shared by seeding and queries, so a query
/// keys (and therefore finds) exactly the window a seed with the same
/// bounds computed.
struct QuantizedWindow {
  Duration f;       ///< request start clamped to >= 0
  Duration q_from;  ///< window start rounded down to the quantum grid
  Duration q_to;    ///< window end rounded up to the quantum grid
  bool empty = false;
};

QuantizedWindow quantize(Duration from, Duration to, Duration quantum) {
  OAQ_REQUIRE(to > from, "pass window must be nonempty");
  QuantizedWindow w;
  w.f = std::max(from, Duration::zero());
  if (to <= w.f) {
    w.empty = true;
    return w;
  }
  const double q = quantum.to_seconds();
  w.q_from = Duration::seconds(std::floor(w.f.to_seconds() / q) * q);
  w.q_to = Duration::seconds(std::ceil(to.to_seconds() / q) * q);
  return w;
}

void append_clipped(const std::vector<Pass>& all, Duration f, Duration to,
                    std::vector<Pass>& out) {
  for (const Pass& p : all) {
    if (p.end <= f || p.start >= to) continue;
    out.push_back({p.satellite, std::max(p.start, f), std::min(p.end, to)});
  }
}

}  // namespace

std::size_t VisibilityKeyHash::operator()(const VisibilityKey& k) const {
  std::uint64_t h = mix64(k.lat);
  h = mix64(h ^ k.lon);
  h = mix64(h ^ k.t0);
  h = mix64(h ^ k.t1);
  return static_cast<std::size_t>(h);
}

VisibilityKey make_visibility_key(const GeoPoint& target, Duration t0,
                                  Duration t1) {
  return VisibilityKey{std::bit_cast<std::uint64_t>(target.lat_rad),
                       std::bit_cast<std::uint64_t>(target.lon_rad),
                       std::bit_cast<std::uint64_t>(t0.to_seconds()),
                       std::bit_cast<std::uint64_t>(t1.to_seconds())};
}

SharedVisibilityCache::SharedVisibilityCache(const Constellation& constellation,
                                             bool earth_rotation,
                                             Options options)
    : constellation_(&constellation),
      earth_rotation_(earth_rotation),
      options_(options),
      predictor_(constellation, earth_rotation) {
  OAQ_REQUIRE(options.tol > Duration::zero(), "tolerance must be positive");
  OAQ_REQUIRE(options.window_quantum > Duration::zero(),
              "window quantum must be positive");
}

void SharedVisibilityCache::seed_window(const GeoPoint& target, Duration from,
                                        Duration to) {
  OAQ_REQUIRE(!frozen_, "seed_window after freeze");
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  const auto [it, inserted] =
      map_.try_emplace(make_visibility_key(target, w.q_from, w.q_to));
  if (inserted) {
    it->second = predictor_.passes(target, w.q_from, w.q_to, options_.tol);
  }
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
  out.clear();
  const QuantizedWindow w = quantize(from, to, options_.window_quantum);
  if (w.empty) return;
  if (stats != nullptr) ++stats->pass_queries;
  const auto it = map_.find(make_visibility_key(target, w.q_from, w.q_to));
  if (it != map_.end()) {
    if (stats != nullptr) ++stats->pass_hits;
    append_clipped(it->second, w.f, to, out);
    return;
  }
  // Unseeded window: the same sweep seed_window would have stored, computed
  // for this query only (the map is read-only once frozen).
  append_clipped(predictor_.passes(target, w.q_from, w.q_to, options_.tol),
                 w.f, to, out);
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
  return map_.size();
}

}  // namespace oaq
