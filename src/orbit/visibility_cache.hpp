// Memoized pass prediction (ISSUE 3).
//
// PassPredictor::passes solves Kepler's equation tens of thousands of
// times per query (a sampling sweep plus root refinement per boundary).
// Monte-Carlo shards and campaigns ask for passes over the same target and
// near-identical windows thousands of times; a VisibilityCache memoizes
// the results so each distinct (target, window) pays the Kepler cost once.
//
// Two query layers:
//   * passes()/multiplicity_timeline() — exact memoization: bit-identical
//     to calling PassPredictor directly with the same arguments, keyed on
//     the bit patterns of (target, t0, t1).
//   * passes_window() — quantized queries for workloads whose windows vary
//     per episode: the request is rounded OUT to a grid of
//     `options.window_quantum`, the enclosing window is computed and
//     cached once, and the result is clipped to the request. Episodes with
//     nearby windows share one cached computation. The clipped result is a
//     pure function of the request (never of cache state or call order),
//     so sharded runs stay bit-identical for any worker count.
//
// The cache is single-threaded by design: create one per shard/thread
// (they are cheap — one PassPredictor plus the maps) instead of sharing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "orbit/visibility.hpp"

namespace oaq {

/// Hit/miss counters; exported by the engines into the metrics registry.
struct VisibilityCacheStats {
  std::uint64_t pass_queries = 0;
  std::uint64_t pass_hits = 0;
  std::uint64_t timeline_queries = 0;
  std::uint64_t timeline_hits = 0;
};

/// Bit-exact cache key shared by VisibilityCache and SharedVisibilityCache:
/// hashing the IEEE-754 patterns makes 'same inputs' mean 'same bits' — no
/// epsilon surprises, no false hits.
struct VisibilityKey {
  std::uint64_t lat = 0, lon = 0, t0 = 0, t1 = 0;
  friend bool operator==(const VisibilityKey&, const VisibilityKey&) = default;
};
struct VisibilityKeyHash {
  std::size_t operator()(const VisibilityKey& k) const;
};
[[nodiscard]] VisibilityKey make_visibility_key(const GeoPoint& target,
                                                Duration t0, Duration t1);

/// Tuning knobs of a VisibilityCache (namespace-scope so it can serve as
/// a defaulted constructor argument).
struct VisibilityCacheOptions {
  /// Boundary-refinement tolerance used for every query (part of the
  /// cache's identity rather than the key: mixing tolerances in one
  /// cache would make hits depend on query order).
  Duration tol = Duration::seconds(0.01);
  /// Grid for passes_window(): requests are rounded out to multiples of
  /// this quantum before computing, so nearby windows share an entry.
  Duration window_quantum = Duration::hours(1);
};

/// Memoizing front end to a PassPredictor for one constellation.
class VisibilityCache {
 public:
  using Options = VisibilityCacheOptions;

  explicit VisibilityCache(const Constellation& constellation,
                           bool earth_rotation = false, Options options = {});

  /// Memoized PassPredictor::passes(target, t0, t1, tol). The reference is
  /// stable until clear() — the underlying map never invalidates values.
  const std::vector<Pass>& passes(const GeoPoint& target, Duration t0,
                                  Duration t1);

  /// Memoized multiplicity timeline over the cached passes for the same
  /// window (counts one pass query internally on first computation).
  const std::vector<CoverageSegment>& multiplicity_timeline(
      const GeoPoint& target, Duration t0, Duration t1);

  /// Quantized query: passes intersecting [from, to] (negative `from` is
  /// clamped to 0 like GeometricSchedule), clipped to the window, computed
  /// via the cached quantum-aligned enclosing window.
  [[nodiscard]] std::vector<Pass> passes_window(const GeoPoint& target,
                                                Duration from, Duration to);

  /// Same clipped passes written into `out` (cleared first). Steady state
  /// (cached window, `out` capacity reused) performs no allocation — the
  /// per-episode hot path of reused episode contexts.
  void passes_window_into(const GeoPoint& target, Duration from, Duration to,
                          std::vector<Pass>& out);

  [[nodiscard]] const Constellation* constellation() const {
    return constellation_;
  }
  [[nodiscard]] bool earth_rotation() const { return earth_rotation_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] const VisibilityCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t entry_count() const {
    return pass_cache_.size() + timeline_cache_.size();
  }
  void clear();

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
  Options options_;
  PassPredictor predictor_;
  std::unordered_map<VisibilityKey, std::vector<Pass>, VisibilityKeyHash>
      pass_cache_;
  std::unordered_map<VisibilityKey, std::vector<CoverageSegment>,
                     VisibilityKeyHash>
      timeline_cache_;
  VisibilityCacheStats stats_;
};

}  // namespace oaq
