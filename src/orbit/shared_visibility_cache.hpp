// Shared visibility cache: one seed → freeze pass cache per run.
//
// PassPredictor::passes solves Kepler's equation tens of thousands of
// times per query (a sampling sweep plus root refinement per boundary).
// Geometric Monte-Carlo shards and campaign replications ask for passes
// over one target and near-identical windows once per episode; this cache
// answers all of them from the sweeps seeded before the run fans out.
//
// Queries are quantized: passes_window() rounds the request OUT to a grid
// of `options.window_quantum`, looks up the enclosing window, and clips the
// result to the request. The clipped result is a pure function of the
// request — never of cache state, thread, or call order — so sharded runs
// stay bit-identical for any worker count.
//
// Two phases:
//   1. SEED: seed_window() computes a quantum-aligned enclosing window and
//      stores it in the map freeze() publishes. Single-threaded: the
//      engines run it on the calling thread through the parallel_reduce
//      SeedFreezeHook, before any shard starts.
//   2. FROZEN: freeze() publishes the map read-only; any number of threads
//      then query it without locks and — via passes_window_into() —
//      without allocating in the steady state. A query whose quantized
//      window was not seeded computes PassPredictor::passes over that
//      window without caching it and counts as a miss. The engines size
//      their quantum so one seeded window covers every episode window
//      (simulate and campaign runs report visibility.cache_entries = 1 and
//      pass_hits = pass_queries), so that path stays cold.
//
// Synchronization contract: seed_window() and freeze() run on one thread
// before any query, and reader threads must be started (or handed work)
// after freeze() returns — parallel_reduce's dispatch provides that
// happens-before edge. Queries require frozen().
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "orbit/visibility.hpp"

namespace oaq {

/// Per-reader hit/miss counters; exported by the engines into the metrics
/// registry (`visibility.pass_queries`, `visibility.pass_hits`).
struct VisibilityCacheStats {
  std::uint64_t pass_queries = 0;
  std::uint64_t pass_hits = 0;
};

/// Bit-exact cache key: hashing the IEEE-754 patterns makes 'same inputs'
/// mean 'same bits' — no epsilon surprises, no false hits.
struct VisibilityKey {
  std::uint64_t lat = 0, lon = 0, t0 = 0, t1 = 0;
  friend bool operator==(const VisibilityKey&, const VisibilityKey&) = default;
};
struct VisibilityKeyHash {
  std::size_t operator()(const VisibilityKey& k) const;
};
[[nodiscard]] VisibilityKey make_visibility_key(const GeoPoint& target,
                                                Duration t0, Duration t1);

/// Tuning knobs of a SharedVisibilityCache (namespace-scope so it can
/// serve as a defaulted constructor argument).
struct VisibilityCacheOptions {
  /// Boundary-refinement tolerance used for every sweep (part of the
  /// cache's identity rather than the key).
  Duration tol = Duration::seconds(0.01);
  /// Grid for passes_window(): requests are rounded out to multiples of
  /// this quantum, so nearby windows share one seeded sweep.
  Duration window_quantum = Duration::hours(1);
};

/// Seed-then-freeze pass cache shared by all shards of a parallel run.
class SharedVisibilityCache {
 public:
  using Options = VisibilityCacheOptions;

  explicit SharedVisibilityCache(const Constellation& constellation,
                                 bool earth_rotation = false,
                                 Options options = {});

  /// Seed phase: compute (if absent) the quantum-aligned window enclosing
  /// [from, to] — the same quantization passes_window() uses, so a later
  /// query with these bounds is guaranteed a hit. Single-threaded; must
  /// precede freeze().
  void seed_window(const GeoPoint& target, Duration from, Duration to);

  /// Publish the seeded entries read-only and enter the frozen phase.
  /// Call exactly once, on the seeding thread.
  void freeze();

  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Frozen phase: passes intersecting [from, to] (negative `from` clamped
  /// to 0), clipped to the window. Appends nothing on an empty window.
  /// Steady state (seeded hit, `out` capacity reused) performs no
  /// allocation. `stats` (optional, per reader) counts one pass query and,
  /// on a seeded hit, one pass hit; an unseeded window is computed
  /// uncached and counts as a miss.
  void passes_window_into(const GeoPoint& target, Duration from, Duration to,
                          std::vector<Pass>& out,
                          VisibilityCacheStats* stats = nullptr) const;

  /// Convenience wrapper over passes_window_into for non-hot-path callers.
  [[nodiscard]] std::vector<Pass> passes_window(
      const GeoPoint& target, Duration from, Duration to,
      VisibilityCacheStats* stats = nullptr) const;

  [[nodiscard]] const Constellation* constellation() const {
    return constellation_;
  }
  [[nodiscard]] bool earth_rotation() const { return earth_rotation_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Seeded windows published at freeze(); requires frozen().
  [[nodiscard]] std::size_t frozen_entries() const;

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
  Options options_;
  PassPredictor predictor_;
  std::unordered_map<VisibilityKey, std::vector<Pass>, VisibilityKeyHash>
      map_;
  bool frozen_ = false;
};

}  // namespace oaq
