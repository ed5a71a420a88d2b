// Shared visibility cache: one seed → freeze pass table per run.
//
// PassPredictor::passes solves Kepler's equation hundreds of times per
// satellite per query (an adaptive sweep plus root refinement per
// boundary).
// Geometric Monte-Carlo shards and campaign replications ask for passes
// over one target and near-identical windows once per episode; this cache
// answers all of them from ONE pass table: one target, one quantum-aligned
// window, and the passes PassPredictor::passes sweeps over that window at
// its default boundary tolerance, sorted by (start, plane, slot).
//
// Two phases:
//   1. SEED: seed_window() rounds the requested window OUT to the grid of
//      `options.window_quantum` and sweeps it once. Called once, from the
//      calling thread through the parallel_reduce SeedFreezeHook, before
//      any shard starts; the sweep fans the constellation's planes out
//      over the run's executors and returns the same table for any count.
//   2. FROZEN: freeze() publishes the table read-only; any number of
//      threads then query it without locks and — via passes_window_into()
//      — without allocating in the steady state. A query clips the table
//      to its window, so its result is a pure function of the request and
//      sharded runs stay bit-identical for any worker count. It starts at
//      the first pass whose running maximum of `end` passes the window's
//      start (a binary search; every earlier pass ends before the window),
//      so its cost is O(log n + window), not O(n). A query for
//      another target, or whose window leaves the seeded one, is a
//      precondition error: the engines size their quantum so the seeded
//      window covers every episode window of the run.
//
// Synchronization contract: seed_window() and freeze() are called from
// one thread before any query (the plane tasks of the seed write only
// their own vectors, joined before seed_window() returns), and reader
// threads must be started (or handed work) after freeze() returns —
// parallel_reduce's dispatch provides that happens-before edge. Queries
// require frozen().
#pragma once

#include <cstdint>
#include <vector>

#include "orbit/visibility.hpp"

namespace oaq {

/// Per-reader query counters; exported by the engines into the metrics
/// registry (`visibility.pass_queries`, `visibility.pass_hits`). Every
/// answered query is served by the table, so the two stay equal.
struct VisibilityCacheStats {
  std::uint64_t pass_queries = 0;
  std::uint64_t pass_hits = 0;
};

/// Tuning knobs of a SharedVisibilityCache (namespace-scope so it can
/// serve as a defaulted constructor argument).
struct VisibilityCacheOptions {
  /// Grid the seeded window is rounded out to.
  Duration window_quantum = Duration::hours(1);
};

/// Seed-then-freeze pass table shared by all shards of a parallel run.
class SharedVisibilityCache {
 public:
  using Options = VisibilityCacheOptions;

  explicit SharedVisibilityCache(const Constellation& constellation,
                                 bool earth_rotation = false,
                                 Options options = {});

  /// Seed phase: sweep the quantum-aligned window enclosing
  /// [max(from, 0), to] over `target`, plane by plane on up to `jobs`
  /// executors (PassPredictor::passes; 1 sweeps inline). The table is
  /// bit-identical for every `jobs`. Call exactly once, before freeze().
  void seed_window(const GeoPoint& target, Duration from, Duration to,
                   int jobs = 1);

  /// Publish the table read-only and enter the frozen phase. Call exactly
  /// once, on the seeding thread.
  void freeze();

  [[nodiscard]] bool frozen() const { return frozen_; }

  /// The seeded target.
  [[nodiscard]] const GeoPoint& target() const { return target_; }

  /// Frozen phase: passes intersecting [from, to] (negative `from` clamped
  /// to 0), clipped to the window. Appends nothing on an empty window.
  /// `target` must be the seeded one (compared bitwise) and the clamped
  /// window must lie inside the seeded one. Steady state (`out` capacity
  /// reused) performs no allocation. `stats` (optional, per reader) counts
  /// one pass query and one pass hit per nonempty window.
  void passes_window_into(const GeoPoint& target, Duration from, Duration to,
                          std::vector<Pass>& out,
                          VisibilityCacheStats* stats = nullptr) const;

  /// Convenience wrapper over passes_window_into for non-hot-path callers.
  [[nodiscard]] std::vector<Pass> passes_window(
      const GeoPoint& target, Duration from, Duration to,
      VisibilityCacheStats* stats = nullptr) const;

  /// Tables published at freeze(): 1 when seeded, else 0. Requires
  /// frozen().
  [[nodiscard]] std::size_t frozen_entries() const;

  /// Distinct satellites in the seeded table: an upper bound on the
  /// satellites any query can name. Requires a seeded table.
  [[nodiscard]] int satellite_count() const;

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
  Duration window_quantum_;
  bool seeded_ = false;
  bool frozen_ = false;
  GeoPoint target_{};
  Duration from_{};  ///< seeded window, quantum-aligned
  Duration to_{};
  std::vector<Pass> passes_;  ///< sorted by (start, satellite)
  /// max_end_[i] = max(passes_[0..i].end): nondecreasing, so the first
  /// pass a query can keep is found by binary search.
  std::vector<Duration> max_end_;
  int satellite_count_ = 0;
};

}  // namespace oaq
