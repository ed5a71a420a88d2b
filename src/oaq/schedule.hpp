// Coverage schedules: when does which satellite cover the target?
//
// The protocol engine consumes an abstract schedule so the same machinery
// runs in two modes:
//   * AnalyticSchedule — the paper's Fig. 6 timing-diagram idealization:
//     a single plane with k evenly spaced satellites sweeping a centerline
//     point; passes are exactly periodic with period Tr and length Tc.
//     This mode matches the closed-form QoS model's assumptions one-to-one
//     and is used for cross-validation.
//   * GeometricSchedule — passes from true orbital geometry, clipped from
//     the run's seeded, frozen pass table (SharedVisibilityCache); the
//     geometric simulate_qos and run_campaign read it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analytic/geometry.hpp"
#include "common/parallel.hpp"
#include "orbit/shared_visibility_cache.hpp"

namespace oaq {

class SpanArena;  // src/obs/span.hpp

/// Abstract source of satellite passes over one target.
class CoverageSchedule {
 public:
  virtual ~CoverageSchedule() = default;

  /// All passes intersecting [from, to], sorted by start time, written
  /// into `out` (cleared first) so hot paths can reuse one buffer across
  /// calls.
  virtual void passes_into(Duration from, Duration to,
                           std::vector<Pass>& out) const = 0;

  /// Number of distinct satellites passes_into() can ever name. Lets the
  /// episode context stop looking for unregistered satellites once it has
  /// registered them all.
  [[nodiscard]] virtual int satellite_count() const = 0;

  /// passes_into() into a fresh vector, for callers off the hot path.
  [[nodiscard]] std::vector<Pass> passes(Duration from, Duration to) const {
    std::vector<Pass> out;
    passes_into(from, to, out);
    return out;
  }
};

/// Timing-diagram schedule for one plane and a centerline target.
class AnalyticSchedule final : public CoverageSchedule {
 public:
  /// `k` active satellites; the first pass-center crosses the target at
  /// `phase` (use a uniform random phase in [0, Tr) for PASTA sampling).
  AnalyticSchedule(PlaneGeometry geometry, int k, Duration phase);

  /// Direct allocation-free enumeration of the periodic passes.
  void passes_into(Duration from, Duration to,
                   std::vector<Pass>& out) const override;

  /// The k slots of plane 0.
  [[nodiscard]] int satellite_count() const override { return k_; }

  [[nodiscard]] const PlaneGeometry& geometry() const { return geometry_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] Duration phase() const { return phase_; }

 private:
  PlaneGeometry geometry_;
  int k_;
  Duration phase_;
};

/// Schedule backed by real constellation geometry: queries clip the frozen
/// pass table over the table's seeded target (see
/// SharedVisibilityCache::passes_window_into), so every episode of a run is
/// served from the sweep seeded once before fan-out. The cache must be
/// frozen before the first query and outlive the schedule. Create one
/// schedule per shard; `stats`, when given, accumulates that shard's
/// deterministic query counts and must outlive the schedule.
class GeometricSchedule final : public CoverageSchedule {
 public:
  explicit GeometricSchedule(const SharedVisibilityCache& cache,
                             VisibilityCacheStats* stats = nullptr);

  /// Allocation-free in the steady state: the window is clipped from the
  /// seeded table into `out`'s reused capacity.
  void passes_into(Duration from, Duration to,
                   std::vector<Pass>& out) const override;

  /// The seeded table's distinct satellites.
  [[nodiscard]] int satellite_count() const override;

 private:
  const SharedVisibilityCache* cache_;
  VisibilityCacheStats* stats_;
};

/// Earliest signal start of a geometric run: simulate_qos starts every
/// signal here before its phase jitter, and run_campaign draws its
/// arrivals after it.
inline constexpr Duration kSignalStart = Duration::minutes(60);

/// Pass-table quantum of a geometric run whose signals start no later
/// than `latest_start`: an episode queries passes up to min(d, 30 min) + τ
/// + 60 min past its start, which two hours of post-roll bound, so every
/// query of the run lies in the seeded window [0, quantum]. simulate_qos
/// passes kSignalStart plus the longest shell period (its start jitter),
/// run_campaign kSignalStart plus the horizon.
[[nodiscard]] Duration visibility_quantum(Duration latest_start,
                                          Duration tau);

/// A geometric run's pass table over `target` and [0, quantum], with the
/// parallel_reduce hook that seeds it (span `visibility_seed`, planes swept
/// on the run's executors) and freezes it (span `visibility_freeze`) from
/// the calling thread before any shard starts. Not copyable: the hook
/// refers to the table.
struct RunPassTable {
  RunPassTable(const Constellation& constellation, bool earth_rotation,
               GeoPoint target, Duration quantum, SpanArena* spans);
  RunPassTable(const RunPassTable&) = delete;
  RunPassTable& operator=(const RunPassTable&) = delete;

  SharedVisibilityCache cache;
  SeedFreezeHook hook;
};

/// Overlap windows (≥2 satellites simultaneously covering) in a pass list.
/// Returns maximal intervals, sorted.
[[nodiscard]] std::vector<CoverageSegment> overlap_windows(
    const std::vector<Pass>& passes, Duration from, Duration to);

/// Pass-boundary event; the reusable scratch of first_overlap_start.
struct OverlapEvent {
  Duration at;
  bool enter = false;
};

/// Start of the first overlap window in [from, to] — the value
/// `overlap_windows(...).front().start` would produce — or nullopt when no
/// window exists. Streams the multiplicity sweep through `scratch` (reused
/// across calls) instead of materializing segments, so the protocol hot
/// path pays no allocation once the scratch has grown.
[[nodiscard]] std::optional<Duration> first_overlap_start(
    const std::vector<Pass>& passes, Duration from, Duration to,
    std::vector<OverlapEvent>& scratch);

}  // namespace oaq
