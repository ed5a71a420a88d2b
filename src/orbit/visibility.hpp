// Pass prediction: when does which satellite cover a ground point?
//
// This extracts, from true constellation geometry, the α/β/γ interval
// structure that the paper's Fig. 6 timing diagrams idealize: single-
// coverage stretches, overlap windows (simultaneous multiple coverage) and
// gaps. The protocol simulator and the analytic model are cross-validated
// against these intervals.
#pragma once

#include <vector>

#include "orbit/constellation.hpp"

namespace oaq {

/// One contiguous interval during which a single satellite's footprint
/// covers the target point.
struct Pass {
  SatelliteId satellite;
  Duration start{};
  Duration end{};

  [[nodiscard]] Duration duration() const { return end - start; }
};

/// A maximal interval with a constant set of covering satellites.
struct CoverageSegment {
  Duration start{};
  Duration end{};
  std::vector<SatelliteId> satellites;

  [[nodiscard]] int multiplicity() const {
    return static_cast<int>(satellites.size());
  }
  [[nodiscard]] Duration duration() const { return end - start; }
};

/// Aggregate coverage statistics over a horizon.
struct CoverageStats {
  Duration horizon{};
  Duration uncovered{};       ///< total gap time
  Duration single{};          ///< covered by exactly one satellite
  Duration multiple{};        ///< covered by two or more satellites
  Duration longest_gap{};
  Duration longest_single_pass{};
  int max_multiplicity = 0;
};

/// Predicts satellite passes over ground points for a constellation.
class PassPredictor {
 public:
  /// `earth_rotation` selects whether targets rotate with the Earth; the
  /// paper's periodic revisit analysis corresponds to `false`.
  explicit PassPredictor(const Constellation& constellation,
                         bool earth_rotation = false);

  /// All passes over `target` within [t0, t1], sorted by start time, then
  /// by satellite (plane, slot).
  /// Boundary crossings are refined to `tol` by bisection/Brent.
  [[nodiscard]] std::vector<Pass> passes(const GeoPoint& target, Duration t0,
                                         Duration t1,
                                         Duration tol = Duration::seconds(0.01)) const;

  /// Partition [t0, t1] into segments of constant covering-satellite sets.
  [[nodiscard]] static std::vector<CoverageSegment> multiplicity_timeline(
      const std::vector<Pass>& passes, Duration t0, Duration t1);

  /// Summarize a timeline into coverage statistics.
  [[nodiscard]] static CoverageStats summarize(
      const std::vector<CoverageSegment>& timeline);

 private:
  const Constellation* constellation_;
  bool earth_rotation_;
};

}  // namespace oaq
