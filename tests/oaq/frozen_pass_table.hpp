// Test fixture for the geometric pass path: a pass table over one target,
// seeded inline and frozen, and the GeometricSchedule that reads it — the
// same path the geometric simulate_qos and run_campaign take.
#pragma once

#include "oaq/schedule.hpp"
#include "orbit/shared_visibility_cache.hpp"

namespace oaq {

/// The table covers [0, quantum]; size `quantum` the way the engines do,
/// visibility_quantum(latest signal start, τ), so every episode window of
/// the test lies inside it. Not copyable: the schedule refers to the
/// table.
struct FrozenPassTable {
  FrozenPassTable(const Constellation& constellation, GeoPoint target,
                  Duration quantum, bool earth_rotation = false)
      : cache(constellation, earth_rotation, {quantum}) {
    cache.seed_window(target, Duration::zero(), quantum);
    cache.freeze();
  }
  FrozenPassTable(const FrozenPassTable&) = delete;
  FrozenPassTable& operator=(const FrozenPassTable&) = delete;

  SharedVisibilityCache cache;
  GeometricSchedule schedule{cache};
};

}  // namespace oaq
