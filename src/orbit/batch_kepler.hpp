// Batched structure-of-arrays Kepler geometry kernels (ISSUE 4 tentpole).
//
// The scalar propagator (orbit/kepler) answers one (satellite, time) query
// per call. BatchKepler evaluates contiguous arrays of timesteps in
// explicit fixed-width blocks of kBatchKeplerWidth lanes (plus a tail that
// runs the SAME per-lane code on a partial block, so a 1-element call is
// bitwise identical to the same element inside a full block). The
// geometry hot path — PassPredictor's adaptive sweep and its root
// refinement — makes 1-element margin calls:
//
//   * solve() / positions_eci() replicate the scalar solve_kepler /
//     Orbit::position_eci expression sequences lane by lane — same wrap,
//     same Newton guess, same apply-step-then-check-tolerance order — so
//     outputs are BIT-IDENTICAL to the scalar propagator (pinned by
//     tests/orbit/batch_kepler_test.cpp), while per-orbit invariants
//     (sqrt(1−e²), the J2 secular rates) are hoisted out of the loop, the
//     unused velocity half of state_at is skipped, and the pure-arithmetic
//     stages (mean anomaly, perifocal→ECI combine) are laid out as
//     auto-vectorizable array loops.
//   * coverage_margins() evaluates the pass-sweep margin
//     ψ − central_angle(subsatellite, target). The scalar chain converts
//     the position to geodetic coordinates and immediately back to a unit
//     vector; on directions that round trip is the identity, so the
//     batched margin measures the central angle directly between the
//     position vector and the precomputed target direction — algebraically
//     equal, ~3× fewer libm calls per sample. Pass boundaries move by
//     rounding noise relative to the scalar chain, but the adaptive sweep
//     and the Brent refinement both evaluate THIS function, so
//     PassPredictor::passes stays exactly self-consistent, and results
//     remain pure functions of the query (bit-identical for any --jobs).
#pragma once

#include <cstddef>

#include "orbit/kepler.hpp"

namespace oaq {

/// Lane count of the explicit inner loop. Eight doubles fill an AVX-512
/// register (two AVX2 registers) and give the out-of-order core eight
/// independent Newton chains to overlap.
inline constexpr std::size_t kBatchKeplerWidth = 8;

/// Batched sweep evaluator for one orbit. Cheap to construct (copies the
/// elements and hoists per-orbit invariants); create one per (plane, slot)
/// inside a sweep.
class BatchKepler {
 public:
  explicit BatchKepler(const Orbit& orbit);

  /// Eccentric anomaly for `n` mean anomalies — per element bitwise equal
  /// to solve_kepler(mean[i], eccentricity, tol). In/out arrays may alias.
  static void solve(const double* mean_anomaly_rad, std::size_t n,
                    double eccentricity, double* eccentric_anomaly_rad,
                    double tol = 1e-13);

  /// ECI positions at elapsed seconds `t_s[0..n)` — per element bitwise
  /// equal to orbit.position_eci(Duration::seconds(t_s[i])), including the
  /// circular fast path and J2 secular drift.
  void positions_eci(const double* t_s, std::size_t n, double* x_km,
                     double* y_km, double* z_km) const;

  /// Coverage margin ψ − central_angle(subsatellite(t), target) for each
  /// sample; positive while the footprint of radius ψ covers the target
  /// whose direction is `target_unit` (geo_to_ecef_unit of the target,
  /// computed once by the caller). `earth_rotation` rotates positions into
  /// ECEF first, like Orbit::subsatellite_point.
  void coverage_margins(const Vec3& target_unit, double footprint_radius_rad,
                        bool earth_rotation, const double* t_s, std::size_t n,
                        double* margin_rad) const;

 private:
  /// One block (nb <= kBatchKeplerWidth lanes) of the position sweep.
  void positions_block(const double* t_s, std::size_t nb, double* x_km,
                       double* y_km, double* z_km) const;

  KeplerianElements elements_;
  double mean_motion_ = 0.0;  ///< rad/s (same value the Orbit precomputed)
  bool j2_ = false;
  Orbit::SecularRates j2_rates_{};  ///< hoisted: pure function of elements
  double b_over_a_ = 1.0;           ///< hoisted sqrt(1 − e²)
  Vec3 p_hat_;                      ///< perifocal x axis in ECI
  Vec3 q_hat_;                      ///< perifocal y axis in ECI
};

}  // namespace oaq
