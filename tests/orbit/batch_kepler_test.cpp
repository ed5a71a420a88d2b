// BatchKepler bit-identity contract (ISSUE 4): the batched SoA kernel must
// reproduce the scalar kepler.cpp propagator EXACTLY — same eccentric
// anomalies, same ECI positions — across eccentricity and anomaly edge
// cases, and a partial block (any n, down to single-element calls) must
// agree bitwise with the same element inside a full-width batch. The pass
// sweep's root refinement depends on the latter.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "orbit/batch_kepler.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

std::vector<double> edge_case_anomalies() {
  std::vector<double> m = {
      0.0,       1e-12,     -1e-12,     0.5,       -0.5,     kPi / 2.0,
      -kPi / 2.0, kPi - 1e-9, -(kPi - 1e-9), kPi,   -kPi,    kPi + 1e-9,
      2.0 * kPi, -2.0 * kPi, 3.75,      100.0,     -100.0,  12345.678,
      -98765.4321};
  for (int i = 0; i < 40; ++i) {
    m.push_back(-7.0 + 0.35 * static_cast<double>(i));
  }
  return m;
}

TEST(BatchKepler, SolveMatchesScalarBitwiseAcrossEccentricities) {
  const std::vector<double> mean = edge_case_anomalies();
  for (const double e : {0.0, 1e-9, 1e-3, 0.01, 0.1, 0.3, 0.7, 0.9, 0.97}) {
    std::vector<double> batch(mean.size());
    BatchKepler::solve(mean.data(), mean.size(), e, batch.data());
    for (std::size_t i = 0; i < mean.size(); ++i) {
      const double scalar = solve_kepler(mean[i], e);
      EXPECT_EQ(batch[i], scalar)
          << "e=" << e << " M=" << mean[i] << " batch-scalar delta "
          << batch[i] - scalar;
    }
  }
}

TEST(BatchKepler, SolveRespectsLooserTolerance) {
  const std::vector<double> mean = edge_case_anomalies();
  const double e = 0.4;
  std::vector<double> batch(mean.size());
  BatchKepler::solve(mean.data(), mean.size(), e, batch.data(), 1e-6);
  for (std::size_t i = 0; i < mean.size(); ++i) {
    EXPECT_EQ(batch[i], solve_kepler(mean[i], e, 1e-6)) << "M=" << mean[i];
  }
}

TEST(BatchKepler, PartialBlocksMatchFullBatchBitwise) {
  const std::vector<double> mean = edge_case_anomalies();
  const double e = 0.3;
  std::vector<double> full(mean.size());
  BatchKepler::solve(mean.data(), mean.size(), e, full.data());
  // Every prefix length, including n == 1 (the root-refinement shape):
  // lane values must not depend on how the array was blocked.
  for (std::size_t n = 1; n <= mean.size(); ++n) {
    std::vector<double> part(n);
    BatchKepler::solve(mean.data(), n, e, part.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(part[i], full[i]) << "n=" << n << " i=" << i;
    }
  }
}

std::vector<double> sweep_times() {
  std::vector<double> t;
  for (int i = 0; i < 300; ++i) {
    t.push_back(static_cast<double>(i) * 37.5);  // ~3 hours, off-grid step
  }
  t.push_back(0.0);
  t.push_back(1e-3);
  t.push_back(86400.0);
  return t;
}

void expect_positions_match(const Orbit& orbit) {
  const std::vector<double> t = sweep_times();
  std::vector<double> x(t.size()), y(t.size()), z(t.size());
  const BatchKepler batch(orbit);
  batch.positions_eci(t.data(), t.size(), x.data(), y.data(), z.data());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Vec3 scalar = orbit.position_eci(Duration::seconds(t[i]));
    EXPECT_EQ(x[i], scalar.x) << "t=" << t[i];
    EXPECT_EQ(y[i], scalar.y) << "t=" << t[i];
    EXPECT_EQ(z[i], scalar.z) << "t=" << t[i];
  }
}

TEST(BatchKepler, CircularPositionsMatchScalarBitwise) {
  expect_positions_match(
      Orbit::circular(550.0, deg2rad(85.0), 0.7, 1.3));
}

TEST(BatchKepler, EllipticPositionsMatchScalarBitwise) {
  KeplerianElements el;
  el.semi_major_km = 8000.0;
  el.eccentricity = 0.3;
  el.inclination_rad = deg2rad(63.4);
  el.raan_rad = 1.1;
  el.arg_perigee_rad = 2.2;
  el.mean_anomaly_rad = 0.4;
  expect_positions_match(Orbit(el));
}

TEST(BatchKepler, HighEccentricityPositionsMatchScalarBitwise) {
  KeplerianElements el;
  el.semi_major_km = 26600.0;
  el.eccentricity = 0.74;  // Molniya-like
  el.inclination_rad = deg2rad(63.4);
  el.raan_rad = 5.9;
  el.arg_perigee_rad = 4.7;
  el.mean_anomaly_rad = 3.1;
  expect_positions_match(Orbit(el));
}

TEST(BatchKepler, J2DriftedPositionsMatchScalarBitwise) {
  KeplerianElements el;
  el.semi_major_km = 7000.0;
  el.eccentricity = 0.05;
  el.inclination_rad = deg2rad(97.8);
  el.raan_rad = 0.3;
  el.arg_perigee_rad = 1.9;
  el.mean_anomaly_rad = 2.6;
  expect_positions_match(Orbit(el).with_j2());
}

TEST(BatchKepler, J2CircularPositionsMatchScalarBitwise) {
  expect_positions_match(
      Orbit::circular(550.0, deg2rad(85.0), 0.7, 1.3).with_j2());
}

TEST(BatchKepler, TailLanesMatchScalarOnNonMultipleOfEightShells) {
  // Width-8 SoA blocks must stay bit-identical to the scalar propagator
  // when per-plane satellite counts — and hence per-call sample counts —
  // are not multiples of 8 (ISSUE 8): Iridium-NEXT's 6×11 and Kepler's
  // 7×20 both leave partial tail blocks. Sweep every satellite of every
  // plane, and also block the time grid at awkward lengths (1, 3, 11)
  // to force tails inside a call.
  for (const char* preset : {"iridium-next", "kepler"}) {
    const Constellation c = ConstellationBuilder::preset(preset).build();
    const std::vector<double> t = sweep_times();
    std::vector<double> x(t.size()), y(t.size()), z(t.size());
    for (int pi = 0; pi < c.num_planes(); ++pi) {
      const auto& plane = c.plane(pi);
      for (int slot = 0; slot < plane.active_count(); ++slot) {
        const Orbit orbit = plane.orbit_of(slot);
        const BatchKepler batch(orbit);
        batch.positions_eci(t.data(), t.size(), x.data(), y.data(), z.data());
        for (std::size_t i = 0; i < t.size(); ++i) {
          const Vec3 scalar = orbit.position_eci(Duration::seconds(t[i]));
          ASSERT_EQ(x[i], scalar.x)
              << preset << " plane " << pi << " slot " << slot << " t=" << t[i];
          ASSERT_EQ(y[i], scalar.y)
              << preset << " plane " << pi << " slot " << slot << " t=" << t[i];
          ASSERT_EQ(z[i], scalar.z)
              << preset << " plane " << pi << " slot " << slot << " t=" << t[i];
        }
        if (pi == 0 && slot == 0) {
          // Odd block lengths: values must not depend on the blocking.
          for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                      std::size_t{11}}) {
            std::vector<double> px(n), py(n), pz(n);
            batch.positions_eci(t.data(), n, px.data(), py.data(), pz.data());
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(px[i], x[i]) << preset << " n=" << n;
              ASSERT_EQ(py[i], y[i]) << preset << " n=" << n;
              ASSERT_EQ(pz[i], z[i]) << preset << " n=" << n;
            }
          }
        }
      }
    }
  }
}

TEST(BatchKepler, MarginSweepIsBlockingInvariant) {
  // coverage_margins makes no scalar-equality promise (it skips the
  // geodetic round trip), but it MUST be invariant to how the sample array
  // is blocked: the sweep (full batches) and the Brent refinement
  // (single-element calls) evaluate the same function.
  const Orbit orbit = Orbit::circular(550.0, deg2rad(90.0), 0.0, 0.0);
  const BatchKepler batch(orbit);
  const Vec3 target_unit = geo_to_ecef_unit(GeoPoint{0.2, -0.4});
  const std::vector<double> t = sweep_times();
  for (const bool rotation : {false, true}) {
    std::vector<double> full(t.size());
    batch.coverage_margins(target_unit, 0.3, rotation, t.data(), t.size(),
                           full.data());
    for (std::size_t i = 0; i < t.size(); ++i) {
      double one = 0.0;
      batch.coverage_margins(target_unit, 0.3, rotation, &t[i], 1, &one);
      EXPECT_EQ(one, full[i]) << "i=" << i << " rotation=" << rotation;
    }
  }
}

}  // namespace
}  // namespace oaq
