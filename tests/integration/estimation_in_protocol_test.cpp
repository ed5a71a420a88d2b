// Integration: the estimation substrate behind a protocol episode.
//
// Plays out an OAQ sequential-dual episode, then generates the REAL
// Doppler measurements the chain's satellites would have collected and
// verifies that sequential WLS delivers the accuracy ordering the
// protocol's AccuracyModel assumes (TC-1's basis).
#include <gtest/gtest.h>

#include "geoloc/sequential.hpp"
#include "oaq/episode.hpp"

namespace oaq {
namespace {

TEST(EstimationInProtocol, ChainMeasurementsReproduceAccuracyOrdering) {
  // Protocol side: k = 9 plane, sequential-dual episode.
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(5);
  cfg.delta = Duration::zero();
  cfg.tg = Duration::zero();
  cfg.computation_cap = Duration::seconds(1e-6);
  EpisodeContext context(sched, cfg, true);
  const auto episode = context.run(
      0, Rng(1), TimePoint::at(Duration::minutes(2)), Duration::minutes(30));
  ASSERT_EQ(episode.level, QosLevel::kSequentialDual);
  ASSERT_EQ(episode.chain_length, 2);

  // Estimation side: the same two-pass revisit pattern with real orbits
  // (polar plane, k = 9 -> Tr = 10 min), Doppler noise 5 Hz.
  Emitter emitter;
  emitter.position = GeoPoint::from_degrees(30.0, 31.0);
  emitter.carrier_hz = 400e6;
  emitter.start = TimePoint::origin();
  const DopplerModel model(true);
  Rng meas_rng(2);
  SequentialLocalizer localizer;
  std::vector<double> errors;
  for (int pass = 0; pass < 2; ++pass) {
    const Orbit orbit = Orbit::circular_with_period(
        Duration::minutes(90), deg2rad(85.0), deg2rad(30.0),
        -2.0 * kPi * pass / 9.0);
    const auto batch = model.take_measurements(
        orbit, {0, pass}, emitter,
        measurement_epochs(Duration::minutes(5) + Duration::minutes(10) * pass,
                           Duration::minutes(13) + Duration::minutes(10) * pass,
                           25),
        deg2rad(18.0), 5.0, meas_rng);
    ASSERT_GE(batch.size(), 5u);
    const auto& est = localizer.incorporate(batch);
    errors.push_back(est.position_error_1sigma_km);
  }

  // The protocol's parametric accuracy model assumes a contraction per
  // added pass; the real estimator must exhibit one.
  EXPECT_LT(errors[1], errors[0] * 0.8);
  // And the delivered level-2 error estimate in the episode is consistent
  // with the model used by TC-1.
  const AccuracyModel acc;
  EXPECT_NEAR(episode.reported_error_km, acc.sequential_error_km(2), 1e-9);
}

}  // namespace
}  // namespace oaq
