// Property suite: protocol behaviour under lossy crosslinks.
//
// The backward-messaging design degrades gracefully under message loss:
// a lost CoordinationRequest or a lost "done" can cost accuracy or cause
// a duplicate alert, but never the alert itself — at-least-once delivery
// is carried by the per-member wait deadlines, not by the links.
#include <gtest/gtest.h>

#include "analytic/geometry.hpp"
#include "oaq/episode.hpp"

namespace oaq {
namespace {

class LossyLinks : public ::testing::TestWithParam<double> {};

TEST_P(LossyLinks, AtLeastOnceDeliverySurvivesLoss) {
  const double loss = GetParam();
  const PlaneGeometry geometry;
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(5);
  cfg.delta = Duration::seconds(12);
  cfg.tg = Duration::seconds(6);
  cfg.computation_cap = Duration::seconds(6);
  cfg.crosslink_loss_probability = loss;

  Rng master(42);
  Rng phase_rng = master.fork(1);
  Rng dur_rng = master.fork(2);
  Rng ep_rng = master.fork(3);

  int detected = 0, delivered = 0, duplicates = 0, level2 = 0;
  const int episodes = 1500;
  for (int e = 0; e < episodes; ++e) {
    const Duration phase = phase_rng.uniform(Duration::zero(),
                                             geometry.tr(9));
    const AnalyticSchedule sched(geometry, 9, phase);
    EpisodeContext context(sched, cfg, true);
    const auto& r = context.run(e, ep_rng.fork(static_cast<std::uint64_t>(e)),
                                TimePoint::at(Duration::minutes(60)),
                                dur_rng.exponential(Rate::per_minute(0.2)));
    detected += r.detected;
    delivered += r.alert_delivered;
    duplicates += (r.alerts_sent > 1);
    level2 += (r.level == QosLevel::kSequentialDual);
    // The safety property: detection ⇒ delivery, at any loss rate.
    if (r.detected) {
      EXPECT_TRUE(r.alert_delivered) << "episode " << e << " loss " << loss;
    }
  }
  EXPECT_EQ(delivered, detected);
  if (loss == 0.0) {
    EXPECT_EQ(duplicates, 0);
  }
  // Liveness degrades gracefully: some level-2 results survive even heavy
  // loss (requests that do get through still work).
  if (loss <= 0.5) {
    EXPECT_GT(level2, 0) << "loss " << loss;
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, LossyLinks,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5),
                         [](const auto& info) {
                           return "loss" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

TEST(LossyLinks, LostDoneCausesDuplicateNotSilence) {
  // Force the "done" path to fail often: heavy loss, long signals so the
  // chain always forms. Duplicates may appear; missing alerts may not.
  const PlaneGeometry geometry;
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(5);
  cfg.delta = Duration::seconds(12);
  cfg.tg = Duration::seconds(6);
  cfg.computation_cap = Duration::seconds(6);
  cfg.crosslink_loss_probability = 0.6;

  Rng master(77);
  int delivered = 0, detected = 0, dup = 0;
  for (int e = 0; e < 800; ++e) {
    const AnalyticSchedule sched(geometry, 9,
                                 Duration::minutes(0.013 * e));
    EpisodeContext context(sched, cfg, true);
    const auto& r = context.run(e, master.fork(static_cast<std::uint64_t>(e)),
                                TimePoint::at(Duration::minutes(60)),
                                Duration::minutes(30));
    detected += r.detected;
    delivered += r.alert_delivered;
    dup += (r.alerts_sent > 1);
  }
  EXPECT_EQ(delivered, detected);
  EXPECT_GT(dup, 0);  // exactly-once is traded away, delivery is not
}

}  // namespace
}  // namespace oaq
