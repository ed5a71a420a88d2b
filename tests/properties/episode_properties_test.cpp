// Property suite: protocol-level invariants over randomized episodes,
// parameterized over capacity, deadline and messaging variant.
#include <gtest/gtest.h>

#include "analytic/geometry.hpp"
#include "oaq/episode.hpp"

namespace oaq {
namespace {

struct Scenario {
  int k;
  double tau_min;
  bool backward;
};

class EpisodeInvariants : public ::testing::TestWithParam<Scenario> {};

TEST_P(EpisodeInvariants, HoldOverRandomizedEpisodes) {
  const auto sc = GetParam();
  const PlaneGeometry geometry;
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(sc.tau_min);
  cfg.delta = Duration::seconds(12);
  cfg.tg = Duration::seconds(6);
  cfg.computation_cap = Duration::seconds(6);  // bounded-computation regime
  cfg.backward_messaging = sc.backward;

  Rng master(1000 + static_cast<unsigned>(sc.k));
  Rng phase_rng = master.fork(1);
  Rng dur_rng = master.fork(2);
  Rng ep_rng = master.fork(3);

  const int episodes = 400;
  for (int e = 0; e < episodes; ++e) {
    const Duration phase =
        phase_rng.uniform(Duration::zero(), geometry.tr(sc.k));
    const AnalyticSchedule sched(geometry, sc.k, phase);
    EpisodeContext context(sched, cfg, true);
    const Duration dur = dur_rng.exponential(Rate::per_minute(0.3));
    const auto& r =
        context.run(e, ep_rng.fork(static_cast<std::uint64_t>(e)),
                    TimePoint::at(Duration::minutes(60)), dur);

    // I1: detection implies delivery (no faults injected), and exactly one
    //     alert under backward messaging.
    if (r.detected) {
      EXPECT_TRUE(r.alert_delivered) << "episode " << e;
      EXPECT_EQ(r.alerts_sent, 1) << "episode " << e;
      // I2: the alert is timely (bounded computation + TC-2 margins).
      EXPECT_TRUE(r.timely) << "episode " << e;
      // I3: the first alert never precedes detection.
      EXPECT_GE(r.first_alert_sent, r.detection) << "episode " << e;
    } else {
      EXPECT_FALSE(r.alert_delivered) << "episode " << e;
      EXPECT_EQ(r.level, QosLevel::kMissed) << "episode " << e;
    }

    // I4: chain length respects Eq. (2) (underlapping planes).
    if (!geometry.overlapping(sc.k) && r.detected) {
      EXPECT_LE(r.chain_length,
                std::max(1, geometry.max_chain(sc.k, cfg.tau)))
          << "episode " << e;
    }

    // I5: levels respect Table 1's support.
    if (geometry.overlapping(sc.k)) {
      EXPECT_NE(r.level, QosLevel::kSequentialDual) << "episode " << e;
      EXPECT_NE(r.level, QosLevel::kMissed) << "episode " << e;
    } else {
      EXPECT_NE(r.level, QosLevel::kSimultaneousDual) << "episode " << e;
    }

    // I6: nobody is left waiting.
    EXPECT_TRUE(r.all_participants_resolved) << "episode " << e;

    // I7: a delivered result always carries a positive error estimate and
    //     a level consistent with its chain length.
    if (r.alert_delivered) {
      EXPECT_GT(r.reported_error_km, 0.0) << "episode " << e;
      if (r.level == QosLevel::kSequentialDual) {
        EXPECT_GE(r.chain_length, 2) << "episode " << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityDeadlineVariant, EpisodeInvariants,
    ::testing::Values(Scenario{7, 5.0, true}, Scenario{9, 3.0, true},
                      Scenario{9, 5.0, true}, Scenario{9, 5.0, false},
                      Scenario{9, 25.0, true}, Scenario{10, 5.0, true},
                      Scenario{11, 5.0, true}, Scenario{12, 5.0, true},
                      Scenario{12, 5.0, false}, Scenario{14, 2.0, true},
                      Scenario{14, 8.0, true}),
    [](const auto& info) {
      const auto& s = info.param;
      std::string name = "k";
      return name.append(std::to_string(s.k))
          .append("_tau")
          .append(std::to_string(static_cast<int>(s.tau_min * 10)))
          .append(s.backward ? "_bwd" : "_fwd");
    });

}  // namespace
}  // namespace oaq
