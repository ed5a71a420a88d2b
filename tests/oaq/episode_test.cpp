#include "oaq/episode.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "fault/plan.hpp"

namespace oaq {
namespace {

/// Deterministic protocol config: zero message delay and (near-)zero
/// computation time unless a test overrides them.
ProtocolConfig fast_config(double tau_min = 5.0) {
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(tau_min);
  cfg.delta = Duration::zero();
  cfg.tg = Duration::zero();
  cfg.nu = Rate::per_minute(30.0);
  cfg.computation_cap = Duration::seconds(1e-6);
  return cfg;
}

/// k = 9 underlapping plane, phase 0: passes [-4.5, 4.5], [5.5, 14.5], ...
AnalyticSchedule underlap_schedule() {
  return AnalyticSchedule(PlaneGeometry{}, 9, Duration::zero());
}

/// k = 12 overlapping plane, phase 0: passes [-4.5, 4.5], [3, 12], ...
AnalyticSchedule overlap_schedule() {
  return AnalyticSchedule(PlaneGeometry{}, 12, Duration::zero());
}

/// One episode through a fresh context. `plan` clause times count from
/// the signal start; `known_failed` is the membership view.
EpisodeResult run(const CoverageSchedule& sched, const ProtocolConfig& cfg,
                  bool oaq, double start_min, double duration_min,
                  std::uint64_t seed = 1, const FaultPlan* plan = nullptr,
                  const std::set<SatelliteId>* known_failed = nullptr) {
  EpisodeContext context(sched, cfg, oaq, plan, known_failed);
  return context.run(0, Rng(seed), TimePoint::at(Duration::minutes(start_min)),
                     Duration::minutes(duration_min));
}

/// A plan that silences `sat` `at_min` minutes after the signal start.
FaultPlan fail_silent_plan(SatelliteId sat, double at_min) {
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent(sat, Duration::minutes(at_min)));
  return plan;
}

TEST(Episode, SignalInGapThatDiesEscapesSurveillance) {
  // Gap between passes is (4.5, 5.5); a 0.5-minute signal at 4.6 dies
  // before the next footprint arrives — the paper's worst case.
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(), true, 4.6, 0.5);
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kMissed);
  EXPECT_EQ(r.alerts_sent, 0);
}

TEST(Episode, GapSignalDetectedAtNextFootprintArrival) {
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(), true, 4.6, 30.0);
  EXPECT_TRUE(r.detected);
  EXPECT_NEAR(r.detection.since_origin().to_minutes(), 5.5, 1e-9);
  EXPECT_TRUE(r.alert_delivered);
}

TEST(Episode, BaqDeliversSingleCoverageResultImmediately) {
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(), false, 0.0, 30.0);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_TRUE(r.timely);
  EXPECT_EQ(r.alerts_sent, 1);
  EXPECT_EQ(r.coordination_requests, 0);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 0.0, 1e-6);
}

TEST(Episode, OaqSequentialDualViaCoordinationChain) {
  // Signal at t = 2 covered by pass0; S2 arrives at 5.5 < deadline 7.
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(), true, 2.0, 30.0);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSequentialDual);
  EXPECT_EQ(r.chain_length, 2);
  EXPECT_EQ(r.coordination_requests, 1);
  EXPECT_EQ(r.alerts_sent, 1);
  EXPECT_TRUE(r.timely);
  EXPECT_TRUE(r.all_participants_resolved);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 5.5, 0.01);
}

TEST(Episode, Tc3SignalStopsBeforePeerArrives) {
  // Signal dies at t = 4 < 5.5; S1's wait deadline τ fires and delivers
  // the preliminary result (Fig. 4).
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(), true, 2.0, 2.0);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_EQ(r.alerts_sent, 1);
  EXPECT_TRUE(r.timely);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 7.0, 1e-6);
  EXPECT_TRUE(r.all_participants_resolved);
}

TEST(Episode, ForwardResponsibilityForwardsOnTc3) {
  auto cfg = fast_config();
  cfg.backward_messaging = false;
  const auto sched = underlap_schedule();
  const auto r = run(sched, cfg, true, 2.0, 2.0);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  // S2 forwards S1's result right when its footprint finds no signal.
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 5.5, 0.01);
}

TEST(Episode, BackwardMessagingSurvivesFailSilentPeer) {
  // §3.2: "the delivery of the alert message will be guaranteed even if
  // Sn+1 becomes fail-silent in the middle of computation."
  const auto sched = underlap_schedule();
  // S2 of the chain is the satellite of the pass at 5.5. Find its id
  // dynamically: phase 0, k = 9 ⇒ pass j=1 has slot (k-1) mod 9 = 8. It
  // goes silent at t = 5, three minutes after the signal starts.
  const FaultPlan plan = fail_silent_plan(SatelliteId{0, 8}, 3.0);
  const auto r = run(sched, fast_config(), true, 2.0, 30.0, 1, &plan);
  EXPECT_TRUE(r.alert_delivered);
  EXPECT_EQ(r.level, QosLevel::kSingle);  // S1's own preliminary result
  EXPECT_TRUE(r.timely);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 7.0, 1e-6);
}

TEST(Episode, ForwardResponsibilityLosesAlertOnFailSilentPeer) {
  auto cfg = fast_config();
  cfg.backward_messaging = false;
  const auto sched = underlap_schedule();
  const FaultPlan plan = fail_silent_plan(SatelliteId{0, 8}, 3.0);
  const auto r = run(sched, cfg, true, 2.0, 30.0, 1, &plan);
  EXPECT_TRUE(r.detected);
  EXPECT_FALSE(r.alert_delivered);  // the ablation's point
}

TEST(Episode, Tc1StopsChainImmediatelyWhenThresholdLoose) {
  auto cfg = fast_config();
  cfg.error_threshold_km = 100.0;  // single-pass error (8 km) suffices
  const auto sched = underlap_schedule();
  const auto r = run(sched, cfg, true, 2.0, 30.0);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_EQ(r.coordination_requests, 0);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 2.0, 1e-6);
}

TEST(Episode, Tc1StopsChainAtRequiredAccuracy) {
  // τ = 25 allows a chain of M[9] = 4; a 3-km threshold is met after two
  // passes (8 → 2.8 km), so the chain stops there.
  auto cfg = fast_config(25.0);
  cfg.error_threshold_km = 3.0;
  const auto sched = underlap_schedule();
  const auto r = run(sched, cfg, true, 2.0, 60.0);
  EXPECT_EQ(r.level, QosLevel::kSequentialDual);
  EXPECT_EQ(r.chain_length, 2);
  EXPECT_EQ(r.coordination_requests, 1);
}

TEST(Episode, ChainGrowsToEquationTwoBoundWithLargeDeadline) {
  // τ = 25, k = 9: M[k] = 2 + floor((25-1)/10) = 4.
  const auto sched = underlap_schedule();
  const auto r = run(sched, fast_config(25.0), true, 2.0, 60.0);
  EXPECT_EQ(r.level, QosLevel::kSequentialDual);
  EXPECT_EQ(r.chain_length, 4);
  EXPECT_EQ(r.coordination_requests, 3);
  EXPECT_EQ(r.alerts_sent, 1);
  EXPECT_TRUE(r.all_participants_resolved);
}

TEST(Episode, OverlapWithholdsAndReachesSimultaneousDual) {
  // k = 12: signal at 0.5 under single coverage; the overlap window starts
  // at t = 3 (pass1 begins) — before the 5.5 deadline.
  const auto sched = overlap_schedule();
  const auto r = run(sched, fast_config(), true, 0.5, 30.0);
  EXPECT_EQ(r.level, QosLevel::kSimultaneousDual);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 3.0, 0.01);
  EXPECT_EQ(r.alerts_sent, 1);
  EXPECT_EQ(r.coordination_requests, 0);  // no chain needed
}

TEST(Episode, OverlapWithheldSignalDiesPreliminaryAtDeadline) {
  const auto sched = overlap_schedule();
  const auto r = run(sched, fast_config(), true, 0.5, 1.0);  // dies at 1.5
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 5.5, 1e-6);
  EXPECT_TRUE(r.timely);
}

TEST(Episode, SimultaneousCoverageAtDetection) {
  // t = 3.5 lies in the overlap window [3, 4.5] of passes 0 and 1.
  const auto sched = overlap_schedule();
  const auto r = run(sched, fast_config(), true, 3.5, 30.0);
  EXPECT_EQ(r.level, QosLevel::kSimultaneousDual);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 3.5, 0.01);
  // BAQ gets it too — no withholding needed when detection is simultaneous.
  const auto rb = run(sched, fast_config(), false, 3.5, 30.0);
  EXPECT_EQ(rb.level, QosLevel::kSimultaneousDual);
}

TEST(Episode, BaqNeverWithholds) {
  // Same single-coverage start as the withhold test, but BAQ: level 1.
  const auto sched = overlap_schedule();
  const auto r = run(sched, fast_config(), false, 0.5, 30.0);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 0.5, 1e-6);
}

TEST(Episode, ComputationOverrunFallsBackToPreliminary) {
  // Slow iterative computation (mean ~17 hours, uncapped): the level-3
  // solution cannot complete by τ; the preliminary goes out at deadline.
  auto cfg = fast_config();
  cfg.nu = Rate::per_hour(0.06);
  cfg.computation_cap = Duration::infinity();
  const auto sched = overlap_schedule();
  const auto r = run(sched, cfg, true, 3.5, 30.0, 7);
  EXPECT_EQ(r.level, QosLevel::kSingle);
  EXPECT_NEAR(r.first_alert_sent.since_origin().to_minutes(), 8.5, 1e-6);
  EXPECT_TRUE(r.timely);
}

TEST(Episode, DeterministicForFixedSeed) {
  const auto sched = underlap_schedule();
  auto cfg = fast_config();
  cfg.delta = Duration::seconds(10);
  cfg.computation_cap = Duration::infinity();
  const auto a = run(sched, cfg, true, 2.0, 6.0, 99);
  const auto b = run(sched, cfg, true, 2.0, 6.0, 99);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.alerts_sent, b.alerts_sent);
  EXPECT_EQ(a.first_alert_sent, b.first_alert_sent);
  EXPECT_EQ(a.chain_length, b.chain_length);
}

TEST(Episode, MembershipViewSkipsKnownFailedPeer) {
  // Without the view: S1 requests the (silently failed) S2, waits out the
  // full deadline and falls back to its level-1 result. With the
  // membership view marking S2 failed, S1 skips straight to S3's pass and
  // still achieves sequential-dual quality.
  // The best-effort sender gets no ack, so the plan alone must not let the
  // blind chain re-route around S2.
  const auto sched = underlap_schedule();
  const auto cfg = fast_config(25.0);
  const SatelliteId s2{0, 8};  // pass at 5.5 (phase 0, k = 9)
  const FaultPlan plan = fail_silent_plan(s2, 0.0);

  const auto blind = run(sched, cfg, true, 2.0, 60.0, 1, &plan);
  EXPECT_EQ(blind.level, QosLevel::kSingle);
  EXPECT_NEAR(blind.first_alert_sent.since_origin().to_minutes(), 27.0, 1e-6);

  const std::set<SatelliteId> view = {s2};
  const auto informed = run(sched, cfg, true, 2.0, 60.0, 1, &plan, &view);
  EXPECT_EQ(informed.level, QosLevel::kSequentialDual);
  EXPECT_GE(informed.chain_length, 2);
  EXPECT_LT(informed.first_alert_sent.since_origin().to_minutes(), 27.0);
  EXPECT_EQ(informed.alerts_sent, 1);
}

TEST(Episode, RejectsBadInput) {
  const auto sched = underlap_schedule();
  EpisodeContext context(sched, fast_config(), true);
  EXPECT_THROW(
      (void)context.run(0, Rng(1), TimePoint::origin(), Duration::zero()),
      PreconditionError);
  const auto rejects = [&](auto&& spoil) {
    auto bad = fast_config();
    spoil(bad);
    EXPECT_THROW(EpisodeContext(sched, bad, true), PreconditionError);
  };
  rejects([](ProtocolConfig& c) { c.tau = Duration::zero(); });
  rejects([](ProtocolConfig& c) { c.delta = Duration::seconds(-1); });
  rejects([](ProtocolConfig& c) { c.tg = Duration::seconds(-1); });
  rejects([](ProtocolConfig& c) { c.nu = Rate::zero(); });
}

}  // namespace
}  // namespace oaq
