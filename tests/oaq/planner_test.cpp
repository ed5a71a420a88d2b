#include "oaq/planner.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace oaq {
namespace {

ProtocolConfig ideal_config(double tau_min = 5.0) {
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(tau_min);
  cfg.delta = Duration::zero();
  cfg.tg = Duration::zero();
  cfg.computation_cap = Duration::seconds(1e-6);
  return cfg;
}

TEST(OpportunityPlanner, UnderlapChainMatchesEquationTwo) {
  // k = 9, τ = 25: Eq. (2) gives M = 4; passes at [-4.5,4.5],[5.5,...].
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config(25.0));
  const auto plan = planner.plan(TimePoint::at(Duration::minutes(2)));
  EXPECT_FALSE(plan.simultaneous_at.has_value());
  EXPECT_EQ(plan.max_chain_length(), 4);
  EXPECT_EQ(plan.best_achievable, QosLevel::kSequentialDual);
  // Steps arrive Tr = 10 min apart.
  ASSERT_EQ(plan.chain.size(), 4u);
  EXPECT_NEAR(plan.chain[1].arrival.to_minutes(), 5.5, 1e-9);
  EXPECT_NEAR(plan.chain[2].arrival.to_minutes(), 15.5, 1e-9);
  EXPECT_NEAR(plan.chain[3].arrival.to_minutes(), 25.5, 1e-9);
  // Accuracy improves monotonically along the chain.
  for (std::size_t i = 1; i < plan.chain.size(); ++i) {
    EXPECT_LT(plan.chain[i].expected_error_km,
              plan.chain[i - 1].expected_error_km);
  }
}

TEST(OpportunityPlanner, OverlapPlanFindsSimultaneousWindow) {
  // k = 12, detection at 0.5: overlap window starts at 3.0 < deadline.
  const AnalyticSchedule sched(PlaneGeometry{}, 12, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config());
  const auto plan = planner.plan(TimePoint::at(Duration::minutes(0.5)));
  ASSERT_TRUE(plan.simultaneous_at.has_value());
  EXPECT_NEAR(plan.simultaneous_at->to_minutes(), 3.0, 1e-9);
  EXPECT_EQ(plan.best_achievable, QosLevel::kSimultaneousDual);
  EXPECT_DOUBLE_EQ(plan.best_error_km,
                   AccuracyModel{}.simultaneous_error_km());
}

TEST(OpportunityPlanner, DetectionInsideOverlapIsImmediatelySimultaneous) {
  const AnalyticSchedule sched(PlaneGeometry{}, 12, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config());
  const auto plan = planner.plan(TimePoint::at(Duration::minutes(3.5)));
  ASSERT_TRUE(plan.simultaneous_at.has_value());
  EXPECT_NEAR(plan.simultaneous_at->to_minutes(), 3.5, 1e-9);
  EXPECT_DOUBLE_EQ(plan.chain.front().expected_error_km,
                   AccuracyModel{}.simultaneous_error_km());
}

TEST(OpportunityPlanner, TightDeadlineDegradesToSingle) {
  // k = 9, τ = 0.9 < L2 = 1: no peer can arrive; single coverage only.
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config(0.9));
  const auto plan = planner.plan(TimePoint::at(Duration::minutes(2)));
  EXPECT_EQ(plan.max_chain_length(), 1);
  EXPECT_EQ(plan.best_achievable, QosLevel::kSingle);
  EXPECT_FALSE(plan.simultaneous_at.has_value());
}

TEST(OpportunityPlanner, PlanMatchesEpisodeOutcomeForPersistentSignal) {
  // The planner's best_achievable must equal the engine's delivered level
  // when the signal outlives the window, across capacities and phases.
  for (int k : {9, 10, 12, 14}) {
    for (double start : {0.5, 2.0, 3.7}) {
      const AnalyticSchedule sched(PlaneGeometry{}, k,
                                   Duration::minutes(0.0));
      const auto cfg = ideal_config();
      const OpportunityPlanner planner(sched, cfg);
      EpisodeContext context(sched, cfg, true);
      const auto t0 = TimePoint::at(Duration::minutes(start));
      // Only plan at covered instants.
      const auto passes = sched.passes(Duration::minutes(-10),
                                       Duration::minutes(10));
      bool covered = false;
      for (const auto& p : passes) {
        covered |= (p.start <= t0.since_origin() &&
                    t0.since_origin() < p.end);
      }
      if (!covered) continue;
      const auto plan = planner.plan(t0);
      const auto& episode = context.run(0, Rng(9), t0, Duration::hours(5));
      EXPECT_EQ(episode.level, plan.best_achievable)
          << "k=" << k << " start=" << start;
    }
  }
}

TEST(OpportunityPlanner, NextDetectionOpportunity) {
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config());
  // Covered at t = 2 -> immediate.
  const auto now = planner.next_detection_opportunity(
      TimePoint::at(Duration::minutes(2)));
  ASSERT_TRUE(now.has_value());
  EXPECT_NEAR(now->since_origin().to_minutes(), 2.0, 1e-9);
  // In the gap (4.5, 5.5) -> next pass start.
  const auto gap = planner.next_detection_opportunity(
      TimePoint::at(Duration::minutes(4.7)));
  ASSERT_TRUE(gap.has_value());
  EXPECT_NEAR(gap->since_origin().to_minutes(), 5.5, 1e-9);
}

TEST(OpportunityPlanner, RejectsUncoveredDetection) {
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::zero());
  const OpportunityPlanner planner(sched, ideal_config());
  EXPECT_THROW((void)planner.plan(TimePoint::at(Duration::minutes(4.7))),
               PreconditionError);
  EXPECT_THROW((void)planner.next_detection_opportunity(
                   TimePoint::origin(), Duration::zero()),
               PreconditionError);
}

}  // namespace
}  // namespace oaq
