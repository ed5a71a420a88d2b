#include "oaq/campaign.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"

namespace oaq {
namespace {

CampaignConfig base_config() {
  CampaignConfig cfg;
  cfg.k = 9;
  cfg.protocol.tau = Duration::minutes(5);
  cfg.protocol.delta = Duration::seconds(12);
  cfg.protocol.tg = Duration::seconds(6);
  cfg.protocol.nu = Rate::per_minute(30);
  cfg.protocol.computation_cap = Duration::seconds(6);
  cfg.duration_distribution =
      std::make_shared<ExponentialDuration>(Rate::per_minute(0.2));
  cfg.horizon = Duration::hours(200);
  cfg.signal_arrival_rate = Rate::per_hour(2.0);
  cfg.seed = 11;
  return cfg;
}

TEST(Campaign, LowLoadMatchesSingleTargetModel) {
  // At 2 signals/hour with 6-second computations, contention is nil: the
  // campaign's level distribution must match the single-episode harness.
  auto cfg = base_config();
  const auto campaign = run_campaign(cfg);
  ASSERT_GT(campaign.signals, 250);

  QosSimulationConfig single;
  single.k = cfg.k;
  single.protocol = cfg.protocol;
  single.mu = Rate::per_minute(0.2);
  single.episodes = 20000;
  single.seed = 5;
  const auto reference = simulate_qos(single);

  for (int y = 0; y <= 3; ++y) {
    EXPECT_NEAR(campaign.levels.probability(y),
                reference.level_pmf.probability(y), 0.05)
        << "level " << y;
  }
  EXPECT_EQ(campaign.duplicates, 0);
  EXPECT_EQ(campaign.untimely, 0);
  // Occasional coincident signals may share a satellite even at low load.
  EXPECT_LT(campaign.contended_computations, campaign.signals / 50);
}

TEST(Campaign, EveryDetectedSignalIsDelivered) {
  auto cfg = base_config();
  cfg.signal_arrival_rate = Rate::per_hour(10.0);
  cfg.horizon = Duration::hours(100);
  const auto r = run_campaign(cfg);
  // delivered == signals − escaped; escaped signals show up as kMissed.
  EXPECT_EQ(r.delivered,
            r.signals - static_cast<int>(std::lround(
                            r.levels.probability(0) * r.signals)));
  EXPECT_EQ(r.untimely, 0);
}

TEST(Campaign, HeavyLoadWithSlowComputationsContends) {
  auto cfg = base_config();
  // Slow computations (mean 1 min, cap 2 min) and a dense signal stream.
  cfg.protocol.nu = Rate::per_minute(1.0);
  cfg.protocol.computation_cap = Duration::minutes(2);
  cfg.signal_arrival_rate = Rate::per_hour(60.0);
  cfg.horizon = Duration::hours(50);
  const auto contended = run_campaign(cfg);
  EXPECT_GT(contended.contended_computations, 0);
  EXPECT_GT(contended.mean_queueing_delay_s, 0.0);

  auto no_contention = cfg;
  no_contention.compute_contention = false;
  const auto free = run_campaign(no_contention);
  EXPECT_EQ(free.contended_computations, 0);
  // Contention can only hurt the high end of the spectrum.
  EXPECT_LE(contended.tail(QosLevel::kSequentialDual),
            free.tail(QosLevel::kSequentialDual) + 0.02);
}

TEST(Campaign, DeterministicForSeed) {
  const auto a = run_campaign(base_config());
  const auto b = run_campaign(base_config());
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_EQ(a.delivered, b.delivered);
  for (int y = 0; y <= 3; ++y) {
    EXPECT_DOUBLE_EQ(a.levels.probability(y), b.levels.probability(y));
  }
  EXPECT_DOUBLE_EQ(a.mean_latency_min, b.mean_latency_min);
}

TEST(Campaign, RejectsBadConfig) {
  auto cfg = base_config();
  cfg.k = 0;
  EXPECT_THROW((void)run_campaign(cfg), PreconditionError);
  cfg = base_config();
  cfg.horizon = Duration::zero();
  EXPECT_THROW((void)run_campaign(cfg), PreconditionError);
}


/// The crosslink, net.* and re-route counters of a registry: the link and
/// health keys both engines export.
std::set<std::string> link_keys(const MetricsRegistry& m) {
  std::set<std::string> keys;
  for (const auto& [name, value] : m.counters()) {
    if (name.starts_with("xlink.") || name.starts_with("net.") ||
        name == "episodes.reroutes") {
      keys.insert(name);
    }
  }
  return keys;
}

TEST(Campaign, SelfHealingExportsTheSimulateLinkKeySet) {
  // One flag set, one key set: a self-healing campaign exports the same
  // link and health counters as a self-healing simulate_qos run.
  auto cfg = base_config();
  cfg.horizon = Duration::hours(10);
  cfg.protocol.self_healing_links = true;
  MetricsRegistry campaign_metrics;
  cfg.metrics = &campaign_metrics;
  (void)run_campaign(cfg);

  QosSimulationConfig sim;
  sim.k = 9;
  sim.episodes = 200;
  sim.protocol.self_healing_links = true;
  MetricsRegistry simulate_metrics;
  sim.metrics = &simulate_metrics;
  (void)simulate_qos(sim);

  const std::set<std::string> keys = link_keys(simulate_metrics);
  EXPECT_TRUE(keys.contains("xlink.dropped_link"));
  EXPECT_TRUE(keys.contains("net.fault.injected"));
  EXPECT_TRUE(keys.contains("net.lifecycle.deaths"));
  EXPECT_TRUE(keys.contains("episodes.reroutes"));
  EXPECT_EQ(link_keys(campaign_metrics), keys);
}

/// Campaign fault-truncation count under `--ge-loss 0,0,4,2,1.0` over a
/// horizon of `hours`.
std::int64_t ge_loss_truncations(double hours, int jobs) {
  auto cfg = base_config();
  cfg.horizon = Duration::hours(hours);
  cfg.signal_arrival_rate = Rate::per_hour(6.0);
  cfg.replications = 2;
  cfg.jobs = jobs;
  cfg.protocol.reliable_links = true;
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(),
                              cfg.horizon));
  cfg.fault_plan = &plan;
  return run_campaign(cfg).fault_truncations;
}

TEST(Campaign, ReportsStochasticFaultTruncation) {
  // Gilbert–Elliott dwells of ~1/6 min exhaust the expander's 1024-interval
  // cap around minute 750, so a 24 h clause ends early in each replication;
  // a 3 h clause fits. The count is jobs-independent.
  EXPECT_EQ(ge_loss_truncations(3.0, 1), 0);
  EXPECT_EQ(ge_loss_truncations(24.0, 1), 2);
  EXPECT_EQ(ge_loss_truncations(24.0, 2), 2);
}
}  // namespace
}  // namespace oaq
