#include "oaq/montecarlo.hpp"

#include <gtest/gtest.h>

#include "analytic/qos_model.hpp"
#include "common/error.hpp"
#include "fault/plan.hpp"
#include "metrics_keys.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

/// Analytic-assumption protocol config: δ = Tg = 0, uncapped Exp(ν).
QosSimulationConfig validation_config(int k, bool oaq, double tau = 5.0,
                                      double mu = 0.5, double nu = 30.0) {
  QosSimulationConfig c;
  c.k = k;
  c.opportunity_adaptive = oaq;
  c.episodes = 6000;
  c.seed = 1234;
  c.mu = Rate::per_minute(mu);
  c.protocol.tau = Duration::minutes(tau);
  c.protocol.delta = Duration::zero();
  c.protocol.tg = Duration::zero();
  c.protocol.nu = Rate::per_minute(nu);
  return c;
}

/// The E10 validation: the protocol simulation reproduces the closed-form
/// P(Y = y | k) under the analytic model's assumptions.
class SimVsAnalytic : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SimVsAnalytic, ConditionalPmfMatches) {
  const auto [k, oaq] = GetParam();
  const auto cfg = validation_config(k, oaq);
  const auto sim = simulate_qos(cfg);

  QosModelParams mp;
  mp.tau = cfg.protocol.tau;
  mp.mu = cfg.mu;
  mp.nu = cfg.protocol.nu;
  const QosModel model(cfg.geometry, mp);
  const auto expected =
      model.conditional_pmf(k, oaq ? Scheme::kOaq : Scheme::kBaq);

  for (int y = 0; y <= 3; ++y) {
    EXPECT_NEAR(sim.level_pmf.probability(y),
                expected[static_cast<std::size_t>(y)], 0.025)
        << "k=" << k << " oaq=" << oaq << " y=" << y;
  }
  EXPECT_EQ(sim.duplicates, 0);
  EXPECT_EQ(sim.unresolved, 0);
  EXPECT_EQ(sim.untimely, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AcrossCapacitiesAndSchemes, SimVsAnalytic,
    ::testing::Combine(::testing::Values(7, 9, 10, 11, 12, 14),
                       ::testing::Bool()),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_oaq" : "_baq");
    });

TEST(MonteCarlo, ChainLengthNeverExceedsEquationTwoBound) {
  PlaneGeometry g;
  for (int k : {7, 9, 10}) {
    for (double tau : {3.0, 5.0, 12.0, 25.0}) {
      auto cfg = validation_config(k, true, tau, 0.1);
      cfg.episodes = 800;
      const auto sim = simulate_qos(cfg);
      const int bound = g.max_chain(k, Duration::minutes(tau));
      EXPECT_LE(sim.max_chain_length, std::max(bound, 1))
          << "k=" << k << " tau=" << tau;
    }
  }
}

TEST(MonteCarlo, OaqTailDominatesBaqTail) {
  for (int k : {9, 12}) {
    const auto oaq = simulate_qos(validation_config(k, true));
    const auto baq = simulate_qos(validation_config(k, false));
    for (auto level : {QosLevel::kSingle, QosLevel::kSequentialDual,
                       QosLevel::kSimultaneousDual}) {
      EXPECT_GE(oaq.tail(level), baq.tail(level) - 0.01)
          << "k=" << k << " level=" << to_int(level);
    }
  }
}

TEST(MonteCarlo, LongerSignalsRaiseOaqLevel3) {
  const auto fast = simulate_qos(validation_config(12, true, 5.0, 0.5));
  const auto slow = simulate_qos(validation_config(12, true, 5.0, 0.2));
  EXPECT_GT(slow.probability(QosLevel::kSimultaneousDual),
            fast.probability(QosLevel::kSimultaneousDual));
}

TEST(MonteCarlo, RealisticDelaysKeepProtocolSafe) {
  // With nonzero δ and Tg and a bounded computation, the protocol's
  // guarantees hold outright: no duplicates, no unresolved members, and
  // every alert timely.
  QosSimulationConfig c;
  c.k = 9;
  c.opportunity_adaptive = true;
  c.episodes = 4000;
  c.seed = 77;
  c.mu = Rate::per_minute(0.3);
  c.protocol.tau = Duration::minutes(5);
  c.protocol.delta = Duration::seconds(12);
  c.protocol.tg = Duration::seconds(6);
  c.protocol.nu = Rate::per_minute(30);
  c.protocol.computation_cap = Duration::seconds(6);  // bounded by Tg
  const auto sim = simulate_qos(c);
  EXPECT_EQ(sim.duplicates, 0);
  EXPECT_EQ(sim.unresolved, 0);
  EXPECT_EQ(sim.untimely, 0);
  EXPECT_GT(sim.probability(QosLevel::kSequentialDual), 0.05);
}

TEST(MonteCarlo, RejectsBadConfig) {
  QosSimulationConfig c;
  c.k = 0;
  EXPECT_THROW((void)simulate_qos(c), PreconditionError);
  c.k = 9;
  c.episodes = 0;
  EXPECT_THROW((void)simulate_qos(c), PreconditionError);
}

TEST(MonteCarlo, ReportsStochasticFaultTruncation) {
  // A Gilbert–Elliott clause of ~1/6 min dwells stretched over 24 h: every
  // armed episode's expansion hits the 1024-interval cap; over τ none does.
  QosSimulationConfig sim;
  sim.k = 9;
  sim.episodes = 20;
  sim.protocol.reliable_links = true;
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(),
                              Duration::hours(24)));
  sim.fault_plan = &plan;
  EXPECT_GT(simulate_qos(sim).fault_truncations, 0);
  FaultPlan short_plan;
  short_plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(),
                                    sim.protocol.tau));
  sim.fault_plan = &short_plan;
  EXPECT_EQ(simulate_qos(sim).fault_truncations, 0);
}

TEST(MonteCarlo, MetricsKeySetIsFixed) {
  // oaq-metrics-v3: one key set for every simulate run — plain analytic,
  // the analytic storm (reliable self-healing links, ge_loss + outage
  // train, invariants on) and a geometric run — equal to the documented
  // table, with idle families written as zeros.
  const auto run = [](QosSimulationConfig cfg) {
    MetricsRegistry metrics;
    cfg.metrics = &metrics;
    (void)simulate_qos(cfg);
    return metrics;
  };
  QosSimulationConfig plain;
  plain.k = 9;
  plain.episodes = 300;
  plain.seed = 7;
  const MetricsRegistry plain_metrics = run(plain);

  QosSimulationConfig storm = plain;
  storm.protocol.reliable_links = true;
  storm.protocol.self_healing_links = true;
  storm.check_invariants = true;
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(),
                              storm.protocol.tau));
  plan.add(FaultPlan::outage_train(0, 0, 1.0, 0.5, Duration::zero(),
                                   storm.protocol.tau));
  storm.fault_plan = &plan;
  const MetricsRegistry storm_metrics = run(storm);

  const Constellation iridium =
      ConstellationBuilder::preset("iridium-next").build();
  QosSimulationConfig geometric = plain;
  geometric.episodes = 100;
  geometric.constellation = &iridium;
  geometric.target = GeoPoint::from_degrees(45.0, 10.0);
  geometric.earth_rotation = true;
  const MetricsRegistry geometric_metrics = run(geometric);

  const std::set<std::string> table = metrics_keys::simulate();
  EXPECT_EQ(metrics_keys::of(plain_metrics), table);
  EXPECT_EQ(metrics_keys::of(storm_metrics), table);
  EXPECT_EQ(metrics_keys::of(geometric_metrics), table);

  // Idle families read 0 (a stat: count 0 or per-episode zeros); active
  // ones carry the run's values.
  EXPECT_EQ(plain_metrics.counter("net.fault.injected"), 0);
  EXPECT_EQ(plain_metrics.counter("net.health.probations"), 0);
  EXPECT_EQ(plain_metrics.counter("invariant.violations"), 0);
  EXPECT_EQ(plain_metrics.counter("visibility.pass_queries"), 0);
  EXPECT_EQ(plain_metrics.counter("visibility.cache_entries"), 0);
  EXPECT_EQ(plain_metrics.stat("sim.peak_pending").count(), 300u);
  EXPECT_GT(storm_metrics.counter("net.fault.injected"), 0);
  EXPECT_GT(geometric_metrics.counter("visibility.pass_queries"), 0);
  EXPECT_GT(geometric_metrics.counter("visibility.cache_entries"), 0);
}

}  // namespace
}  // namespace oaq
