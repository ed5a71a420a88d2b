// Geometric Monte-Carlo / campaign mode: episodes against real
// constellation geometry through one seeded, frozen SharedVisibilityCache.
// The contract under test: the cache changes wall-clock cost only —
// results stay bit-identical for any worker count, cached schedules agree
// with an uncached sweep of the same windows, and one seeded window serves
// every pass query of a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"

namespace oaq {
namespace {

Constellation small_polar_plane() {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  return Constellation(d);
}

QosSimulationConfig geometric_config(const Constellation& c) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = 24;
  cfg.seed = 19;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

TEST(GeometricMonteCarlo, CachedScheduleMatchesFreshCache) {
  const Constellation c = small_polar_plane();
  const GeoPoint target{0.0, 0.0};
  SharedVisibilityCache cache(c);
  cache.seed_window(target, Duration::zero(), Duration::hours(1));
  cache.freeze();
  VisibilityCacheStats stats;
  const GeometricSchedule cached(cache, &stats);
  // Reference: the seeded hour, swept without a cache and clipped.
  const Duration from = Duration::minutes(5);
  const Duration to = Duration::minutes(55);
  std::vector<Pass> expect;
  for (const Pass& p : PassPredictor(c).passes(target, Duration::zero(),
                                               Duration::hours(1))) {
    if (p.end <= from || p.start >= to) continue;
    expect.push_back(
        {p.satellite, std::max(p.start, from), std::min(p.end, to)});
  }
  const auto got = cached.passes(from, to);
  ASSERT_FALSE(got.empty());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].satellite, expect[i].satellite);
    EXPECT_EQ(got[i].start.to_seconds(), expect[i].start.to_seconds());
    EXPECT_EQ(got[i].end.to_seconds(), expect[i].end.to_seconds());
  }
  EXPECT_EQ(stats.pass_queries, 1u);
  EXPECT_EQ(stats.pass_hits, 1u);
}

TEST(GeometricMonteCarlo, ResultsAreBitIdenticalAcrossJobs) {
  const Constellation c = small_polar_plane();
  SimulatedQos base;
  std::string base_trace;
  std::string base_metrics;
  for (const int jobs : {1, 2, 4, 8}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.jobs = jobs;
    TraceCollector trace;
    cfg.trace = &trace;
    MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const SimulatedQos r = simulate_qos(cfg);
    std::ostringstream os;
    trace.write_jsonl(os);
    std::ostringstream ms;
    metrics.write_json(ms);
    if (jobs == 1) {
      base = r;
      base_trace = os.str();
      base_metrics = ms.str();
      EXPECT_EQ(r.episodes, 24);
      continue;
    }
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.level_pmf.probability(y), base.level_pmf.probability(y))
          << "level " << y << " jobs " << jobs;
    }
    EXPECT_EQ(r.duplicates, base.duplicates);
    EXPECT_EQ(r.unresolved, base.unresolved);
    EXPECT_EQ(r.mean_chain_length, base.mean_chain_length);
    EXPECT_EQ(os.str(), base_trace) << "jobs " << jobs;
    // The full serialized registry — counters, gauges, and stat folds,
    // including the shared cache's hit accounting — must be byte-identical
    // for any worker count, not just statistically equal.
    EXPECT_EQ(ms.str(), base_metrics) << "jobs " << jobs;
  }
}

/// The invariant the single seeded window relies on: every pass query of
/// a run hits it, and it is the cache's only entry.
void expect_single_window_hits(const MetricsRegistry& metrics,
                               const std::string& label) {
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.contains("visibility.pass_queries")) << label;
  ASSERT_TRUE(counters.contains("visibility.pass_hits")) << label;
  ASSERT_TRUE(counters.contains("visibility.cache_entries")) << label;
  EXPECT_GT(counters.at("visibility.pass_queries"), 0) << label;
  EXPECT_EQ(counters.at("visibility.pass_hits"),
            counters.at("visibility.pass_queries"))
      << label;
  EXPECT_EQ(counters.at("visibility.cache_entries"), 1) << label;
}

TEST(GeometricMonteCarlo, ExportsCacheHitMetrics) {
  const Constellation c = small_polar_plane();
  // On the equator without Earth rotation, and off-equator with it: the
  // simulate quantum must cover every episode window either way.
  for (const bool rotating : {false, true}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.episodes = 130;
    cfg.jobs = 1;
    if (rotating) {
      cfg.target = GeoPoint::from_degrees(45.0, 10.0);
      cfg.earth_rotation = true;
    }
    MetricsRegistry metrics;
    cfg.metrics = &metrics;
    (void)simulate_qos(cfg);
    expect_single_window_hits(metrics, rotating ? "45N 10E rotating"
                                                : "equator inertial");
  }
}

TEST(GeometricCampaign, RunsOnRealGeometryAndReportsCacheStats) {
  const Constellation c = small_polar_plane();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 10;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(4);
  cfg.seed = 5;
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const CampaignResult r = run_campaign(cfg);
  EXPECT_GT(r.signals, 0);
  EXPECT_GT(r.delivered, 0);
  expect_single_window_hits(metrics, "equator inertial");

  cfg.target = GeoPoint::from_degrees(45.0, 10.0);
  cfg.earth_rotation = true;
  cfg.replications = 3;
  MetricsRegistry rotating;
  cfg.metrics = &rotating;
  (void)run_campaign(cfg);
  expect_single_window_hits(rotating, "45N 10E rotating, 3 replications");
}

TEST(GeometricCampaign, SingleReplicationProfileReportsTheSeed) {
  // A one-replication run goes through the same seed/freeze hook as any
  // other count, so its profile splits the seed sweep from the run.
  const Constellation c = small_polar_plane();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 10;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(3);
  cfg.seed = 9;
  cfg.jobs = 1;
  ReduceProfile profile;
  cfg.profile = &profile;
  (void)run_campaign(cfg);
  ASSERT_EQ(profile.shards.size(), 1u);
  EXPECT_EQ(profile.shards_used, 1);
  EXPECT_GT(profile.seed_s, 0.0);
  EXPECT_LT(profile.shards[0].run_s, profile.total_s);
}

TEST(GeometricCampaign, ReplicationsAreBitIdenticalAcrossJobs) {
  const Constellation c = small_polar_plane();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 10;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(3);
  cfg.seed = 9;
  cfg.replications = 3;
  CampaignResult base;
  for (const int jobs : {1, 3, 8}) {
    cfg.jobs = jobs;
    const CampaignResult r = run_campaign(cfg);
    if (jobs == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.signals, base.signals);
    EXPECT_EQ(r.delivered, base.delivered);
    EXPECT_EQ(r.mean_latency_min, base.mean_latency_min);
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.levels.probability(y), base.levels.probability(y));
    }
  }
}

}  // namespace
}  // namespace oaq
