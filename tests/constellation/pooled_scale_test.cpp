// Sharded-simulator campaigns at constellation scale (ISSUE 8 tentpole):
// the reused per-shard episode context must be byte-identical to the
// scalar per-episode oracle — results, traces, ledger rows — and
// simulate_qos must be byte-identical for any job count, on the paper's
// reference preset, a published mega-constellation design point, and a
// multi-shell composition.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/plan.hpp"
#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "orbit/constellation_builder.hpp"
#include "../oaq/frozen_pass_table.hpp"
#include "../oaq/scalar_oracle.hpp"

namespace oaq {
namespace {

QosSimulationConfig geometric_config(const Constellation& c) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  // More episodes than shards, so every shard drains several episodes
  // through one reused context — the reset path is what's under test.
  cfg.episodes = 130;
  cfg.seed = 19;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

struct RunOutput {
  SimulatedQos qos;
  std::string trace;
  std::string metrics;
};

RunOutput run(QosSimulationConfig cfg) {
  TraceCollector trace;
  MetricsRegistry metrics;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  RunOutput out;
  out.qos = simulate_qos(cfg);
  std::ostringstream os;
  trace.write_jsonl(os);
  out.trace = os.str();
  std::ostringstream ms;
  metrics.write_json(ms);
  out.metrics = ms.str();
  return out;
}

void expect_equal(const RunOutput& got, const RunOutput& want,
                  const std::string& label) {
  for (int y = 0; y <= 3; ++y) {
    EXPECT_EQ(got.qos.level_pmf.probability(y),
              want.qos.level_pmf.probability(y))
        << label << " level " << y;
  }
  EXPECT_EQ(got.qos.duplicates, want.qos.duplicates) << label;
  EXPECT_EQ(got.qos.unresolved, want.qos.unresolved) << label;
  EXPECT_EQ(got.qos.untimely, want.qos.untimely) << label;
  EXPECT_EQ(got.qos.mean_chain_length, want.qos.mean_chain_length) << label;
  EXPECT_EQ(got.qos.max_chain_length, want.qos.max_chain_length) << label;
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_EQ(got.metrics, want.metrics) << label;
}

Constellation two_shell_constellation() {
  WalkerShell low;
  low.total_sats = 10;
  low.planes = 1;
  low.phasing = 0;
  low.altitude_km = 550.0;
  low.inclination_deg = 90.0;
  WalkerShell high = low;
  high.total_sats = 8;
  high.planes = 2;
  high.phasing = 1;
  high.altitude_km = 1200.0;
  high.footprint_deg = 25.0;
  return ConstellationBuilder().add_shell(low).add_shell(high).build();
}

/// 130 episodes over `c` through one reused context (simulate's per-shard
/// path) and through a fresh EpisodeContext each (the oracle).
void expect_reuse_matches_oracle(const Constellation& c,
                                  const FaultPlan* plan,
                                  const std::string& label) {
  oracle::Sequence s;
  s.phase_span = c.max_period();
  s.episodes = 130;
  s.episode_rng = Rng(19).fork(3);
  s.protocol.computation_cap = s.protocol.tg;
  s.plan = plan;
  const FrozenPassTable table(
      c, GeoPoint{0.0, 0.0},
      visibility_quantum(kSignalStart + c.max_period(), s.protocol.tau));
  s.geometric = &table.schedule;
  const oracle::EpisodeOutputs want = oracle::run_fresh(s);
  oracle::expect_same_outputs(oracle::run_reused(s), want, label);
  EXPECT_EQ(want.violations, 0u) << label;
}

TEST(PooledEpisodes, MatchesScalarOracleByteForByte) {
  // Reuse is a wall-clock optimization only: it must reproduce the fresh
  // per-episode oracle's results and traces byte-for-byte on the paper's
  // reference design.
  const Constellation c = ConstellationBuilder::preset("reference").build();
  expect_reuse_matches_oracle(c, nullptr, "reference");
}

TEST(PooledEpisodes, MatchesScalarOracleUnderFaultPlan) {
  // The injector must arm at the episode's jittered start (the scalar
  // engine's signal-start argument), not the run-wide anchor — a plan
  // with windowed clauses pins that alignment.
  WalkerShell shell;
  shell.total_sats = 10;
  shell.planes = 1;
  shell.phasing = 0;
  shell.inclination_deg = 90.0;
  const Constellation c = ConstellationBuilder().add_shell(shell).build();
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(12)));
  plan.add(FaultPlan::delay_spike(2.0, Duration::minutes(0),
                                  Duration::minutes(20)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(2),
                                 Duration::minutes(9)));
  expect_reuse_matches_oracle(c, &plan, "one plane under plan");
}

TEST(PooledEpisodes, ResultsBitIdenticalAcrossJobsOnPresets) {
  // The acceptance pin: simulate trace+metrics bytes identical at jobs
  // 1/4/8 for the 7×14+2 reference and the 6×11 Iridium-NEXT presets.
  for (const char* preset : {"reference", "iridium-next"}) {
    const Constellation c = ConstellationBuilder::preset(preset).build();
    RunOutput base;
    for (const int jobs : {1, 4, 8}) {
      QosSimulationConfig cfg = geometric_config(c);
      cfg.jobs = jobs;
      const RunOutput r = run(cfg);
      if (jobs == 1) {
        base = r;
        EXPECT_EQ(r.qos.episodes, 130) << preset;
        continue;
      }
      expect_equal(r, base,
                   std::string(preset) + " jobs " + std::to_string(jobs));
    }
  }
}

TEST(PooledEpisodes, MultiShellResultsBitIdenticalAcrossJobs) {
  // Shell-aware hot path: per-plane footprints in the visibility sweep
  // and max_period phase jitter, under the reused context at any jobs.
  const Constellation c = two_shell_constellation();
  RunOutput base;
  for (const int jobs : {1, 4, 8}) {
    QosSimulationConfig cfg = geometric_config(c);
    cfg.jobs = jobs;
    const RunOutput r = run(cfg);
    if (jobs == 1) {
      base = r;
      continue;
    }
    expect_equal(r, base, "two-shell jobs " + std::to_string(jobs));
  }
}

TEST(PooledEpisodes, WarmSharedCacheHitAccountingPreserved) {
  // The reused context must not change the visibility query pattern: with
  // the run-covering quantum, every query hits the seeded window.
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  QosSimulationConfig cfg = geometric_config(c);
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  const auto& counters = metrics.counters();
  ASSERT_TRUE(counters.contains("visibility.pass_queries"));
  ASSERT_TRUE(counters.contains("visibility.pass_hits"));
  EXPECT_GT(counters.at("visibility.pass_queries"), 0);
  EXPECT_EQ(counters.at("visibility.pass_hits"),
            counters.at("visibility.pass_queries"));
}

TEST(GeometricCampaign, PresetReplicationsBitIdenticalAcrossJobs) {
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  CampaignConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.k = 11;
  cfg.signal_arrival_rate = Rate::per_hour(4.0);
  cfg.horizon = Duration::hours(3);
  cfg.seed = 9;
  cfg.replications = 3;
  CampaignResult base;
  for (const int jobs : {1, 4, 8}) {
    cfg.jobs = jobs;
    const CampaignResult r = run_campaign(cfg);
    if (jobs == 1) {
      base = r;
      EXPECT_GT(r.signals, 0);
      continue;
    }
    EXPECT_EQ(r.signals, base.signals);
    EXPECT_EQ(r.delivered, base.delivered);
    EXPECT_EQ(r.untimely, base.untimely);
    EXPECT_EQ(r.mean_latency_min, base.mean_latency_min);
    for (int y = 0; y <= 3; ++y) {
      EXPECT_EQ(r.levels.probability(y), base.levels.probability(y));
    }
  }
}

}  // namespace
}  // namespace oaq
