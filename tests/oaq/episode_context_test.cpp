// Reuse-vs-fresh property of the episode lifecycle: thousands of episodes
// run through ONE reused EpisodeContext must be indistinguishable from a
// fresh EpisodeContext per episode on the same fork(e) streams —
// identical EpisodeResults (telemetry included), identical sequential
// trace bytes, identical ledger rows, identical invariant audits — for
// OAQ and BAQ, on the analytic k = 9 plane and the iridium-next
// constellation, with and without a stochastic storm over reliable
// self-healing links, under eccentric duration laws and a scripted fault
// plan. simulate_qos's shards run that same loop: their analytic trace
// matches the oracle's, byte for byte, at any worker count. A context
// stops registering handlers at its schedule's satellite count and stays
// indistinguishable from one that scans every horizon.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/distribution.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"
#include "orbit/constellation_builder.hpp"
#include "frozen_pass_table.hpp"
#include "scalar_oracle.hpp"

namespace oaq {
namespace {

/// Gilbert–Elliott loss inside every plane plus alternating outages
/// between neighbouring planes over the protocol window.
FaultPlan storm_plan(int planes) {
  FaultPlan plan;
  for (int p = 0; p < planes; ++p) {
    plan.add(FaultPlan::ge_loss(p, p, 4.0, 2.0, 0.9, Duration::zero(),
                                Duration::minutes(5)));
    plan.add(FaultPlan::outage_train(p, (p + 1) % planes, 1.0, 0.5,
                                     Duration::zero(), Duration::minutes(5)));
  }
  return plan;
}

/// 2000 episodes through one reused context and through a fresh
/// EpisodeContext each; `geometric` null = the analytic k = 9 plane.
/// `storm` replaces the sequence's fault plan with a stochastic storm over
/// reliable self-healing links.
void expect_reuse_matches_fresh(oracle::Sequence s, int planes, bool storm,
                                const std::string& label) {
  s.episode_rng = Rng(20261016).fork(3);
  s.protocol.computation_cap = s.protocol.tg;
  std::optional<FaultPlan> plan;
  if (storm) {
    s.protocol.crosslink_loss_probability = 0.1;
    s.protocol.reliable_links = true;
    s.protocol.self_healing_links = true;
    s.plan = &plan.emplace(storm_plan(planes));
  }
  const oracle::EpisodeOutputs want = oracle::run_fresh(s);
  oracle::expect_same_outputs(oracle::run_reused(s), want, label);
  EXPECT_EQ(want.violations, 0u) << label;
  // The property is only as strong as the paths it crosses: episodes must
  // drain, analytic ones must also escape (the geometric presets cover the
  // target continuously), and fault plans must actually fire.
  std::int64_t detected = 0;
  for (const EpisodeResult& r : want.results) detected += r.detected ? 1 : 0;
  EXPECT_GT(detected, 0) << label;
  if (s.geometric == nullptr) {
    EXPECT_LT(detected, s.episodes) << label;
  }
  if (s.plan != nullptr) {
    EXPECT_NE(want.ledger.find("\"ep\":"), std::string::npos) << label;
  }
}

TEST(EpisodeContext, ReusedMatchesFreshAnalytic) {
  for (const bool oaq : {true, false}) {
    for (const bool storm : {false, true}) {
      oracle::Sequence s;
      s.oaq = oaq;
      expect_reuse_matches_fresh(s, 1, storm,
                                 std::string(oaq ? "oaq" : "baq") +
                                     (storm ? " storm" : " clean"));
    }
  }
}

/// Eccentric duration laws: near-zero deterministic signals escape almost
/// always, heavy-tailed Weibull signals almost never, and a uniform law
/// straddles the pass length.
std::vector<std::pair<std::string, std::shared_ptr<const DurationDistribution>>>
eccentric_laws() {
  return {
      {"det_short",
       std::make_shared<DeterministicDuration>(Duration::seconds(2.0))},
      {"weibull_heavy", std::make_shared<WeibullDuration>(
                            WeibullDuration::with_mean(
                                0.6, Duration::minutes(2.0)))},
      {"uniform", std::make_shared<UniformDuration>(Duration::seconds(5.0),
                                                    Duration::minutes(10.0))},
  };
}

TEST(EpisodeContext, ReusedMatchesFreshAcrossDurationLaws) {
  for (const auto& [name, law] : eccentric_laws()) {
    oracle::Sequence s;
    s.law = law;
    expect_reuse_matches_fresh(s, 1, /*storm=*/false, name);
  }
}

TEST(EpisodeContext, ReusedMatchesFreshUnderBaq) {
  // BAQ runs no coordination protocol, so its episodes cross other paths
  // than OAQ's under the same eccentric laws.
  for (const auto& [name, law] : eccentric_laws()) {
    oracle::Sequence s;
    s.oaq = false;
    s.law = law;
    expect_reuse_matches_fresh(s, 1, /*storm=*/false, "baq " + name);
  }
}

TEST(EpisodeContext, ReusedMatchesFreshUnderScriptedFaultPlan) {
  // Clause times are relative to each episode's signal start.
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(FaultPlan::delay_spike(3.0, Duration::minutes(1.0),
                                  Duration::minutes(5.0)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(0.0),
                                 Duration::minutes(2.0)));
  for (const bool oaq : {true, false}) {
    oracle::Sequence s;
    s.oaq = oaq;
    s.plan = &plan;
    expect_reuse_matches_fresh(s, 1, /*storm=*/false,
                               oaq ? "oaq scripted" : "baq scripted");
  }
}

TEST(EpisodeContext, ReusedMatchesFreshGeometric) {
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  ProtocolConfig protocol;
  const FrozenPassTable table(
      c, GeoPoint{0.0, 0.0},
      visibility_quantum(kSignalStart + c.max_period(), protocol.tau));
  for (const bool oaq : {true, false}) {
    for (const bool storm : {false, true}) {
      oracle::Sequence s;
      s.geometric = &table.schedule;
      s.phase_span = c.max_period();
      s.signal_start = signal_start;
      s.oaq = oaq;
      expect_reuse_matches_fresh(s, c.num_planes(), storm,
                                 std::string("iridium-next ") +
                                     (oaq ? "oaq" : "baq") +
                                     (storm ? " storm" : " clean"));
    }
  }
}

TEST(EpisodeContext, EscapedEpisodeLeavesTheContextReusable) {
  // A failed arm() schedules nothing, so the next reset() succeeds and the
  // escaped result is the scalar engine's default.
  const PlaneGeometry geometry;
  ASSERT_GT(geometry.tr(7), geometry.tc() + Duration::seconds(4));
  AnalyticSchedule schedule(geometry, 7, Duration::zero());
  ProtocolConfig cfg;
  EpisodeContext context(schedule, cfg, /*opportunity_adaptive=*/true);
  // Pass j is centred on j·Tr; the second after pass 5 ends is uncovered.
  const Duration centre = geometry.tr(7) * 5.0;
  const EpisodeResult& escaped = context.run(
      0, Rng(1), TimePoint::at(centre + geometry.tc() / 2.0 +
                               Duration::seconds(1)),
      Duration::seconds(1));
  EXPECT_FALSE(escaped.detected);
  EXPECT_TRUE(escaped == EpisodeResult{});
  const EpisodeResult& armed = context.run(1, Rng(2), TimePoint::at(centre),
                                           Duration::minutes(10));
  EXPECT_TRUE(armed.detected);
  EXPECT_GT(armed.telemetry.sim_events, 0u);
}

/// Answers like `inner` but reports a satellite count (-1) that no handler
/// count ever equals, so a context over it scans every horizon for
/// unregistered satellites.
class UncountedSchedule final : public CoverageSchedule {
 public:
  explicit UncountedSchedule(const CoverageSchedule& inner) : inner_(&inner) {}
  void passes_into(Duration from, Duration to,
                   std::vector<Pass>& out) const override {
    inner_->passes_into(from, to, out);
  }
  [[nodiscard]] int satellite_count() const override { return -1; }

 private:
  const CoverageSchedule* inner_;
};

/// The sequence through one reused context over `schedule`, re-phasing
/// `analytic` per episode when given; `registered` receives the context's
/// handler count after each episode.
oracle::EpisodeOutputs run_recording_handlers(const oracle::Sequence& s,
                                              const CoverageSchedule& schedule,
                                              AnalyticSchedule* analytic,
                                              std::vector<int>& registered) {
  oracle::EpisodeSinks sinks;
  EpisodeContext context(schedule, s.protocol, s.oaq, s.plan);
  oracle::EpisodeOutputs out;
  for (std::int64_t e = 0; e < s.episodes; ++e) {
    const oracle::EpisodeDraw d = oracle::draw_episode(s, e);
    if (analytic != nullptr) {
      *analytic = AnalyticSchedule(PlaneGeometry{}, s.k, d.phase);
    }
    out.results.push_back(context.run(e, d.protocol, d.start, d.duration,
                                      sinks.trace.shard(0),
                                      &sinks.invariants, &sinks.ledger));
    registered.push_back(context.registered_satellites());
  }
  sinks.finish(out);
  return out;
}

TEST(EpisodeContext, HandlerRegistrationStopsAtTheSatelliteCount) {
  // Once every satellite of the schedule has a handler, arm_target skips
  // the horizon scan. The handler count must stop exactly there, early in
  // the run, and every output must equal a context whose schedule hides
  // its count and so scans every horizon.
  // Without Earth rotation every table satellite passes again inside the
  // run's episode windows (two iridium-next planes cover 45°N 10°E), so
  // the count is met; with rotation, satellites that pass only in the
  // table's margins never appear and the scan simply keeps running.
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  const GeoPoint target = GeoPoint::from_degrees(45.0, 10.0);
  ProtocolConfig protocol;
  const FrozenPassTable table(
      c, target,
      visibility_quantum(kSignalStart + c.max_period(), protocol.tau));
  const GeometricSchedule& geometric = table.schedule;
  AnalyticSchedule analytic(PlaneGeometry{}, 9, Duration::zero());

  for (const bool is_geometric : {true, false}) {
    const std::string label = is_geometric ? "iridium-next" : "analytic k=9";
    oracle::Sequence s;
    s.episodes = 600;
    s.episode_rng = Rng(20261021).fork(3);
    s.protocol.computation_cap = s.protocol.tg;
    if (is_geometric) {
      s.geometric = &geometric;
      s.phase_span = c.max_period();
      s.signal_start = TimePoint::at(kSignalStart);
    }
    const CoverageSchedule& counted =
        is_geometric ? static_cast<const CoverageSchedule&>(geometric)
                     : analytic;
    AnalyticSchedule* rephase = is_geometric ? nullptr : &analytic;
    const int count = counted.satellite_count();
    EXPECT_EQ(count, is_geometric ? table.cache.satellite_count() : 9)
        << label;
    const UncountedSchedule uncounted(counted);
    ASSERT_EQ(uncounted.satellite_count(), -1);

    std::vector<int> with_count;
    std::vector<int> scanning;
    const oracle::EpisodeOutputs got =
        run_recording_handlers(s, counted, rephase, with_count);
    const oracle::EpisodeOutputs want =
        run_recording_handlers(s, uncounted, rephase, scanning);
    oracle::expect_same_outputs(got, want, label);
    EXPECT_EQ(with_count, scanning) << label;
    const auto full = std::find(with_count.begin(), with_count.end(), count);
    ASSERT_NE(full, with_count.end()) << label << ": the count was never met";
    EXPECT_LT(full - with_count.begin(), s.episodes / 4) << label;
    EXPECT_EQ(*std::max_element(with_count.begin(), with_count.end()), count)
        << label;
  }
}

/// A trace without its leading `"shard":N,` fields: simulate_qos splits
/// episodes over shards, a sequence runs them all in one.
std::string without_shards(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    out.append("{").append(line, line.find(',') + 1).append("\n");
  }
  return out;
}

TEST(EpisodeContext, SimulateShardsMatchTheOracleAtAnyWorkerCount) {
  // 400 analytic k = 9 episodes: simulate_qos's trace and metrics bytes are
  // identical at jobs 1/4/8, and its shard-stripped trace is the oracle's
  // sequential trace on the same streams.
  for (const bool oaq : {true, false}) {
    oracle::Sequence s;
    s.oaq = oaq;
    s.episodes = 400;
    s.episode_rng = Rng(7).fork(3);
    s.protocol.computation_cap = s.protocol.tg;
    std::string serial_trace;
    std::string serial_metrics;
    for (const int jobs : {1, 4, 8}) {
      QosSimulationConfig cfg;
      cfg.k = s.k;
      cfg.episodes = s.episodes;
      cfg.seed = 7;
      cfg.opportunity_adaptive = oaq;
      cfg.protocol = s.protocol;
      cfg.jobs = jobs;
      TraceCollector trace;
      MetricsRegistry metrics;
      cfg.trace = &trace;
      cfg.metrics = &metrics;
      (void)simulate_qos(cfg);
      std::ostringstream ts;
      trace.write_jsonl(ts);
      std::ostringstream ms;
      metrics.write_json(ms);
      if (jobs == 1) {
        serial_trace = ts.str();
        serial_metrics = ms.str();
        EXPECT_NE(serial_trace.find("\"term_"), std::string::npos);
        EXPECT_EQ(without_shards(serial_trace),
                  without_shards(oracle::run_fresh(s).trace))
            << "oaq=" << oaq;
      } else {
        EXPECT_EQ(ts.str(), serial_trace) << "trace, jobs=" << jobs;
        EXPECT_EQ(ms.str(), serial_metrics) << "metrics, jobs=" << jobs;
      }
    }
  }
}

}  // namespace
}  // namespace oaq
