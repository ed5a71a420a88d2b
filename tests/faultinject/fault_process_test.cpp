// Stochastic fault processes (ISSUE 10 tentpole): round-trip of the
// generative clause kinds through the on-disk plan format, parse
// diagnostics, deterministic expansion of Gilbert–Elliott / outage-train /
// lifecycle sample paths, CTMC cross-validation of the lifecycle renewal
// process, the byte-identity contract of stochastic episodes across
// worker counts, and health-aware chain re-routing
// around a demoted link.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/ctmc.hpp"
#include "fault/plan.hpp"
#include "fault/process.hpp"
#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"

namespace oaq {
namespace {

FaultPlan generative_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 1, 4.0, 2.0, 0.8, Duration::minutes(0),
                              Duration::minutes(8)));
  plan.add(FaultPlan::outage_train(1, 2, 1.5, 0.5, Duration::minutes(1),
                                   Duration::minutes(7)));
  plan.add(FaultPlan::sat_lifecycle({2, 3}, 0.2, 1.0, Duration::minutes(0),
                                    Duration::minutes(30)));
  return plan;
}

std::string rendered(const FaultPlan& plan) {
  std::ostringstream os;
  write_fault_plan(plan, os);
  return os.str();
}

TEST(FaultProcessPlan, StochasticKindsRoundTripThroughTheFileFormat) {
  FaultPlan plan = generative_plan();
  plan.add(FaultPlan::ge_loss(0, 1, 3.0, 1.0, 1.0, Duration::minutes(0),
                              Duration::minutes(5), /*shell=*/1));
  std::istringstream is(rendered(plan));
  const FaultPlan back = parse_fault_plan(is);
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FaultClause& want = plan.clauses()[i];
    const FaultClause& got = back.clauses()[i];
    EXPECT_EQ(got.kind, want.kind) << "clause " << i;
    EXPECT_EQ(got.plane_a, want.plane_a) << "clause " << i;
    EXPECT_EQ(got.plane_b, want.plane_b) << "clause " << i;
    EXPECT_EQ(got.satellite, want.satellite) << "clause " << i;
    EXPECT_DOUBLE_EQ(got.value, want.value) << "clause " << i;
    EXPECT_DOUBLE_EQ(got.param_a, want.param_a) << "clause " << i;
    EXPECT_DOUBLE_EQ(got.param_b, want.param_b) << "clause " << i;
    EXPECT_EQ(got.shell, want.shell) << "clause " << i;
    EXPECT_DOUBLE_EQ(got.window_start.to_seconds(),
                     want.window_start.to_seconds())
        << "clause " << i;
    EXPECT_DOUBLE_EQ(got.window_end.to_seconds(), want.window_end.to_seconds())
        << "clause " << i;
  }
}

TEST(FaultProcessPlan, ParseErrorsNameTheLineAndToken) {
  std::istringstream is(
      "# stochastic storm\n"
      "ge_loss 0 1 bogus 2.0 0.8 0 8\n");
  try {
    (void)parse_fault_plan(is);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
  }
}

TEST(FaultProcessPlan, HorizonRejectsClausesThatCouldNeverFire) {
  // A process whose window opens at/after the episode horizon would never
  // take effect — the horizon-aware parser names both times in the error.
  const std::string text = "outage_train 0 1 1.0 0.5 10 20\n";
  {
    std::istringstream is(text);
    EXPECT_NO_THROW((void)parse_fault_plan(is, Duration::infinity()));
  }
  std::istringstream is(text);
  try {
    (void)parse_fault_plan(is, Duration::minutes(5));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("horizon"), std::string::npos) << what;
  }
}

TEST(FaultProcessExpansion, DeterministicInRngAndAcrossInstances) {
  const FaultPlan plan = generative_plan();
  ASSERT_TRUE(has_stochastic_clauses(plan));
  FaultProcessExpander a;
  FaultProcessExpander b;
  const std::string first = rendered(a.expand(plan, Rng(42).fork(7)));
  ASSERT_FALSE(first.empty());
  // Same expander (reused buffers), fresh expander, different stream.
  EXPECT_EQ(rendered(a.expand(plan, Rng(42).fork(7))), first);
  EXPECT_EQ(rendered(b.expand(plan, Rng(42).fork(7))), first);
  EXPECT_NE(rendered(b.expand(plan, Rng(43).fork(7))), first);
  EXPECT_EQ(a.stats().expansions, 2u);
  EXPECT_EQ(a.stats().stochastic_clauses, 2u * plan.size());
}

TEST(FaultProcessExpansion, ScriptedClausesPassThroughUnchanged) {
  FaultPlan plan;
  plan.add(FaultPlan::delay_spike(3.0, Duration::minutes(1),
                                  Duration::minutes(4)));
  plan.add(FaultPlan::ge_loss(0, 1, 4.0, 2.0, 1.0, Duration::minutes(0),
                              Duration::minutes(8)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(0),
                                 Duration::minutes(2)));
  FaultProcessExpander ex;
  const FaultPlan& out = ex.expand(plan, Rng(9));
  ASSERT_GE(out.size(), 3u);
  // Generated clauses replace their generative clause in place, so the
  // scripted neighbours keep their positions around the expansion.
  EXPECT_EQ(out.clauses().front().kind, FaultClauseKind::kDelaySpike);
  EXPECT_EQ(out.clauses().back().kind, FaultClauseKind::kBurstLoss);
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_EQ(out.clauses()[i].kind, FaultClauseKind::kLinkLoss);
  }
  EXPECT_FALSE(has_stochastic_clauses(out));
}

TEST(FaultProcessExpansion, EmittedWindowsStayInsideTheClauseWindow) {
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 1, 8.0, 4.0, 1.0, Duration::minutes(2),
                              Duration::minutes(6)));
  plan.add(FaultPlan::outage_train(2, 3, 0.3, 0.2, Duration::minutes(2),
                                   Duration::minutes(6)));
  FaultProcessExpander ex;
  const FaultPlan& out = ex.expand(plan, Rng(5));
  ASSERT_FALSE(out.empty());
  for (const FaultClause& c : out.clauses()) {
    ASSERT_TRUE(c.kind == FaultClauseKind::kLinkLoss ||
                c.kind == FaultClauseKind::kLinkOutage);
    EXPECT_GE(c.window_start.to_minutes(), 2.0);
    EXPECT_LE(c.window_end.to_minutes(), 6.0);
    EXPECT_LT(c.window_start.to_seconds(), c.window_end.to_seconds());
    if (c.kind == FaultClauseKind::kLinkLoss) {
      EXPECT_DOUBLE_EQ(c.value, 1.0);
    }
  }
  EXPECT_EQ(ex.stats().stochastic_clauses, 2u);
  EXPECT_EQ(ex.stats().emitted_clauses, out.size());
  EXPECT_EQ(ex.stats().truncated_clauses, 0u);
}

TEST(FaultProcessExpansion, LifecyclePairsStayMatchedAndTagged) {
  FaultPlan plan;
  plan.add(FaultPlan::sat_lifecycle({1, 4}, 0.5, 2.0, Duration::minutes(0),
                                    Duration::minutes(60)));
  FaultProcessExpander ex;
  const FaultPlan& out = ex.expand(plan, Rng(21));
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.size() % 2, 0u);  // every death has its spare activation
  double prev_min = 0.0;
  for (std::size_t i = 0; i < out.size(); i += 2) {
    const FaultClause& death = out.clauses()[i];
    const FaultClause& spare = out.clauses()[i + 1];
    EXPECT_EQ(death.kind, FaultClauseKind::kFailSilent);
    EXPECT_EQ(spare.kind, FaultClauseKind::kRecover);
    EXPECT_EQ(death.origin, FaultClauseOrigin::kLifecycle);
    EXPECT_EQ(spare.origin, FaultClauseOrigin::kLifecycle);
    EXPECT_EQ(death.satellite, (SatelliteId{1, 4}));
    EXPECT_EQ(spare.satellite, (SatelliteId{1, 4}));
    // Deaths land inside the window (the spare activation may exceed it —
    // a pair is never split); renewals are chronological.
    EXPECT_LT(death.at.to_minutes(), 60.0);
    EXPECT_GE(death.at.to_minutes(), prev_min);
    EXPECT_GT(spare.at.to_seconds(), death.at.to_seconds());
    prev_min = spare.at.to_minutes();
  }
}

TEST(FaultProcessExpansion, LifecycleDeadFractionMatchesTheCtmc) {
  // The sat_lifecycle renewal process is the two-state availability CTMC
  // (alive --λ--> dead --μ--> alive): the long-run dead fraction of the
  // expanded sample path must match the chain's stationary solution
  // λ/(λ+μ) computed by the uniformization solver.
  const double death_rate = 0.2;       // λ, per minute
  const double spare_mean_min = 1.0;   // 1/μ
  const double horizon_min = 2400.0;   // ~400 renewals, well under the cap
  FaultPlan plan;
  plan.add(FaultPlan::sat_lifecycle({0, 0}, death_rate, spare_mean_min,
                                    Duration::zero(),
                                    Duration::minutes(horizon_min)));
  FaultProcessExpander ex;
  const FaultPlan& out = ex.expand(plan, Rng(1234));
  ASSERT_EQ(ex.stats().truncated_clauses, 0u);
  ASSERT_GE(out.size(), 200u);
  double dead_min = 0.0;
  for (std::size_t i = 0; i + 1 < out.size(); i += 2) {
    const double down = out.clauses()[i].at.to_minutes();
    const double up =
        std::min(out.clauses()[i + 1].at.to_minutes(), horizon_min);
    if (up > down) dead_min += up - down;
  }
  const double empirical = dead_min / horizon_min;

  Ctmc chain(2);
  chain.add_transition(0, 1, death_rate);          // alive → dead
  chain.add_transition(1, 0, 1.0 / spare_mean_min);  // spare activation
  const std::vector<double> pi = chain.steady_state();
  ASSERT_EQ(pi.size(), 2u);
  EXPECT_NEAR(pi[1], death_rate / (death_rate + 1.0 / spare_mean_min), 1e-9);
  EXPECT_NEAR(empirical, pi[1], 0.03);
}

TEST(FaultProcessExpansion, DegenerateRatesTruncateAtTheCap) {
  // Sub-millisecond dwells over an hour would emit tens of thousands of
  // windows; the expander truncates the sample path at the per-clause cap
  // instead of exhausting memory, and says so in its stats.
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 1, 2000.0, 2000.0, 1.0, Duration::zero(),
                              Duration::minutes(60)));
  FaultProcessExpander ex;
  const FaultPlan& out = ex.expand(plan, Rng(3));
  EXPECT_EQ(out.size(), static_cast<std::size_t>(
                            FaultProcessExpander::kMaxIntervalsPerClause));
  EXPECT_EQ(ex.stats().truncated_clauses, 1u);
}

// --- Episode-level determinism of the stochastic path. -------------------

QosSimulationConfig storm_config(int jobs) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 400;
  cfg.seed = 97;
  cfg.jobs = jobs;
  cfg.protocol.self_healing_links = true;
  cfg.protocol.link_health_alpha = 0.45;
  cfg.protocol.reliable_links = true;
  cfg.check_invariants = true;
  return cfg;
}

FaultPlan storm_process_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::ge_loss(0, 0, 4.0, 2.0, 1.0, Duration::zero(),
                              Duration::minutes(8)));
  plan.add(FaultPlan::outage_train(0, 0, 1.0, 0.5, Duration::zero(),
                                   Duration::minutes(8)));
  plan.add(FaultPlan::sat_lifecycle({0, 2}, 0.05, 1.0, Duration::zero(),
                                    Duration::minutes(8)));
  return plan;
}

struct Rendered {
  std::string trace;
  std::string metrics;
  SimulatedQos qos;
};

Rendered render(QosSimulationConfig cfg) {
  TraceCollector trace;
  MetricsRegistry metrics;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  Rendered out;
  out.qos = simulate_qos(cfg);
  std::ostringstream ts;
  trace.write_jsonl(ts);
  out.trace = ts.str();
  std::ostringstream ms;
  metrics.write_json(ms);
  out.metrics = ms.str();
  return out;
}

TEST(FaultProcessDeterminism, StochasticStormBitIdenticalAcrossJobs) {
  const FaultPlan plan = storm_process_plan();
  QosSimulationConfig serial = storm_config(1);
  serial.fault_plan = &plan;
  const Rendered golden = render(serial);
  ASSERT_FALSE(golden.trace.empty());
  EXPECT_EQ(golden.qos.invariant_violations, 0);
  for (const int jobs : {4, 8}) {
    QosSimulationConfig cfg = storm_config(jobs);
    cfg.fault_plan = &plan;
    const Rendered wide = render(cfg);
    EXPECT_EQ(wide.trace, golden.trace) << "trace drifted at jobs=" << jobs;
    EXPECT_EQ(wide.metrics, golden.metrics)
        << "metrics drifted at jobs=" << jobs;
  }
}

TEST(FaultProcessDeterminism, InertStochasticClausesDoNotPerturbProtocolDraws) {
  // Processes confined to planes the single-plane analytic episode never
  // crosses: expansion consumes only the reserved fault fork, so the
  // protocol outcome must be bit-identical to the unfaulted run.
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 500;
  cfg.seed = 97;
  cfg.jobs = 1;
  const SimulatedQos baseline = simulate_qos(cfg);

  FaultPlan inert;
  inert.add(FaultPlan::ge_loss(7, 8, 4.0, 2.0, 1.0, Duration::zero(),
                               Duration::minutes(8)));
  inert.add(FaultPlan::outage_train(8, 9, 0.5, 0.5, Duration::zero(),
                                    Duration::minutes(8)));
  inert.add(FaultPlan::sat_lifecycle({7, 0}, 0.2, 1.0, Duration::zero(),
                                     Duration::minutes(8)));
  cfg.fault_plan = &inert;
  const SimulatedQos faulted = simulate_qos(cfg);

  EXPECT_EQ(faulted.level_pmf.weights(), baseline.level_pmf.weights());
  EXPECT_EQ(faulted.duplicates, baseline.duplicates);
  EXPECT_EQ(faulted.unresolved, baseline.unresolved);
  EXPECT_EQ(faulted.untimely, baseline.untimely);
  EXPECT_EQ(faulted.mean_chain_length, baseline.mean_chain_length);
}

// --- Health-aware re-routing around a demoted link. ----------------------

/// Hand-scripted multi-plane pass horizon: the analytic schedule is
/// single-plane, so re-routing (which skips a whole demoted plane pair)
/// needs passes from several planes.
class ScriptedSchedule final : public CoverageSchedule {
 public:
  explicit ScriptedSchedule(std::vector<Pass> passes)
      : passes_(std::move(passes)) {}

  void passes_into(Duration from, Duration to,
                   std::vector<Pass>& out) const override {
    out.clear();
    for (const Pass& p : passes_) {
      if (p.end >= from && p.start <= to) out.push_back(p);
    }
  }

  [[nodiscard]] int satellite_count() const override {
    std::set<SatelliteId> ids;
    for (const Pass& p : passes_) ids.insert(p.satellite);
    return static_cast<int>(ids.size());
  }

 private:
  std::vector<Pass> passes_;
};

TEST(FaultProcessReroute, DemotedLinkIsSkippedForAHealthyPlane) {
  // Detector on plane 0; the natural chain successor is plane 1 (two
  // passes), with a plane-2 pass behind them. Plane 0 <-> 1 is fully
  // lossy, so the first coordination request fails, demotes the link
  // (alpha 0.9: one failure takes the EWMA to 0.1 < 0.5), and the
  // re-route scan must skip BOTH plane-1 passes and settle on plane 2.
  const ScriptedSchedule schedule({
      {{0, 0}, Duration::minutes(0.0), Duration::minutes(1.0)},
      {{1, 0}, Duration::minutes(1.5), Duration::minutes(2.5)},
      {{1, 1}, Duration::minutes(3.0), Duration::minutes(4.0)},
      {{2, 0}, Duration::minutes(4.5), Duration::minutes(5.5)},
  });
  ProtocolConfig cfg;
  cfg.tau = Duration::minutes(10);
  cfg.self_healing_links = true;
  cfg.link_health_alpha = 0.9;
  // Reliable links matter here: a best-effort loss fails synchronously
  // inside send(), before the requester arms its waiting flag, so the
  // drop hook would ignore it. With retries the failure surfaces later,
  // through the DES — the path production re-routes actually take.
  cfg.reliable_links = true;

  FaultPlan plan;
  plan.add(FaultPlan::link_loss(0, 1, 1.0, Duration::zero(),
                                Duration::minutes(9)));
  EpisodeContext context(schedule, cfg, /*opportunity_adaptive=*/true, &plan);
  const EpisodeResult& result =
      context.run(0, Rng(77), TimePoint::at(Duration::minutes(0.2)),
                  Duration::minutes(30));
  EXPECT_TRUE(result.detected);
  EXPECT_GE(result.reroutes, 1);
  EXPECT_GE(result.telemetry.links_demoted, 1u);
  EXPECT_GE(result.coordination_requests, 2);
  EXPECT_TRUE(result.alert_delivered);
  bool plane2_joined = false;
  for (const SatelliteId& sat : result.participants) {
    plane2_joined |= sat.plane == 2;
  }
  EXPECT_TRUE(plane2_joined);
}

}  // namespace
}  // namespace oaq
