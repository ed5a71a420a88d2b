// Attribution ledger of simulate_qos: under a stochastic storm over
// reliable self-healing links, every row must reconcile exactly with the
// trace's attributed drop/retry/fault events — in analytic mode and in
// geometric mode alike — at any job count, while the sharpened
// per-episode I7 audit stays free of false violations.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "orbit/constellation_builder.hpp"

namespace oaq {
namespace {

/// Gilbert–Elliott loss inside every plane and alternating outages between
/// neighbouring planes over the protocol window. Clauses on planes an
/// analytic run never uses still activate, so the fault column is
/// exercised in both modes.
FaultPlan storm_plan(Duration window, int planes) {
  FaultPlan plan;
  for (int p = 0; p < planes; ++p) {
    plan.add(FaultPlan::ge_loss(p, p, 4.0, 2.0, 0.9, Duration::zero(),
                                window));
    plan.add(FaultPlan::outage_train(p, (p + 1) % planes, 1.0, 0.5,
                                     Duration::zero(), window));
  }
  return plan;
}

QosSimulationConfig storm_config(const FaultPlan& plan, std::uint64_t seed) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 300;
  cfg.seed = seed;
  cfg.fault_plan = &plan;
  cfg.check_invariants = true;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.protocol.crosslink_loss_probability = 0.25;
  cfg.protocol.reliable_links = true;
  cfg.protocol.self_healing_links = true;
  // One retry only, so exhausted-retry final drops actually occur.
  cfg.protocol.link_retry_limit = 1;
  return cfg;
}

struct StormRun {
  SimulatedQos qos;
  EpisodeLedger ledger;
  std::string trace_jsonl;
  std::uint64_t trace_dropped = 0;
};

StormRun run_storm(QosSimulationConfig cfg, int jobs) {
  cfg.jobs = jobs;
  TraceCollector trace;
  cfg.trace = &trace;
  StormRun run;
  cfg.ledger = &run.ledger;
  run.qos = simulate_qos(cfg);
  std::ostringstream os;
  trace.write_jsonl(os);
  run.trace_jsonl = os.str();
  run.trace_dropped = trace.total_dropped();
  return run;
}

std::string ledger_json(const EpisodeLedger& ledger) {
  std::ostringstream os;
  ledger.write_json(os);
  return os.str();
}

/// Copy of `row` restricted to the columns the trace can witness: a final
/// drop is just kXlinkDrop (no exhausted-retry marker), and re-routes and
/// probations have no trace event of their own.
LedgerRow comparable(const LedgerRow& row) {
  LedgerRow out = row;
  out.retries_exhausted = 0;
  out.reroutes = 0;
  out.probations = 0;
  return out;
}

/// Ledger rebuilt from the trace's attributed xlink/fault events: the
/// independent witness the real ledger must match row for row.
EpisodeLedger ledger_from_trace(const std::string& jsonl) {
  EpisodeLedger witness;
  std::istringstream is(jsonl);
  std::string line;
  while (std::getline(is, line)) {
    const auto parsed = parse_trace_line(line);
    if (!parsed) continue;
    const TraceEvent& ev = parsed->event;
    if (ev.type == TraceEventType::kXlinkDrop) {
      witness.record_drop(ev.episode, static_cast<DropReason>(ev.a));
    } else if (ev.type == TraceEventType::kXlinkRetry) {
      witness.record_retry(ev.episode);
    } else if (is_fault(ev.type) && ev.a > 0) {
      witness.record_fault(ev.episode);
    }
  }
  return witness;
}

/// `chains`: the run coordinates over crosslinks, so drop and retry
/// columns must be exercised too (geometric presets see the target with
/// simultaneous coverage, so only their fault column fills).
void expect_reconciled(const QosSimulationConfig& cfg, bool chains,
                       const std::string& label) {
  std::string first_ledger;
  for (const int jobs : {1, 4}) {
    const StormRun run = run_storm(cfg, jobs);
    const std::string where = label + " jobs " + std::to_string(jobs);
    ASSERT_EQ(run.trace_dropped, 0u) << where << ": witness incomplete";
    const LedgerRow totals = run.ledger.totals();
    if (chains) {
      EXPECT_GT(totals.drops(), 0) << where;
      EXPECT_GT(totals.retries, 0) << where;
    }
    EXPECT_GT(totals.faults, 0) << where;

    EpisodeLedger witness = ledger_from_trace(run.trace_jsonl);
    witness.reserve(run.ledger.size());
    ASSERT_EQ(run.ledger.size(), witness.size()) << where;
    for (std::size_t ep = 0; ep < run.ledger.size(); ++ep) {
      EXPECT_EQ(comparable(run.ledger.row(static_cast<std::int64_t>(ep))),
                comparable(witness.row(static_cast<std::int64_t>(ep))))
          << where << " episode " << ep;
    }
    // Episode-anchored plans replay per episode: nothing may leak into
    // the global row, which campaigns reserve for origin-anchored clauses.
    EXPECT_FALSE(run.ledger.global_row().any()) << where;
    EXPECT_EQ(run.qos.invariant_violations, 0)
        << where << ": "
        << (run.qos.invariant_samples.empty()
                ? std::string("(no samples)")
                : run.qos.invariant_samples.front());

    const std::string bytes = ledger_json(run.ledger);
    if (jobs == 1) {
      first_ledger = bytes;
    } else {
      EXPECT_EQ(bytes, first_ledger) << where << ": ledger bytes drifted";
    }
  }
}

TEST(SimulateLedger, AnalyticRowsReconcileWithTraceWitness) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const FaultPlan plan = storm_plan(Duration::minutes(5), 1);
    expect_reconciled(storm_config(plan, seed), /*chains=*/true,
                      "analytic seed " + std::to_string(seed));
  }
}

TEST(SimulateLedger, GeometricRowsReconcileWithTraceWitness) {
  const Constellation c = ConstellationBuilder::preset("iridium-next").build();
  const FaultPlan plan = storm_plan(Duration::minutes(5), c.num_planes());
  QosSimulationConfig cfg = storm_config(plan, 3);
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = 200;
  expect_reconciled(cfg, /*chains=*/false, "iridium-next");
}

}  // namespace
}  // namespace oaq
