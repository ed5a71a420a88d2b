// Golden-file equivalence with the seed DES kernel (ISSUE 3).
//
// tests/data/golden_* were captured from the pre-pooling kernel with the
// oaqctl invocations documented in tests/data/README.md; the metrics
// goldens hold the library-default key set of the configurations below
// (tests/data/README.md lists what today's oaqctl adds). The pooled
// kernel, flat network dispatch, and any future hot-path change must
// reproduce those bytes exactly — trace JSONL and metrics JSON are fully
// deterministic for a fixed seed at any worker count. A mismatch here
// means a semantic change to event ordering, RNG stream consumption, or
// accounting, not a style regression.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"

namespace oaq {
namespace {

std::string read_file(const std::string& name) {
  const std::string path = std::string(OAQ_TEST_DATA_DIR) + "/" + name;
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The configuration `oaqctl simulate --k 9 --episodes 200 --seed 7` builds.
QosSimulationConfig golden_simulate_config() {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 200;
  cfg.seed = 7;
  cfg.mu = Rate::per_minute(0.5);
  cfg.opportunity_adaptive = true;
  cfg.protocol.tau = Duration::minutes(5.0);
  cfg.protocol.delta = Duration::seconds(12.0);
  cfg.protocol.tg = Duration::seconds(6.0);
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

/// The configuration `oaqctl campaign --k 9 --per-hour 5 --hours 10
/// --seed 3 --replications 4` builds.
CampaignConfig golden_campaign_config() {
  CampaignConfig cfg;
  cfg.k = 9;
  cfg.signal_arrival_rate = Rate::per_hour(5.0);
  cfg.horizon = Duration::hours(10.0);
  cfg.protocol.tau = Duration::minutes(5.0);
  cfg.protocol.nu = Rate::per_minute(30.0);
  cfg.protocol.computation_cap = Duration::seconds(6.0);
  cfg.compute_contention = true;
  cfg.seed = 3;
  cfg.replications = 4;
  return cfg;
}

TEST(KernelGolden, SimulateTraceAndMetricsMatchSeedKernel) {
  const std::string golden_trace = read_file("golden_simulate_trace.jsonl");
  const std::string golden_metrics = read_file("golden_simulate_metrics.json");
  ASSERT_FALSE(golden_trace.empty());
  for (const int jobs : {1, 4, 8}) {
    QosSimulationConfig cfg = golden_simulate_config();
    cfg.jobs = jobs;
    TraceCollector trace;
    MetricsRegistry metrics;
    cfg.trace = &trace;
    cfg.metrics = &metrics;
    (void)simulate_qos(cfg);
    std::ostringstream ts;
    trace.write_jsonl(ts);
    EXPECT_EQ(ts.str(), golden_trace) << "trace drifted at jobs=" << jobs;
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";  // oaqctl terminates the file with a newline
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
  }
}

TEST(KernelGolden, CampaignTraceAndMetricsMatchSeedKernel) {
  const std::string golden_trace = read_file("golden_campaign_trace.jsonl");
  const std::string golden_metrics = read_file("golden_campaign_metrics.json");
  ASSERT_FALSE(golden_trace.empty());
  for (const int jobs : {1, 4}) {
    CampaignConfig cfg = golden_campaign_config();
    cfg.jobs = jobs;
    TraceCollector trace;
    MetricsRegistry metrics;
    cfg.trace = &trace;
    cfg.metrics = &metrics;
    (void)run_campaign(cfg);
    std::ostringstream ts;
    trace.write_jsonl(ts);
    EXPECT_EQ(ts.str(), golden_trace) << "trace drifted at jobs=" << jobs;
    std::ostringstream ms;
    metrics.write_json(ms);
    ms << "\n";
    EXPECT_EQ(ms.str(), golden_metrics) << "metrics drifted at jobs=" << jobs;
  }
}

}  // namespace
}  // namespace oaq
