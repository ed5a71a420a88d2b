// SoA episode batching (ISSUE 6): the batch engine — the closed-form
// escape prologue in front of one reused EpisodeContext — must be an
// observationally perfect stand-in for the scalar per-episode oracle
// (identical results, trace bytes, ledger rows and audits), simulate_qos
// must stay byte-identical across worker counts, and the closed-form
// escape classifier must agree with TargetEpisode::arm() on every sampled
// (phase, duration) pair.
#include "oaq/batch_episode.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/distribution.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"
#include "scalar_oracle.hpp"

namespace oaq {
namespace {

/// The golden-trace protocol shape: k = 9, bounded computations, nonzero
/// messaging delays — the configuration whose DES path is busiest.
ProtocolConfig protocol_shape() {
  ProtocolConfig cfg;
  cfg.computation_cap = cfg.tg;
  return cfg;
}

oracle::Sequence analytic_sequence(std::int64_t episodes) {
  oracle::Sequence s;
  s.episodes = episodes;
  s.episode_rng = Rng(7).fork(3);
  s.protocol = protocol_shape();
  return s;
}

/// The batch engine over the sequence's episodes, in one call.
oracle::EpisodeOutputs run_batched(const oracle::Sequence& s) {
  oracle::EpisodeSinks sinks;
  oracle::EpisodeOutputs out;
  BatchEpisodeEngine engine(PlaneGeometry{}, s.k, s.protocol, s.oaq, *s.law,
                            s.episode_rng, s.signal_start, s.plan);
  engine.run(0, s.episodes, sinks.trace.shard(0), &sinks.invariants,
             [&](std::int64_t, const EpisodeResult& r) {
               out.results.push_back(r);
             },
             /*spans=*/nullptr, &sinks.ledger);
  sinks.finish(out);
  return out;
}

void expect_batched_matches_scalar(const oracle::Sequence& s,
                                   const std::string& label) {
  oracle::expect_same_outputs(run_batched(s), oracle::run_fresh(s), label);
}

/// Trace and metrics bytes of one simulate_qos run.
std::pair<std::string, std::string> simulate_bytes(int jobs, bool oaq) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 400;
  cfg.seed = 7;
  cfg.opportunity_adaptive = oaq;
  cfg.protocol = protocol_shape();
  cfg.jobs = jobs;
  cfg.queue_metrics = true;
  cfg.batch_metrics = true;
  TraceCollector trace;
  MetricsRegistry metrics;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  std::ostringstream ts;
  trace.write_jsonl(ts);
  std::ostringstream ms;
  metrics.write_json(ms);
  return {ts.str(), ms.str()};
}

TEST(BatchEpisode, BitwiseEqualAcrossWorkerCounts) {
  for (const bool oaq : {true, false}) {
    const auto serial = simulate_bytes(1, oaq);
    EXPECT_NE(serial.first.find("\"term_"), std::string::npos);
    for (const int jobs : {4, 8}) {
      const auto wide = simulate_bytes(jobs, oaq);
      EXPECT_EQ(wide.first, serial.first) << "trace, jobs=" << jobs;
      EXPECT_EQ(wide.second, serial.second) << "metrics, jobs=" << jobs;
    }
  }
}

TEST(BatchEpisode, BitwiseEqualUnderBaq) {
  oracle::Sequence s = analytic_sequence(400);
  s.oaq = false;
  expect_batched_matches_scalar(s, "baq");
  s.oaq = true;
  expect_batched_matches_scalar(s, "oaq");
}

TEST(BatchEpisode, BitwiseEqualAcrossDurationLaws) {
  // Eccentric duration laws stress the escape classifier: near-zero
  // deterministic signals escape almost always, heavy-tailed Weibull
  // signals almost never, and a uniform law straddles the pass length.
  const std::vector<
      std::pair<std::string, std::shared_ptr<const DurationDistribution>>>
      laws = {
          {"det_short", std::make_shared<DeterministicDuration>(
                            Duration::seconds(2.0))},
          {"weibull_heavy", std::make_shared<WeibullDuration>(
                                WeibullDuration::with_mean(
                                    0.6, Duration::minutes(2.0)))},
          {"uniform", std::make_shared<UniformDuration>(
                          Duration::seconds(5.0), Duration::minutes(10.0))},
      };
  for (const auto& [name, law] : laws) {
    oracle::Sequence s = analytic_sequence(300);
    s.law = law;
    expect_batched_matches_scalar(s, name);
  }
}

TEST(BatchEpisode, BitwiseEqualWithFaultPlanAttached) {
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(FaultPlan::delay_spike(3.0, Duration::minutes(1.0),
                                  Duration::minutes(5.0)));
  plan.add(FaultPlan::burst_loss(0.3, Duration::minutes(0.0),
                                 Duration::minutes(2.0)));
  oracle::Sequence s = analytic_sequence(300);
  s.plan = &plan;
  expect_batched_matches_scalar(s, "faults");
}

/// TargetEpisode::arm()'s detection decision, replayed over a materialized
/// pass list: any pass covering the signal start, else the first pass
/// starting inside [sig_start, sig_end).
bool arm_oracle(const PlaneGeometry& geometry, int k, Duration phase,
                TimePoint signal_start, Duration signal_duration,
                Duration tau) {
  const AnalyticSchedule schedule(geometry, k, phase);
  const Duration from = signal_start.since_origin() - Duration::minutes(20);
  const Duration to = signal_start.since_origin() +
                      std::min(signal_duration, Duration::minutes(30)) + tau +
                      Duration::minutes(60);
  std::vector<Pass> passes;
  schedule.passes_into(from, to, passes);
  const Duration sig_start = signal_start.since_origin();
  const Duration sig_end = sig_start + signal_duration;
  for (const auto& p : passes) {
    if (p.start <= sig_start && sig_start < p.end) return true;
  }
  for (const auto& p : passes) {
    if (p.start >= sig_start) return p.start < sig_end;
  }
  return false;
}

TEST(BatchEpisode, ClassifierAgreesWithArmOnSampledEpisodes) {
  const PlaneGeometry geometry;
  const TimePoint signal_start = TimePoint::at(Duration::minutes(60));
  Rng rng(20260808);
  for (const int k : {7, 9, 12}) {
    for (const double tau_min : {3.0, 5.0, 12.0}) {
      const Duration tau = Duration::minutes(tau_min);
      const Duration tr = geometry.tr(k);
      std::int64_t escaped = 0;
      for (int i = 0; i < 4000; ++i) {
        const Duration phase = rng.uniform(Duration::zero(), tr);
        // Log-uniform-ish spread from sub-second blips to multi-hour
        // signals; includes durations far longer than the 30-minute cap.
        const double mins = std::pow(10.0, rng.uniform(-1.5, 2.5));
        const Duration duration = Duration::minutes(mins);
        const bool fast = analytic_signal_detected(geometry, k, phase,
                                                   signal_start, duration, tau);
        const bool slow =
            arm_oracle(geometry, k, phase, signal_start, duration, tau);
        ASSERT_EQ(fast, slow) << "k=" << k << " tau=" << tau_min
                              << " phase_min=" << phase.to_minutes()
                              << " dur_min=" << mins;
        if (!fast) ++escaped;
      }
      // With coverage gaps (Tr > Tc) the sample must hit the escape path;
      // under continuous coverage (k = 12 here) nothing can escape.
      if (tr > geometry.tc()) {
        EXPECT_GT(escaped, 0) << "k=" << k << " tau=" << tau_min
                              << ": sample never exercised the escape path";
      } else {
        EXPECT_EQ(escaped, 0) << "k=" << k << " tau=" << tau_min;
      }
    }
  }
}

TEST(BatchEpisode, StatsPartitionEpisodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 257;  // deliberately not 8-aligned
  cfg.jobs = 1;
  cfg.batch_metrics = true;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  std::ostringstream os;
  metrics.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"sim.batch.episodes\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.batch.occupancy."), std::string::npos);
}

}  // namespace
}  // namespace oaq
