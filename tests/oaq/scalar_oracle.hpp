// Helpers for the scalar-oracle suites: an episode sequence run either
// through a fresh EpisodeContext per episode (the oracle) or through one
// reused EpisodeContext, on the per-index streams simulate_qos forks —
// episode_rng.fork(e).fork(1) phase, .fork(2) duration, .fork(3) protocol —
// with trace, ledger and invariant sinks rendered to comparable bytes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/distribution.hpp"
#include "common/rng.hpp"
#include "fault/invariants.hpp"
#include "oaq/episode.hpp"
#include "oaq/schedule.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace oaq::oracle {

/// Everything one episode sequence leaves behind.
struct EpisodeOutputs {
  std::vector<EpisodeResult> results;
  std::string trace;   ///< JSONL bytes of the sequential trace stream
  std::string ledger;  ///< JSON bytes of the attribution ledger
  std::uint64_t violations = 0;
};

/// One episode sequence. Analytic mode (`geometric` null) re-phases a
/// k-satellite plane per episode and starts every signal at
/// `signal_start`; geometric mode keeps the schedule and jitters the start
/// by the phase instead, exactly like simulate_qos.
struct Sequence {
  const CoverageSchedule* geometric = nullptr;
  int k = 9;
  Duration phase_span = PlaneGeometry{}.tr(9);
  TimePoint signal_start = TimePoint::at(Duration::minutes(60));
  ProtocolConfig protocol;
  bool oaq = true;
  const FaultPlan* plan = nullptr;
  std::int64_t episodes = 2000;
  Rng episode_rng = Rng(1).fork(3);
  std::shared_ptr<const DurationDistribution> law =
      std::make_shared<ExponentialDuration>(Rate::per_minute(0.5));
};

/// One episode's sampled inputs, drawn exactly as simulate_qos draws them.
struct EpisodeDraw {
  Duration phase;
  Duration duration;
  Rng protocol;
  TimePoint start;
};

inline EpisodeDraw draw_episode(const Sequence& s, std::int64_t e) {
  const Rng ep = s.episode_rng.fork(static_cast<std::uint64_t>(e));
  Rng phase_rng = ep.fork(1);
  Rng duration_rng = ep.fork(2);
  const Duration phase = phase_rng.uniform(Duration::zero(), s.phase_span);
  const Duration duration = s.law->sample(duration_rng);
  return {phase, duration, ep.fork(3),
          s.geometric != nullptr ? s.signal_start + phase : s.signal_start};
}

/// Sinks of one episode sequence; `finish` renders them into `out`.
struct EpisodeSinks {
  TraceCollector trace{1 << 20};
  EpisodeLedger ledger;
  InvariantChecker invariants;

  EpisodeSinks() { trace.prepare(1); }

  void finish(EpisodeOutputs& out) const {
    std::ostringstream ts;
    trace.write_jsonl(ts);
    out.trace = ts.str();
    std::ostringstream ls;
    ledger.write_json(ls);
    out.ledger = ls.str();
    out.violations = invariants.violations();
  }
};

/// The sequence through a fresh EpisodeContext per episode (`fresh`, the
/// oracle) or through one context reused for every episode.
inline EpisodeOutputs run_sequence(const Sequence& s, bool fresh) {
  EpisodeSinks sinks;
  AnalyticSchedule analytic(PlaneGeometry{}, s.k, Duration::zero());
  const CoverageSchedule& schedule =
      s.geometric != nullptr ? *s.geometric
                             : static_cast<const CoverageSchedule&>(analytic);
  std::optional<EpisodeContext> context;
  EpisodeOutputs out;
  for (std::int64_t e = 0; e < s.episodes; ++e) {
    const EpisodeDraw d = draw_episode(s, e);
    if (s.geometric == nullptr) {
      analytic = AnalyticSchedule(PlaneGeometry{}, s.k, d.phase);
    }
    if (fresh || !context) {
      context.emplace(schedule, s.protocol, s.oaq, s.plan);
    }
    out.results.push_back(context->run(e, d.protocol, d.start, d.duration,
                                       sinks.trace.shard(0),
                                       &sinks.invariants, &sinks.ledger));
  }
  sinks.finish(out);
  return out;
}

/// The oracle: a fresh EpisodeContext per episode.
inline EpisodeOutputs run_fresh(const Sequence& s) {
  return run_sequence(s, /*fresh=*/true);
}

/// One EpisodeContext reused for every episode of the sequence.
inline EpisodeOutputs run_reused(const Sequence& s) {
  return run_sequence(s, /*fresh=*/false);
}

/// Field-for-field identity of two sequences' outputs.
inline void expect_same_outputs(const EpisodeOutputs& got,
                                const EpisodeOutputs& want,
                                const std::string& label) {
  ASSERT_EQ(got.results.size(), want.results.size()) << label;
  for (std::size_t e = 0; e < want.results.size(); ++e) {
    ASSERT_TRUE(got.results[e] == want.results[e])
        << label << ": episode " << e << " differs";
  }
  EXPECT_EQ(got.trace, want.trace) << label << ": trace bytes drifted";
  EXPECT_EQ(got.ledger, want.ledger) << label << ": ledger rows drifted";
  EXPECT_EQ(got.violations, want.violations) << label;
}

}  // namespace oaq::oracle
