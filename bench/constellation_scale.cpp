// Mega-constellation scale-out harness (ISSUE 8 tentpole): episodes/sec
// and peak RSS across the Walker preset ladder {reference 7×14,
// iridium-next 6×11, oneweb 18×36, starlink 72×22} at jobs 1/4/8; the
// reused vs fresh-per-episode EpisodeContext A/B at the 72×22 design
// point (JSON keys "pooled" and "naive"); the reused context's
// steady-state allocation count (hence alloc_counter); and the warm
// SharedVisibilityCache hit accounting. Prints a human table plus a
// BENCH_JSON line (aggregated into BENCH_8.json by tools/run_bench.sh).
//
//   constellation_scale [episodes]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/distribution.hpp"
#include "common/table.hpp"
#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/shared_visibility_cache.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linux ru_maxrss is KiB. Monotonic over the process lifetime, so the
/// scale sweep runs presets in increasing-size order: each row's value is
/// the high-water mark up to and including that preset.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The paper's geometric protocol shape, OAQ, bounded computations —
/// pointed at whichever constellation is under test.
QosSimulationConfig scale_config(const Constellation& c, int episodes) {
  QosSimulationConfig cfg;
  cfg.constellation = &c;
  cfg.target = GeoPoint{0.0, 0.0};
  cfg.episodes = episodes;
  cfg.seed = 11;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  return cfg;
}

/// The frozen visibility cache simulate_qos seeds for `cfg` over `c`.
SharedVisibilityCache seeded_cache(const Constellation& c,
                                   const QosSimulationConfig& cfg) {
  const Duration quantum =
      visibility_quantum(kSignalStart + c.max_period(), cfg.protocol.tau);
  SharedVisibilityCache cache(c, cfg.earth_rotation, {quantum});
  cache.seed_window(cfg.target, Duration::zero(), quantum);
  cache.freeze();
  return cache;
}

double episodes_per_sec(const QosSimulationConfig& base, int jobs) {
  QosSimulationConfig cfg = base;
  cfg.jobs = jobs;
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(cfg.episodes) / elapsed;
}

/// Drive one reused EpisodeContext directly over a seeded, frozen
/// visibility cache, feeding it the exact per-episode streams simulate_qos
/// forks: a warm-up block grows every reusable buffer (event slab,
/// envelope pool, dense per-node tables, lazily registered handlers,
/// episode storage and pass buffer), then the allocation delta over the
/// following episodes must be zero.
std::uint64_t reused_steady_state_allocs(const Constellation& c,
                                         std::int64_t warm,
                                         std::int64_t total) {
  const QosSimulationConfig cfg = scale_config(c, 1);
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  const SharedVisibilityCache cache = seeded_cache(c, cfg);
  const GeometricSchedule schedule(cache);
  EpisodeContext context(schedule, cfg.protocol, cfg.opportunity_adaptive);
  const ExponentialDuration duration_law(cfg.mu);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  std::uint64_t level_sink = 0;
  const auto run_one = [&](std::int64_t e) {
    const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
    Rng phase_rng = ep.fork(1);
    Rng duration_rng = ep.fork(2);
    const Duration phase =
        phase_rng.uniform(Duration::zero(), c.max_period());
    const Duration duration = duration_law.sample(duration_rng);
    const EpisodeResult& r =
        context.run(e, ep.fork(3), signal_start + phase, duration);
    level_sink += static_cast<std::uint64_t>(to_int(r.level));
  };
  for (std::int64_t e = 0; e < warm; ++e) run_one(e);
  const std::uint64_t allocs_before = benchutil::allocation_count();
  for (std::int64_t e = warm; e < total; ++e) run_one(e);
  if (level_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  return benchutil::allocation_count() - allocs_before;
}

struct AbThroughput {
  double naive_eps = 0.0;
  double pooled_eps = 0.0;
};

/// Reused-vs-fresh per-episode throughput, both driven directly over one
/// seeded, frozen visibility cache so the timed regions contain pure episode
/// work: the naive path constructs a fresh EpisodeContext (simulator,
/// network, handler registrations) per episode; the pooled path resets
/// one reused context. Measuring this way — instead of subtracting two
/// full simulate_qos runs — keeps the one-time visibility seed sweep out
/// of the comparison entirely, so the recorded numbers are stable enough
/// to trend-gate.
AbThroughput pooled_vs_naive(const Constellation& c, std::int64_t naive_n,
                             std::int64_t pooled_n) {
  const QosSimulationConfig cfg = scale_config(c, 1);
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  const SharedVisibilityCache cache = seeded_cache(c, cfg);
  const GeometricSchedule schedule(cache);
  EpisodeContext context(schedule, cfg.protocol, cfg.opportunity_adaptive);
  const ExponentialDuration duration_law(cfg.mu);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  std::uint64_t level_sink = 0;
  const auto episode_inputs = [&](std::int64_t e, Duration& phase,
                                  Duration& duration) {
    const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
    Rng phase_rng = ep.fork(1);
    Rng duration_rng = ep.fork(2);
    phase = phase_rng.uniform(Duration::zero(), c.max_period());
    duration = duration_law.sample(duration_rng);
    return ep.fork(3);
  };
  const auto run_naive = [&](std::int64_t e) {
    Duration phase, duration;
    const Rng protocol = episode_inputs(e, phase, duration);
    EpisodeContext fresh(schedule, cfg.protocol, cfg.opportunity_adaptive);
    const EpisodeResult& r =
        fresh.run(e, protocol, signal_start + phase, duration);
    level_sink += static_cast<std::uint64_t>(to_int(r.level));
  };
  const auto run_pooled = [&](std::int64_t e) {
    Duration phase, duration;
    Rng protocol = episode_inputs(e, phase, duration);
    const EpisodeResult& r =
        context.run(e, protocol, signal_start + phase, duration);
    level_sink += static_cast<std::uint64_t>(to_int(r.level));
  };
  // Warm-up: grows every reused buffer to steady state.
  for (std::int64_t e = 0; e < 64; ++e) {
    run_naive(e);
    run_pooled(e);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_naive = kInf, t_pooled = kInf;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    for (std::int64_t e = 0; e < naive_n; ++e) run_naive(e);
    t_naive = std::min(t_naive, seconds_since(t0));
    t0 = Clock::now();
    for (std::int64_t e = 0; e < pooled_n; ++e) run_pooled(e);
    t_pooled = std::min(t_pooled, seconds_since(t0));
  }
  if (level_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  return {static_cast<double>(naive_n) / t_naive,
          static_cast<double>(pooled_n) / t_pooled};
}

struct HitAccounting {
  std::int64_t queries = 0;
  std::int64_t hits = 0;
};

/// One metered run: with the run-covering quantum, all but each shard's
/// first pass query must hit the frozen shared cache.
HitAccounting warm_cache_hits(const QosSimulationConfig& base) {
  QosSimulationConfig cfg = base;
  cfg.jobs = 1;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  (void)simulate_qos(cfg);
  HitAccounting out;
  out.queries = metrics.counters().at("visibility.pass_queries");
  out.hits = metrics.counters().at("visibility.pass_hits");
  return out;
}

struct PresetRow {
  std::string name;
  int planes = 0;
  int active = 0;
  double eps[3] = {0.0, 0.0, 0.0};  // jobs 1 / 4 / 8
  double rss_mib = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 1000;
  constexpr int kJobs[3] = {1, 4, 8};

  std::cout << "=== Mega-constellation scale-out (" << episodes
            << " episodes per cell) ===\n\n";

  // Scale sweep, increasing constellation size so the monotonic RSS
  // high-water mark is attributable to the newest (largest) preset.
  const char* kPresets[] = {"iridium-next", "reference", "oneweb",
                            "starlink"};
  std::vector<PresetRow> rows;
  for (const char* name : kPresets) {
    const Constellation c = ConstellationBuilder::preset(name).build();
    const QosSimulationConfig cfg = scale_config(c, episodes);
    PresetRow row;
    row.name = name;
    row.planes = c.num_planes();
    row.active = c.total_active();
    (void)episodes_per_sec(cfg, 1);  // untimed warm-up
    for (int rep = 0; rep < 2; ++rep) {
      for (int j = 0; j < 3; ++j) {
        row.eps[j] = std::max(row.eps[j], episodes_per_sec(cfg, kJobs[j]));
      }
    }
    row.rss_mib = peak_rss_mib();
    rows.push_back(row);
  }

  TablePrinter table({"preset", "shape", "eps jobs=1", "eps jobs=4",
                      "eps jobs=8", "peak RSS MiB"},
                     1);
  for (const PresetRow& r : rows) {
    table.add_row({r.name,
                   std::to_string(r.planes) + "x" +
                       std::to_string(r.active / r.planes),
                   r.eps[0], r.eps[1], r.eps[2], r.rss_mib});
  }
  table.print(std::cout);

  // Reused-vs-fresh A/B at the 72×22 design point, single-thread so the
  // ratio is per-core DES-context reuse, not pool scheduling noise. The
  // reused path runs more episodes so its (much shorter) timed region
  // still dwarfs scheduler noise.
  const Constellation starlink =
      ConstellationBuilder::preset("starlink").build();
  const AbThroughput ab = pooled_vs_naive(starlink, std::int64_t{4} * episodes,
                                          std::int64_t{16} * episodes);
  const double naive_eps = ab.naive_eps;
  const double pooled_eps = ab.pooled_eps;
  const double speedup = pooled_eps / naive_eps;
  std::cout << "\nstarlink 72x22 A/B (jobs=1, per-episode, warm cache): "
            << "fresh context " << naive_eps << " eps, reused context "
            << pooled_eps << " eps, speedup " << speedup << "x\n";

  const std::uint64_t steady_allocs =
      reused_steady_state_allocs(starlink, 64, 512);
  std::cout << "steady state: " << steady_allocs
            << " allocs over 448 reused-context starlink episodes\n";

  const HitAccounting hits =
      warm_cache_hits(scale_config(starlink, std::max(1, episodes / 4)));
  std::cout << "warm shared cache: " << hits.hits << " hits / "
            << hits.queries << " pass queries\n";

  std::ostringstream json;
  json << "{\"bench\":\"constellation_scale\",\"episodes\":" << episodes
       << ",\"scale\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PresetRow& r = rows[i];
    json << (i == 0 ? "" : ",") << "{\"preset\":\"" << r.name
         << "\",\"planes\":" << r.planes << ",\"active\":" << r.active
         << ",\"episodes_per_sec\":{\"jobs1\":" << r.eps[0]
         << ",\"jobs4\":" << r.eps[1] << ",\"jobs8\":" << r.eps[2]
         << "},\"peak_rss_mib\":" << r.rss_mib << "}";
  }
  json << "],\"throughput\":{\"naive_episodes_per_sec\":" << naive_eps
       << ",\"pooled_episodes_per_sec\":" << pooled_eps
       << ",\"speedup\":" << speedup
       << "},\"steady_state_allocs\":" << steady_allocs
       << ",\"visibility\":{\"pass_queries\":" << hits.queries
       << ",\"pass_hits\":" << hits.hits << "}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates (ISSUE 8): the reused context sustains >= 1.5x
  // a fresh context per episode at 72×22, allocates nothing in steady
  // state, and the warm shared-cache hit accounting is preserved.
  const bool ok = speedup >= 1.5 && steady_allocs == 0 && hits.hits > 0 &&
                  hits.queries >= hits.hits;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
