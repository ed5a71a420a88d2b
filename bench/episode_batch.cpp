// Analytic episode-reuse harness: episodes/sec of the scalar oracle (a
// direct loop on simulate_qos's streams, one fresh EpisodeContext per
// episode) vs simulate_qos (one reused episode context per shard), and
// the steady-state allocation count of that shard loop (hence
// alloc_counter). Prints a human table plus a BENCH_JSON line (aggregated
// into BENCH_6.json by tools/run_bench.sh; the `batched` key names the
// simulate_qos side, as in earlier snapshots).
//
//   episode_batch [episodes]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "alloc_counter.hpp"
#include "common/distribution.hpp"
#include "common/table.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/schedule.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The golden-trace simulation shape: single plane, k = 9, OAQ, bounded
/// computations.
QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = 1;  // single-thread A/B: per-core throughput, no pool noise
  return cfg;
}

/// Episodes/sec of the scalar oracle: a fresh EpisodeContext per episode
/// on the per-index streams simulate_qos forks.
double scalar_eps(const QosSimulationConfig& cfg) {
  const ExponentialDuration duration_law(cfg.mu);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  const Duration tr = cfg.geometry.tr(cfg.k);
  std::uint64_t level_sink = 0;
  const auto t0 = Clock::now();
  for (std::int64_t e = 0; e < cfg.episodes; ++e) {
    const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
    Rng phase_rng = ep.fork(1);
    Rng duration_rng = ep.fork(2);
    const Duration phase = phase_rng.uniform(Duration::zero(), tr);
    const Duration duration = duration_law.sample(duration_rng);
    const AnalyticSchedule schedule(cfg.geometry, cfg.k, phase);
    EpisodeContext context(schedule, cfg.protocol, cfg.opportunity_adaptive);
    level_sink += static_cast<std::uint64_t>(to_int(
        context.run(e, ep.fork(3), signal_start, duration).level));
  }
  const double elapsed = seconds_since(t0);
  if (level_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  return static_cast<double>(cfg.episodes) / elapsed;
}

/// Episodes/sec of one simulate_qos run.
double batched_eps(const QosSimulationConfig& cfg) {
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(cfg.episodes) / elapsed;
}

struct SteadyState {
  std::uint64_t allocs = 0;
  std::uint64_t episodes = 0;
};

/// Drive one EpisodeContext over a re-phased AnalyticSchedule, exactly as
/// a simulate_qos shard does: the warm-up episodes grow every reusable
/// buffer (slab, envelope pool, pass/agent/participant storage, the sole
/// run), then the allocation delta over the remaining episodes must be
/// zero.
SteadyState steady_state_allocs(const QosSimulationConfig& cfg,
                                std::int64_t warm, std::int64_t total) {
  const ExponentialDuration duration_law(cfg.mu);
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  const TimePoint signal_start = TimePoint::at(kSignalStart);
  const Duration tr = cfg.geometry.tr(cfg.k);
  AnalyticSchedule schedule(cfg.geometry, cfg.k, Duration::zero());
  EpisodeContext context(schedule, cfg.protocol, cfg.opportunity_adaptive,
                         /*plan=*/nullptr);
  std::uint64_t level_sink = 0;
  std::uint64_t allocs_before = 0;
  for (std::int64_t e = 0; e < total; ++e) {
    if (e == warm) allocs_before = benchutil::allocation_count();
    const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
    Rng phase_rng = ep.fork(1);
    Rng duration_rng = ep.fork(2);
    schedule = AnalyticSchedule(cfg.geometry, cfg.k,
                                phase_rng.uniform(Duration::zero(), tr));
    const Duration duration = duration_law.sample(duration_rng);
    level_sink += static_cast<std::uint64_t>(to_int(
        context.run(e, ep.fork(3), signal_start, duration).level));
  }
  SteadyState out;
  out.allocs = benchutil::allocation_count() - allocs_before;
  out.episodes = static_cast<std::uint64_t>(total - warm);
  if (level_sink == ~0ull) std::abort();  // defeat over-eager optimizers
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 12000;

  std::cout << "=== analytic episode reuse (" << episodes
            << " episodes) ===\n\n";

  const QosSimulationConfig cfg = base_config(episodes);

  // Untimed warm-up (page faults, allocator growth, frequency ramp), then
  // interleaved repetitions so drift hits both variants.
  (void)scalar_eps(cfg);
  double scalar = 0.0, batched = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    scalar = std::max(scalar, scalar_eps(cfg));
    batched = std::max(batched, batched_eps(cfg));
  }
  const double speedup = batched / scalar;

  const SteadyState steady = steady_state_allocs(cfg, 512, 4096);

  TablePrinter table({"path", "episodes/s", "speedup"}, 2);
  table.add_row({std::string("scalar (fresh EpisodeContext)"), scalar, 1.0});
  table.add_row({std::string("reused context (simulate_qos)"), batched,
                 speedup});
  table.print(std::cout);

  std::cout << "\nsteady state: " << steady.allocs << " allocs over "
            << steady.episodes << " episodes\n";

  std::ostringstream json;
  json << "{\"bench\":\"episode_batch\",\"episodes\":" << episodes
       << ",\"throughput\":{\"scalar_episodes_per_sec\":" << scalar
       << ",\"batched_episodes_per_sec\":" << batched
       << ",\"speedup\":" << speedup
       << "},\"steady_state_allocs\":" << steady.allocs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates: simulate_qos sustains >= 2x the scalar episodes/sec
  // and its shard loop allocates nothing in steady state.
  const bool ok = speedup >= 2.0 && steady.allocs == 0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
