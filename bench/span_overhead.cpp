// Span-profiler harness (ISSUE 7 tentpole): wall-clock overhead of
// running simulate_qos with the hierarchical span profiler attached vs
// detached, and the steady-state allocation count of the record hot path
// (SpanArena enter/exit plus EpisodeLedger recording — hence
// alloc_counter). Prints a human table plus a BENCH_JSON line (aggregated
// into BENCH_7.json by tools/run_bench.sh).
//
//   span_overhead [episodes]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "obs/span.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The golden-trace simulation shape (same as episode_batch, so the two
/// snapshots' episodes/sec are comparable across BENCH_*.json versions).
QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = 1;  // single-thread A/B: per-core throughput, no pool noise
  return cfg;
}

/// Episodes/sec of one simulate_qos run, spans attached or detached.
double episodes_per_sec(const QosSimulationConfig& base,
                        SpanProfiler* spans) {
  QosSimulationConfig cfg = base;
  cfg.spans = spans;
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(cfg.episodes) / elapsed;
}

/// Allocation delta of the record hot path after warm-up: re-entering
/// known span paths and bumping pre-sized ledger rows must not allocate.
std::uint64_t steady_state_allocs(std::int64_t iterations) {
  SpanProfiler spans;
  spans.prepare(1);
  SpanArena* arena = spans.shard_arena(0);
  EpisodeLedger ledger;
  ledger.reserve(64);
  // Warm-up: discover every call path and touch every ledger row once.
  for (std::int64_t i = 0; i < 64; ++i) {
    const ScopedSpan outer(arena, "episode");
    const ScopedSpan inner(arena, "drain");
    arena->add_items(1);
    ledger.record_drop(i, DropReason::kLoss);
    ledger.record_retry(i);
  }
  const std::uint64_t before = benchutil::allocation_count();
  for (std::int64_t i = 0; i < iterations; ++i) {
    const ScopedSpan outer(arena, "episode");
    const ScopedSpan inner(arena, "drain");
    arena->add_items(1);
    ledger.record_drop(i & 63, DropReason::kLoss);
    ledger.record_retry(i & 63);
  }
  const std::uint64_t allocs = benchutil::allocation_count() - before;
  if (!arena->balanced() || ledger.totals().drops() < iterations) {
    std::abort();  // defeat over-eager optimizers, check the tallies
  }
  return allocs;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 12000;

  std::cout << "=== span profiler overhead (" << episodes
            << " episodes) ===\n\n";

  const QosSimulationConfig cfg = base_config(episodes);

  // Untimed warm-up, then interleaved repetitions so drift hits both
  // variants; best-of-3 mirrors the episode_batch harness.
  (void)episodes_per_sec(cfg, nullptr);
  double off_eps = 0.0, on_eps = 0.0;
  SpanProfiler spans;
  for (int rep = 0; rep < 3; ++rep) {
    off_eps = std::max(off_eps, episodes_per_sec(cfg, nullptr));
    on_eps = std::max(on_eps, episodes_per_sec(cfg, &spans));
  }
  const double overhead_pct = (off_eps / on_eps - 1.0) * 100.0;

  const std::uint64_t hot_allocs = steady_state_allocs(1 << 18);

  TablePrinter table({"path", "episodes/s", "overhead %"}, 2);
  table.add_row({std::string("spans detached"), off_eps, 0.0});
  table.add_row({std::string("spans attached"), on_eps, overhead_pct});
  table.print(std::cout);
  std::cout << "\nsteady state: " << hot_allocs
            << " allocs over " << (1 << 18)
            << " span-enter/exit + ledger-record iterations\n";

  std::ostringstream json;
  json << "{\"bench\":\"span_overhead\",\"episodes\":" << episodes
       << ",\"throughput\":{\"spans_off_episodes_per_sec\":" << off_eps
       << ",\"spans_on_episodes_per_sec\":" << on_eps
       << "},\"overhead_pct\":" << overhead_pct
       << ",\"steady_state_allocs\":" << hot_allocs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates (ISSUE 7): attaching the profiler costs <= 5% of
  // episodes/sec and the record hot path allocates nothing.
  const bool ok = overhead_pct <= 5.0 && hot_allocs == 0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
