// Observer-overhead harness: wall-clock cost of running simulate_qos with
// the hierarchical span profiler attached, and with a metrics registry
// attached, each against the same run detached; plus the steady-state
// allocation count of the record hot path (SpanArena enter/exit plus
// EpisodeLedger recording — hence alloc_counter). Prints a human table
// plus a BENCH_JSON line (aggregated into BENCH_7.json and later
// snapshots by tools/run_bench.sh).
//
//   span_overhead [episodes]
//
// Each row is gated on the median of kPairs paired ratios t_attached /
// t_detached. Each side of a pair is at least kMinRunSeconds of
// `episodes`-episode simulate_qos runs, interleaved detached/attached with
// the order flipping run to run and pair to pair, so host-speed shifts
// (tens of milliseconds on a shared VM) hit both sides alike and one
// hiccup cannot move the median.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "obs/span.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPairs = 9;
constexpr double kMinRunSeconds = 0.05;

/// The golden-trace simulation shape (as episode_batch; episodes/sec stay
/// comparable across BENCH_*.json versions).
QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.jobs = 1;  // single-thread A/B: per-core throughput, no pool noise
  return cfg;
}

/// Wall seconds of one simulate_qos run with the given observers.
double run_seconds(QosSimulationConfig cfg, SpanProfiler* spans,
                   MetricsRegistry* metrics) {
  cfg.spans = spans;
  cfg.metrics = metrics;
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (qos.episodes != cfg.episodes) std::abort();
  return elapsed;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// One gated row: kPairs interleaved detached/attached pairs.
struct Row {
  double off_eps = 0.0;       ///< median detached episodes/s
  double on_eps = 0.0;        ///< median attached episodes/s
  double overhead_pct = 0.0;  ///< (median ratio - 1) · 100
};

Row measure(const QosSimulationConfig& cfg, SpanProfiler* spans,
            MetricsRegistry* metrics) {
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double t_off = 0.0;
    double t_on = 0.0;
    int runs = 0;
    for (; t_off < kMinRunSeconds || t_on < kMinRunSeconds; ++runs) {
      if ((runs + pair) % 2 == 0) {
        t_off += run_seconds(cfg, nullptr, nullptr);
        t_on += run_seconds(cfg, spans, metrics);
      } else {
        t_on += run_seconds(cfg, spans, metrics);
        t_off += run_seconds(cfg, nullptr, nullptr);
      }
    }
    const double episodes = static_cast<double>(cfg.episodes) * runs;
    off.push_back(episodes / t_off);
    on.push_back(episodes / t_on);
    ratios.push_back(t_on / t_off);
  }
  return {median(off), median(on), (median(ratios) - 1.0) * 100.0};
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
  const int episodes = argc > 1 ? std::max(1, std::atoi(argv[1])) : 4096;

  (void)run_seconds(base_config(episodes), nullptr, nullptr);  // warm-up
  const QosSimulationConfig cfg = base_config(episodes);

  std::cout << "=== observer overhead (" << episodes
            << "-episode runs, median of " << kPairs
            << " interleaved pairs of >= " << kMinRunSeconds * 1000.0
            << " ms a side) ===\n\n";

  SpanProfiler spans;
  MetricsRegistry metrics;
  const Row span_row = measure(cfg, &spans, nullptr);
  const Row metrics_row = measure(cfg, nullptr, &metrics);

  const std::uint64_t hot_allocs = steady_state_allocs(1 << 18);

  TablePrinter table({"path", "episodes/s", "overhead %"}, 2);
  table.add_row({std::string("spans detached"), span_row.off_eps, 0.0});
  table.add_row({std::string("spans attached"), span_row.on_eps,
                 span_row.overhead_pct});
  table.add_row({std::string("metrics detached"), metrics_row.off_eps, 0.0});
  table.add_row({std::string("metrics attached"), metrics_row.on_eps,
                 metrics_row.overhead_pct});
  table.print(std::cout);
  std::cout << "\nsteady state: " << hot_allocs
            << " allocs over " << (1 << 18)
            << " span-enter/exit + ledger-record iterations\n";

  std::ostringstream json;
  json << "{\"bench\":\"span_overhead\",\"episodes\":" << episodes
       << ",\"throughput\":{\"spans_off_episodes_per_sec\":"
       << span_row.off_eps
       << ",\"spans_on_episodes_per_sec\":" << span_row.on_eps
       << ",\"metrics_on_episodes_per_sec\":" << metrics_row.on_eps
       << "},\"overhead_pct\":" << span_row.overhead_pct
       << ",\"metrics_overhead_pct\":" << metrics_row.overhead_pct
       << ",\"steady_state_allocs\":" << hot_allocs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates: attaching the span profiler or a metrics registry
  // costs <= 5% (median paired ratio), and the record hot path allocates
  // nothing.
  const bool ok = span_row.overhead_pct <= 5.0 &&
                  metrics_row.overhead_pct <= 5.0 && hot_allocs == 0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
