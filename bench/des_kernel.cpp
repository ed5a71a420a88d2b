// DES hot-path harness (ISSUE 3 tentpole): old-vs-new kernel throughput,
// cancel-heavy churn, steady-state allocation counts and the frozen
// visibility cache's steady-state allocation count. Prints a human table
// plus BENCH_JSON lines (aggregated into BENCH_3.json by
// tools/run_bench.sh).
//
//   des_kernel [events] [rounds]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "legacy_simulator.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "sim/simulator.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Self-rescheduling event chain: each firing does a little arithmetic and
/// schedules its successor — the DES analogue of the protocol's
/// timeout/handoff pattern. 32 bytes of captured state: inline in the
/// pooled kernel's SmallFunction, heap-allocated by std::function.
template <typename Sim>
struct Chain {
  Sim* sim;
  std::uint64_t* fired;
  std::uint64_t budget;
  std::uint64_t salt;

  void operator()() {
    ++*fired;
    salt = salt * 2862933555777941757ull + 3037000493ull;
    if (--budget == 0) return;
    sim->schedule_after(Duration::seconds(1.0 + static_cast<double>(salt & 7)),
                        Chain(*this));
  }
};

/// Events/sec of `chains` interleaved self-rescheduling chains totalling
/// `total_events` firings. `allocs_per_event` (optional out) measures the
/// steady-state half of the run, after slab/heap/pool growth is done.
template <typename Sim>
double schedule_fire_events_per_sec(int chains, std::uint64_t total_events,
                                    double* allocs_per_event = nullptr) {
  Sim sim;
  std::uint64_t fired = 0;
  const std::uint64_t per_chain = total_events / static_cast<std::uint64_t>(chains);
  const auto t0 = Clock::now();
  for (int c = 0; c < chains; ++c) {
    sim.schedule_after(
        Duration::seconds(static_cast<double>(c % 16)),
        Chain<Sim>{&sim, &fired, per_chain, 0x9e3779b97f4a7c15ull + c});
  }
  // First half warms the pools; the second half is steady state.
  const std::uint64_t half = chains * per_chain / 2;
  while (fired < half && sim.step()) {
  }
  const std::uint64_t allocs_before = benchutil::allocation_count();
  const std::uint64_t fired_before = fired;
  sim.run();
  const std::uint64_t steady_allocs =
      benchutil::allocation_count() - allocs_before;
  const double elapsed = seconds_since(t0);
  if (allocs_per_event != nullptr) {
    *allocs_per_event = static_cast<double>(steady_allocs) /
                        static_cast<double>(fired - fired_before);
  }
  return static_cast<double>(fired) / elapsed;
}

/// Ops/sec of a cancel-heavy workload: every round schedules a batch,
/// cancels half of it (the protocol's wait-deadline pattern: most armed
/// timeouts never fire), and drains the rest.
template <typename Sim>
double cancel_heavy_ops_per_sec(int batch, int rounds) {
  Sim sim;
  std::vector<decltype(sim.schedule_after(Duration::zero(),
                                          typename Sim::Callback{}))>
      ids;
  ids.reserve(static_cast<std::size_t>(batch));
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    ids.clear();
    for (int b = 0; b < batch; ++b) {
      ids.push_back(sim.schedule_after(
          Duration::seconds(static_cast<double>((b * 7 + r) % 64)),
          [&sink] { ++sink; }));
    }
    for (int b = 0; b < batch; b += 2) sim.cancel(ids[static_cast<std::size_t>(b)]);
    sim.run();
    ops += static_cast<std::uint64_t>(batch) + static_cast<std::uint64_t>(batch);
  }
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Pops/sec of a pure drain: each round schedules one big batch up front
/// and then drains it with no further scheduling — pops only, the shape
/// of an episode's tail (and of the cancel-heavy pattern between
/// batches). Its "single-run drain" name is the BENCH_3.json key.
template <typename Sim>
double single_run_drain_pops_per_sec(int batch, int rounds) {
  Sim sim;
  std::uint64_t sink = 0;
  std::uint64_t pops = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int b = 0; b < batch; ++b) {
      sim.schedule_after(
          Duration::seconds(static_cast<double>((b * 13 + r) % 97)),
          [&sink] { ++sink; });
    }
    sim.run();
    pops += static_cast<std::uint64_t>(batch);
  }
  if (sink == 0) std::abort();  // defeat over-eager optimizers
  return static_cast<double>(pops) / seconds_since(t0);
}

/// Operator-new calls across `queries` passes_window_into calls on a
/// seeded, frozen SharedVisibilityCache over jittered sub-windows of a
/// 6-hour horizon (the Monte-Carlo access pattern), after 16 warm-up calls
/// have grown the output vector to its peak capacity.
std::uint64_t frozen_cache_steady_state_allocs(int queries) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  const GeoPoint target{0.0, 0.0};
  SharedVisibilityCache::Options opt;
  opt.window_quantum = Duration::hours(6);
  SharedVisibilityCache cache(c, false, opt);
  cache.seed_window(target, Duration::zero(), opt.window_quantum);
  cache.freeze();

  std::uint64_t salt = 1;
  std::vector<Pass> passes;
  std::size_t sink = 0;
  const auto query = [&] {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const Duration from = Duration::minutes(static_cast<double>(salt % 180));
    cache.passes_window_into(target, from, from + Duration::minutes(90.0),
                             passes);
    sink += passes.size();
  };
  for (int q = 0; q < 16; ++q) query();
  const std::uint64_t allocs_before = benchutil::allocation_count();
  for (int q = 0; q < queries; ++q) query();
  const std::uint64_t allocs = benchutil::allocation_count() - allocs_before;
  if (sink == 0) std::abort();  // defeat over-eager optimizers
  return allocs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto events =
      static_cast<std::uint64_t>(argc > 1 ? std::atoll(argv[1]) : 2000000);
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 500;

  std::cout << "=== DES kernel hot path (" << events << " events, "
            << rounds << " cancel rounds) ===\n\n";

  // 4096 concurrent timers ~ a campaign shard's pending-event working set
  // (many in-flight signals x timeout/handoff/arrival timers each).
  constexpr int kChains = 4096;
  constexpr int kCancelBatch = 4096;

  double legacy_allocs = 0.0, pooled_allocs = 0.0;
  const double legacy_fire = schedule_fire_events_per_sec<legacy::Simulator>(
      kChains, events, &legacy_allocs);
  const double pooled_fire =
      schedule_fire_events_per_sec<Simulator>(kChains, events, &pooled_allocs);
  const double legacy_cancel =
      cancel_heavy_ops_per_sec<legacy::Simulator>(kCancelBatch, rounds);
  const double pooled_cancel =
      cancel_heavy_ops_per_sec<Simulator>(kCancelBatch, rounds);
  const double legacy_drain =
      single_run_drain_pops_per_sec<legacy::Simulator>(kCancelBatch, rounds);
  const double pooled_drain =
      single_run_drain_pops_per_sec<Simulator>(kCancelBatch, rounds);
  const std::uint64_t frozen_allocs = frozen_cache_steady_state_allocs(400);

  TablePrinter table({"workload", "legacy", "pooled", "speedup"}, 2);
  table.add_row({std::string("schedule+fire (ev/s)"), legacy_fire, pooled_fire,
                 pooled_fire / legacy_fire});
  table.add_row({std::string("cancel-heavy (op/s)"), legacy_cancel,
                 pooled_cancel, pooled_cancel / legacy_cancel});
  table.add_row({std::string("single-run drain (pop/s)"), legacy_drain,
                 pooled_drain, pooled_drain / legacy_drain});
  table.add_row({std::string("steady allocs/event"), legacy_allocs,
                 pooled_allocs, 0.0});
  table.print(std::cout);
  std::cout << "\nfrozen-cache steady-state allocations over 400 queries: "
            << frozen_allocs << "\n";

  std::ostringstream json;
  json << "{\"bench\":\"des_kernel\",\"events\":" << events
       << ",\"schedule_fire\":{\"legacy_events_per_sec\":" << legacy_fire
       << ",\"pooled_events_per_sec\":" << pooled_fire
       << ",\"speedup\":" << pooled_fire / legacy_fire
       << "},\"cancel_heavy\":{\"legacy_ops_per_sec\":" << legacy_cancel
       << ",\"pooled_ops_per_sec\":" << pooled_cancel
       << ",\"speedup\":" << pooled_cancel / legacy_cancel
       << "},\"single_run_drain\":{\"legacy_pops_per_sec\":" << legacy_drain
       << ",\"pooled_pops_per_sec\":" << pooled_drain
       << ",\"speedup\":" << pooled_drain / legacy_drain
       << "},\"steady_state_allocs_per_event\":{\"legacy\":" << legacy_allocs
       << ",\"pooled\":" << pooled_allocs << "}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  std::ostringstream vjson;
  vjson << "{\"bench\":\"visibility_cache\",\"queries\":" << 400
        << ",\"frozen_steady_state_allocs\":" << frozen_allocs << "}";
  std::cout << "BENCH_JSON " << vjson.str() << "\n";

  // Regression gates (ISSUE 3 acceptance): >= 2x schedule/cancel speedup,
  // zero steady-state allocations per event in the pooled kernel. The
  // pure drain must not fall below the legacy heap. Frozen visibility
  // queries allocate nothing.
  bool ok = pooled_fire >= 2.0 * legacy_fire &&
            pooled_cancel >= 2.0 * legacy_cancel && pooled_allocs == 0.0 &&
            pooled_drain >= legacy_drain;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  if (frozen_allocs != 0) {
    std::cout << "REGRESSION: frozen cache allocated " << frozen_allocs
              << " times in steady state\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
