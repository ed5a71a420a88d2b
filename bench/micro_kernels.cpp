// E13 — google-benchmark microbenchmarks of the library's hot kernels.
#include <benchmark/benchmark.h>

#include "analytic/qos_model.hpp"
#include "common/numeric.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/plane_capacity.hpp"
#include "geoloc/wls.hpp"
#include "oaq/episode.hpp"
#include "oaq/montecarlo.hpp"
#include "legacy_simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orbit/kepler.hpp"
#include "orbit/shared_visibility_cache.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace oaq;

void BM_OrbitPropagationCircular(benchmark::State& state) {
  const auto orbit = Orbit::circular_with_period(Duration::minutes(90),
                                                 deg2rad(85.0), 0.3, 0.7);
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(orbit.position_eci(Duration::seconds(t)));
  }
}
BENCHMARK(BM_OrbitPropagationCircular);

void BM_OrbitPropagationElliptical(benchmark::State& state) {
  KeplerianElements el;
  el.semi_major_km = 8000.0;
  el.eccentricity = 0.2;
  el.inclination_rad = 0.5;
  const Orbit orbit(el);
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(orbit.state_at(Duration::seconds(t)));
  }
}
BENCHMARK(BM_OrbitPropagationElliptical);

void BM_AdaptiveSimpson(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrate(
        [](double x) { return std::exp(-0.5 * x) * (1.0 - std::exp(-30.0 * (5.0 - x))); },
        0.0, 5.0, 1e-12));
  }
}
BENCHMARK(BM_AdaptiveSimpson);

void BM_QosConditionalPmf(benchmark::State& state) {
  const QosModel model(PlaneGeometry{}, QosModelParams{});
  int k = 6;
  for (auto _ : state) {
    k = k == 16 ? 6 : k + 1;
    benchmark::DoNotOptimize(model.conditional_pmf(k, Scheme::kOaq));
  }
}
BENCHMARK(BM_QosConditionalPmf);

void BM_PlaneCapacityCycle(benchmark::State& state) {
  PlaneDependability model;
  model.satellite_failure_rate = Rate::per_hour(1e-4);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plane_capacity_pmf(model, ++seed, 10));
  }
}
BENCHMARK(BM_PlaneCapacityCycle);

void BM_ProtocolEpisode(benchmark::State& state) {
  const AnalyticSchedule sched(PlaneGeometry{}, 9, Duration::minutes(1));
  ProtocolConfig cfg;
  cfg.delta = Duration::zero();
  cfg.tg = Duration::zero();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    EpisodeContext context(sched, cfg, true);
    benchmark::DoNotOptimize(context.run(0, Rng(++seed),
                                         TimePoint::at(Duration::minutes(60)),
                                         Duration::minutes(4)));
  }
}
BENCHMARK(BM_ProtocolEpisode);

void BM_WlsSolve(benchmark::State& state) {
  Emitter emitter;
  emitter.position = GeoPoint::from_degrees(30.0, 31.0);
  emitter.carrier_hz = 400e6;
  emitter.start = TimePoint::origin();
  const DopplerModel model(true);
  Rng rng(1);
  const Orbit orbit = Orbit::circular_with_period(Duration::minutes(90),
                                                  deg2rad(85.0),
                                                  deg2rad(30.0), 0.0);
  const auto batch = model.take_measurements(
      orbit, {0, 0}, emitter,
      measurement_epochs(Duration::minutes(5), Duration::minutes(13), 25),
      deg2rad(18.0), 5.0, rng);
  const WlsGeolocator solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(
        batch, GeoPoint::from_degrees(29.0, 30.0), 400e6));
  }
}
BENCHMARK(BM_WlsSolve);

// Dispatch + merge cost of the thread-pool reduction on a near-trivial map
// (integer range sum, 16 shards). Serial (jobs = 1) vs pooled runs bound
// the overhead a Monte-Carlo caller pays per parallel_reduce invocation.
void BM_ParallelReduceOverhead(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto sum = parallel_reduce<std::int64_t>(
        4096, 16, jobs,
        [](std::int64_t begin, std::int64_t end, int) {
          std::int64_t s = 0;
          for (std::int64_t i = begin; i < end; ++i) s += i;
          return s;
        },
        [](std::int64_t& into, std::int64_t from) { into += from; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ParallelReduceOverhead)->Arg(1)->Arg(2)->Arg(4);

// One episode through the full simulate_qos path (per-episode RNG
// derivation, schedule construction, protocol run, accumulator fold) —
// the unit of work the parallel engine shards.
void BM_SimulateQosStep(benchmark::State& state) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 1;
  cfg.jobs = 1;
  cfg.protocol.delta = Duration::zero();
  cfg.protocol.tg = Duration::zero();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(simulate_qos(cfg));
  }
}
BENCHMARK(BM_SimulateQosStep);

// Same step with every observer attached (trace + metrics + profile).
// Compare against BM_SimulateQosStep: the plain run IS the disabled-
// tracer case (null sinks, one branch per recording site) and must stay
// within the < 2% overhead budget of the pre-observability engine; this
// variant measures the cost of turning everything on.
void BM_SimulateQosStepTraced(benchmark::State& state) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 1;
  cfg.jobs = 1;
  cfg.protocol.delta = Duration::zero();
  cfg.protocol.tg = Duration::zero();
  TraceCollector trace(1 << 12);
  MetricsRegistry metrics;
  ReduceProfile profile;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  cfg.profile = &profile;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(simulate_qos(cfg));
  }
}
BENCHMARK(BM_SimulateQosStepTraced);

// Raw ring-buffer push: the per-event cost an *enabled* tracer adds to
// the protocol hot path.
void BM_TracePush(benchmark::State& state) {
  ShardTraceBuffer buf(1 << 12);
  TraceEvent ev;
  ev.type = TraceEventType::kChainHop;
  std::int64_t i = 0;
  for (auto _ : state) {
    ev.episode = ++i;
    buf.push(ev);
    benchmark::DoNotOptimize(buf.recorded());
  }
}
BENCHMARK(BM_TracePush);

// Counter increment through the registry map — the per-record cost of
// enabled harness metrics.
void BM_MetricsAdd(benchmark::State& state) {
  MetricsRegistry m;
  for (auto _ : state) {
    m.add("xlink.sent");
    benchmark::DoNotOptimize(m.counter("xlink.sent"));
  }
}
BENCHMARK(BM_MetricsAdd);

// Schedule+fire round trip through a DES kernel (ISSUE 3): a batch of
// timers armed and drained per iteration. Template lets the same workload
// hit the pooled kernel and the seed-era shared_ptr kernel.
template <typename Sim>
void BM_DesScheduleFire(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Sim sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int b = 0; b < batch; ++b) {
      sim.schedule_after(Duration::seconds(static_cast<double>(b % 32)),
                         [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DesScheduleFire<Simulator>)->Arg(256);
BENCHMARK(BM_DesScheduleFire<legacy::Simulator>)->Arg(256);

// Cancel-dominated workload: arm a batch, cancel half (the protocol's
// wait-deadline pattern), drain the rest. The pooled kernel tombstones in
// O(1); the legacy kernel pays a hash erase plus queue-top skipping.
template <typename Sim>
void BM_DesCancelHeavy(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Sim sim;
  std::uint64_t fired = 0;
  std::vector<decltype(sim.schedule_after(Duration::zero(),
                                          typename Sim::Callback{}))>
      ids;
  ids.reserve(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    ids.clear();
    for (int b = 0; b < batch; ++b) {
      ids.push_back(sim.schedule_after(
          Duration::seconds(static_cast<double>(b % 32)), [&fired] { ++fired; }));
    }
    for (int b = 0; b < batch; b += 2) {
      sim.cancel(ids[static_cast<std::size_t>(b)]);
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * batch * 2);
}
BENCHMARK(BM_DesCancelHeavy<Simulator>)->Arg(256);
BENCHMARK(BM_DesCancelHeavy<legacy::Simulator>)->Arg(256);

// Pass-window queries through a seeded, frozen SharedVisibilityCache vs a
// cold PassPredictor sweep — the per-episode geometry cost in geometric
// Monte-Carlo mode.
void BM_VisibilityCachedQuery(benchmark::State& state) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  SharedVisibilityCache::Options opt;
  opt.window_quantum = Duration::hours(6);  // covers every queried window
  SharedVisibilityCache cache(c, false, opt);
  const GeoPoint target{0.0, 0.0};
  cache.seed_window(target, Duration::zero(), opt.window_quantum);
  cache.freeze();
  std::uint64_t salt = 1;
  for (auto _ : state) {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const auto from = Duration::minutes(static_cast<double>(salt % 180));
    benchmark::DoNotOptimize(
        cache.passes_window(target, from, from + Duration::minutes(90)));
  }
}
BENCHMARK(BM_VisibilityCachedQuery);

void BM_VisibilityUncachedQuery(benchmark::State& state) {
  ConstellationDesign d;
  d.num_planes = 1;
  d.sats_per_plane = 10;
  d.inclination_rad = deg2rad(90.0);
  const Constellation c(d);
  const PassPredictor predictor(c);
  const GeoPoint target{0.0, 0.0};
  std::uint64_t salt = 1;
  for (auto _ : state) {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const auto from = Duration::minutes(static_cast<double>(salt % 180));
    benchmark::DoNotOptimize(
        predictor.passes(target, from, from + Duration::minutes(90)));
  }
}
BENCHMARK(BM_VisibilityUncachedQuery);

void BM_Xoshiro(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Xoshiro);

}  // namespace

BENCHMARK_MAIN();
