// Batched geometry engine harness (ISSUE 4 tentpole): scalar-vs-batched
// Kepler margin-sweep throughput, solve-only throughput, and the frozen
// visibility cache's steady-state allocation count. Prints a human table
// plus one BENCH_JSON line (aggregated into BENCH_4.json by
// tools/run_bench.sh).
//
//   geometry_batch [samples] [reps]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "geom/geodesy.hpp"
#include "orbit/batch_kepler.hpp"
#include "orbit/shared_visibility_cache.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Constellation bench_constellation() {
  ConstellationDesign d;
  d.num_planes = 2;
  d.sats_per_plane = 8;
  d.inclination_rad = deg2rad(85.0);
  return Constellation(d);
}

struct ThroughputPair {
  double scalar_per_sec = 0.0;
  double batch_per_sec = 0.0;
  [[nodiscard]] double speedup() const { return batch_per_sec / scalar_per_sec; }
};

/// The PassPredictor hot loop, both ways: the pre-batch scalar chain
/// (subsatellite_point -> central_angle per sample, via the public
/// propagator API) against BatchKepler::coverage_margins over the same
/// sample grid. Samples/sec on an eccentric J2 orbit — the most expensive
/// configuration the sweep meets.
ThroughputPair margin_sweep_throughput(int samples, int reps) {
  KeplerianElements el;
  el.semi_major_km = 6921.0;
  el.eccentricity = 0.01;
  el.inclination_rad = deg2rad(85.0);
  el.raan_rad = 0.7;
  el.arg_perigee_rad = 0.3;
  const Orbit orbit = Orbit(el).with_j2();
  const BatchKepler batch(orbit);
  const GeoPoint target = GeoPoint::from_degrees(12.0, 34.0);
  const Vec3 target_unit = geo_to_ecef_unit(target);
  const double psi = deg2rad(20.0);

  std::vector<double> t(static_cast<std::size_t>(samples));
  std::vector<double> m(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    t[static_cast<std::size_t>(i)] = 7.3 * static_cast<double>(i);
  }

  ThroughputPair out;
  double sink = 0.0;
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < samples; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const GeoPoint ssp =
          orbit.subsatellite_point(Duration::seconds(t[idx]), false);
      m[idx] = psi - central_angle(ssp, target);
    }
    sink += m.back();
  }
  out.scalar_per_sec =
      static_cast<double>(samples) * reps / seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    batch.coverage_margins(target_unit, psi, false, t.data(), t.size(),
                           m.data());
    sink += m.back();
  }
  out.batch_per_sec = static_cast<double>(samples) * reps / seconds_since(t0);
  if (sink == 0.0) std::abort();  // defeat over-eager optimizers
  return out;
}

/// Kepler-equation solves/sec, scalar loop vs the masked-Newton batch.
/// Informational (no gate): the batch replicates the scalar iteration
/// bit-for-bit, so the win here is loop structure, not fewer iterations.
ThroughputPair solve_throughput(int samples, int reps) {
  const double e = 0.3;
  std::vector<double> mean(static_cast<std::size_t>(samples));
  std::vector<double> ecc(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    mean[static_cast<std::size_t>(i)] = 0.37 * static_cast<double>(i);
  }

  ThroughputPair out;
  double sink = 0.0;
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < mean.size(); ++i) {
      ecc[i] = solve_kepler(mean[i], e);
    }
    sink += ecc.back();
  }
  out.scalar_per_sec =
      static_cast<double>(samples) * reps / seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    BatchKepler::solve(mean.data(), mean.size(), e, ecc.data());
    sink += ecc.back();
  }
  out.batch_per_sec = static_cast<double>(samples) * reps / seconds_since(t0);
  if (sink == 0.0) std::abort();
  return out;
}

/// Steady-state allocations per frozen-cache query: seed, freeze, warm the
/// output vector's capacity once, then count operator-new calls across
/// repeated sub-window queries of the seeded table. The acceptance gate is
/// exactly zero.
std::uint64_t frozen_query_allocs(const Constellation& c, int queries) {
  SharedVisibilityCache::Options opt;
  opt.window_quantum = Duration::hours(4);
  SharedVisibilityCache cache(c, false, opt);
  const GeoPoint target{0.0, 0.0};
  cache.seed_window(target, Duration::zero(), opt.window_quantum);
  cache.freeze();

  VisibilityCacheStats stats;
  std::vector<Pass> out;
  std::size_t sink = 0;
  // Jittered sub-windows of the seeded quantum — the Monte-Carlo access
  // pattern; every one lies inside the seeded table.
  std::uint64_t salt = 1;
  const auto window = [&salt] {
    salt = salt * 2862933555777941757ull + 3037000493ull;
    const double from_min = static_cast<double>(salt % 120);
    return std::pair(Duration::minutes(from_min),
                     Duration::minutes(from_min + 90.0));
  };
  for (int q = 0; q < 16; ++q) {  // warm-up: grows `out` to peak capacity
    const auto [from, to] = window();
    cache.passes_window_into(target, from, to, out, &stats);
    sink += out.size();
  }
  const std::uint64_t before = benchutil::allocation_count();
  for (int q = 0; q < queries; ++q) {
    const auto [from, to] = window();
    cache.passes_window_into(target, from, to, out, &stats);
    sink += out.size();
  }
  if (sink == 0) std::abort();
  return benchutil::allocation_count() - before;
}

}  // namespace

int main(int argc, char** argv) {
  const int samples = argc > 1 ? std::atoi(argv[1]) : 65536;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 20;

  std::cout << "=== Batched Kepler geometry engine (" << samples
            << " samples x " << reps << " reps) ===\n\n";

  const ThroughputPair margins = margin_sweep_throughput(samples, reps);
  const ThroughputPair solves = solve_throughput(samples, reps);

  const Constellation c = bench_constellation();
  const std::uint64_t steady_allocs = frozen_query_allocs(c, 4096);

  TablePrinter kernels({"kernel", "scalar/s", "batched/s", "speedup"}, 2);
  kernels.add_row({std::string("margin sweep"), margins.scalar_per_sec,
                   margins.batch_per_sec, margins.speedup()});
  kernels.add_row({std::string("kepler solve"), solves.scalar_per_sec,
                   solves.batch_per_sec, solves.speedup()});
  kernels.print(std::cout);
  std::cout << "\nfrozen-cache steady-state allocations over 4096 queries: "
            << steady_allocs << "\n";

  std::ostringstream json;
  json << "{\"bench\":\"geometry_batch\",\"samples\":" << samples
       << ",\"reps\":" << reps
       << ",\"margin_sweep\":{\"scalar_samples_per_sec\":"
       << margins.scalar_per_sec
       << ",\"batch_samples_per_sec\":" << margins.batch_per_sec
       << ",\"speedup\":" << margins.speedup()
       << "},\"kepler_solve\":{\"scalar_solves_per_sec\":"
       << solves.scalar_per_sec
       << ",\"batch_solves_per_sec\":" << solves.batch_per_sec
       << ",\"speedup\":" << solves.speedup()
       << "},\"frozen_steady_state_allocs\":" << steady_allocs << "}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Regression gates (ISSUE 4 acceptance): >= 2x batched margin-sweep
  // throughput, zero steady-state allocations on the frozen read path.
  bool ok = true;
  if (margins.speedup() < 2.0) {
    std::cout << "REGRESSION: margin-sweep speedup " << margins.speedup()
              << " < 2.0\n";
    ok = false;
  }
  if (steady_allocs != 0) {
    std::cout << "REGRESSION: frozen cache allocated " << steady_allocs
              << " times in steady state\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
