// Fault-injection harness (ISSUE 5 tentpole): cost of the fault engine.
//
// Three measurements, two acceptance gates:
//   1. Empty-plan overhead — simulate_qos with an attached-but-empty
//      FaultPlan vs no plan at all. Gate: <= 5% wall-clock overhead (the
//      hooks must be branch-cheap when nothing is scripted).
//   2. Injection hot path — repeated arm/fire rounds of a storm plan
//      against one pre-warmed network. Gate: zero steady-state heap
//      allocations (arm() pre-sizes everything; activate/deactivate only
//      flip pre-sized state).
//   3. Storm throughput — episodes/sec with a six-clause plan mixing all
//      clause types, plus invariant checking. Informational (the
//      correctness side is tests/faultinject).
//
// Prints a human table plus BENCH_JSON lines (aggregated into
// BENCH_5.json by tools/run_bench.sh).
//
//   fault_storm [episodes] [rounds]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "alloc_counter.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/crosslink.hpp"
#include "oaq/montecarlo.hpp"
#include "sim/simulator.hpp"

using namespace oaq;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A plan touching every clause kind, sized for the analytic single-plane
/// episode (plane 0, slots 0..k-1). Windows overlap deliberately.
FaultPlan storm_plan() {
  FaultPlan plan;
  plan.add(FaultPlan::fail_silent({0, 2}, Duration::minutes(1.0)));
  plan.add(FaultPlan::recover({0, 2}, Duration::minutes(4.0)));
  plan.add(
      FaultPlan::link_outage(0, 0, Duration::minutes(0.5), Duration::minutes(3.0)));
  plan.add(
      FaultPlan::delay_spike(3.0, Duration::minutes(1.0), Duration::minutes(5.0)));
  plan.add(
      FaultPlan::burst_loss(0.3, Duration::minutes(0.0), Duration::minutes(2.0)));
  plan.add(
      FaultPlan::partition(0x1, Duration::minutes(2.0), Duration::minutes(6.0)));
  return plan;
}

QosSimulationConfig base_config(int episodes) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = episodes;
  cfg.seed = 7;
  cfg.jobs = 1;  // serial: wall-clock comparisons without scheduler noise
  return cfg;
}

/// Episodes/sec of one simulate_qos run, best of `reps` (interleaving is
/// the caller's job).
double run_once(const QosSimulationConfig& cfg) {
  const auto t0 = Clock::now();
  const SimulatedQos qos = simulate_qos(cfg);
  const double elapsed = seconds_since(t0);
  if (qos.episodes != cfg.episodes) std::abort();
  return static_cast<double>(qos.episodes) / elapsed;
}

struct HotPathNumbers {
  double activations_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_rounds = 0;
};

/// Repeated arm + drain rounds of the storm plan against one long-lived
/// network: the injector's whole lifecycle (construct, arm, activate,
/// deactivate) per round. First half warms pools and degradation tables;
/// the second half must not allocate.
HotPathNumbers injection_hot_path(int rounds, const FaultPlan& plan) {
  Simulator sim;
  Rng rng(99);
  CrosslinkNetwork net(sim, {}, rng.fork(1));
  for (int slot = 0; slot < 9; ++slot) {
    net.register_node(Address::sat({0, slot}), [](const Envelope&) {});
  }

  HotPathNumbers out;
  std::uint64_t activations = 0;
  const auto round = [&](int r) {
    FaultInjector injector(sim, net, plan, rng.fork(100 + r));
    injector.arm(sim.now());
    sim.run();
    activations += injector.stats().activations;
  };

  const int warm = rounds / 2;
  for (int r = 0; r < warm; ++r) round(r);

  const std::uint64_t allocs_before = benchutil::allocation_count();
  const auto t0 = Clock::now();
  for (int r = warm; r < rounds; ++r) round(r);
  const double elapsed = seconds_since(t0);
  out.steady_allocs = benchutil::allocation_count() - allocs_before;
  out.steady_rounds = static_cast<std::uint64_t>(rounds - warm);
  out.activations_per_sec =
      static_cast<double>(activations) / 2.0 / elapsed;  // steady half
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = argc > 1 ? std::atoi(argv[1]) : 40000;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 20000;

  std::cout << "=== fault injection engine (" << episodes << " episodes, "
            << rounds << " arm/fire rounds) ===\n\n";

  const FaultPlan empty;
  const FaultPlan storm = storm_plan();

  QosSimulationConfig cfg_base = base_config(episodes);
  QosSimulationConfig cfg_empty = base_config(episodes);
  cfg_empty.fault_plan = &empty;
  QosSimulationConfig cfg_storm = base_config(episodes);
  cfg_storm.fault_plan = &storm;
  cfg_storm.check_invariants = true;

  // Untimed warm-up: the first run pays
  // page faults, allocator growth, and frequency ramp-up, and the baseline
  // ran first in every repetition — cold, it depressed base_eps and made
  // the empty-plan overhead read ~-1.5% on a quiet machine.
  (void)run_once(cfg_base);

  // Interleave baseline/empty repetitions so frequency drift hits both.
  double base_eps = 0.0, empty_eps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    base_eps = std::max(base_eps, run_once(cfg_base));
    empty_eps = std::max(empty_eps, run_once(cfg_empty));
  }
  const double overhead = base_eps / empty_eps - 1.0;
  const double storm_eps = run_once(cfg_storm);
  const HotPathNumbers hot = injection_hot_path(rounds, storm);

  TablePrinter table({"workload", "episodes/s", "vs baseline"}, 2);
  table.add_row({std::string("baseline (no plan)"), base_eps, 1.0});
  table.add_row(
      {std::string("empty plan attached"), empty_eps, empty_eps / base_eps});
  table.add_row({std::string("6-clause storm"), storm_eps, storm_eps / base_eps});
  table.print(std::cout);
  std::cout << "\nempty-plan overhead: " << overhead * 100.0 << "%\n"
            << "injection hot path: " << hot.activations_per_sec
            << " activations/s, " << hot.steady_allocs << " allocs over "
            << hot.steady_rounds << " steady rounds\n";

  std::ostringstream json;
  json << "{\"bench\":\"fault_storm\",\"episodes\":" << episodes
       << ",\"empty_plan_overhead\":{\"baseline_episodes_per_sec\":" << base_eps
       << ",\"empty_plan_episodes_per_sec\":" << empty_eps
       << ",\"overhead_fraction\":" << overhead
       << "},\"storm_episodes_per_sec\":" << storm_eps
       << ",\"injection_hot_path\":{\"rounds\":" << rounds
       << ",\"activations_per_sec\":" << hot.activations_per_sec
       << ",\"steady_state_allocs\":" << hot.steady_allocs << "}}";
  std::cout << "BENCH_JSON " << json.str() << "\n";

  // Acceptance gates (ISSUE 5): attaching an empty plan costs <= 5%
  // wall-clock, and the injection hot path allocates nothing at steady
  // state.
  const bool ok = overhead <= 0.05 && hot.steady_allocs == 0;
  if (!ok) std::cout << "REGRESSION: acceptance thresholds not met\n";
  return ok ? 0 : 1;
}
