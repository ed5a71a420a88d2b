// E18 — How much does the paper's ideal-geometry assumption matter?
//
// The analytic model (and Fig. 6) assume a perfectly repeating footprint
// pattern: no Earth rotation relative to the plane, no J2 drift. This
// ablation runs the SAME degraded plane (k = 9) over a 30°N target under
//   ideal      — non-rotating Earth (the paper's idealization),
//   rotating   — Earth rotation on (ground tracks precess ~22.5°/orbit),
//   rotating+J2 — plus J2 secular drift,
// and compares the coverage statistics and the protocol's delivered QoS
// over a one-day horizon. Under rotation a single plane no longer revisits
// the same spot, so the FULL 7-plane constellation provides the revisits —
// which is how the real system works; the single-plane worst case of the
// paper is the conservative bound.
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "oaq/episode.hpp"
#include "orbit/shared_visibility_cache.hpp"

using namespace oaq;

namespace {

struct Variant {
  const char* name;
  bool rotation;
  bool j2;
};

Constellation degraded_reference(bool j2) {
  ConstellationDesign d;
  d.j2 = j2;
  Constellation c(d);
  for (int p = 0; p < c.num_planes(); ++p) c.plane(p).set_active_count(9);
  return c;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: ideal vs rotating vs J2 geometry (reference "
               "constellation degraded to k = 9 everywhere, 30N target, "
               "1-day horizon) ===\n\n";
  const GeoPoint target = GeoPoint::from_degrees(30.0, 20.0);

  TablePrinter cov({"geometry", "gap share", "multi share", "longest gap "
                    "min", "passes/day"},
                   4);
  TablePrinter qos({"geometry", "episodes", "P(Y>=2)", "P(missed)",
                    "mean latency min"},
                   4);

  for (const Variant v : {Variant{"ideal", false, false},
                          Variant{"rotating", true, false},
                          Variant{"rotating+J2", true, true}}) {
    const auto c = degraded_reference(v.j2);
    const PassPredictor pred(c, v.rotation);
    const auto horizon = Duration::hours(24);
    const auto passes = pred.passes(target, Duration::zero(), horizon);
    const auto timeline =
        multiplicity_timeline(passes, Duration::zero(), horizon);
    const auto stats = PassPredictor::summarize(timeline);
    cov.add_row({std::string(v.name), stats.uncovered / stats.horizon,
                 stats.multiple / stats.horizon,
                 stats.longest_gap.to_minutes(),
                 static_cast<long long>(passes.size())});

    // Protocol episodes at regular offsets through the day, read from a
    // frozen pass table sized the way the engines size theirs.
    ProtocolConfig cfg;
    cfg.tau = Duration::minutes(5);
    cfg.delta = Duration::seconds(12);
    cfg.tg = Duration::seconds(6);
    cfg.computation_cap = Duration::seconds(6);
    constexpr int kEpisodes = 80;
    const auto start_of = [](int e) {
      return Duration::minutes(10.0 + 17.0 * e);
    };
    const Duration quantum =
        visibility_quantum(start_of(kEpisodes - 1), cfg.tau);
    SharedVisibilityCache cache(c, v.rotation, {quantum});
    cache.seed_window(target, Duration::zero(), quantum);
    cache.freeze();
    const GeometricSchedule sched(cache);
    EpisodeContext context(sched, cfg, true);
    Rng master(2003);
    int episodes = 0, high = 0, missed = 0;
    RunningStat latency;
    for (int e = 0; e < kEpisodes; ++e) {
      const auto& r =
          context.run(e, master.fork(static_cast<std::uint64_t>(e)),
                      TimePoint::at(start_of(e)), Duration::minutes(25));
      ++episodes;
      high += to_int(r.level) >= 2;
      missed += !r.alert_delivered;
      if (r.alert_delivered) {
        latency.add((r.first_alert_sent - r.detection).to_minutes());
      }
    }
    qos.add_row({std::string(v.name), static_cast<long long>(episodes),
                 static_cast<double>(high) / episodes,
                 static_cast<double>(missed) / episodes, latency.mean()});
  }
  cov.print(std::cout);
  std::cout << '\n';
  qos.print(std::cout);
  std::cout << "\nReading: with rotation the 7 planes' tracks interleave "
               "over the target, so coverage is richer than the paper's "
               "single-plane worst case — its analytic numbers are the "
               "conservative bound. J2 shifts pass times but barely moves "
               "the one-day statistics.\n";
  return 0;
}
