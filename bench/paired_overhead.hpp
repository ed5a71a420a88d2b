// Paired A/B timing for the bench overhead gates (span_overhead,
// chaos_soak).
//
// One reading of "feature on" against "feature off" swings by tens of
// percent on a shared VM, far beyond a 5% bound. A gate instead reads the
// median of kOverheadPairs paired ratios t_on / t_off. Each side of a pair
// is at least `min_run_seconds` of runs, interleaved off/on with the order
// flipping run to run and pair to pair, so host-speed shifts hit both
// sides alike and one hiccup cannot move the median.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace oaq::benchutil {

inline constexpr int kOverheadPairs = 9;

struct PairedOverhead {
  double off_per_sec = 0.0;   ///< median feature-off items/s
  double on_per_sec = 0.0;    ///< median feature-on items/s
  double overhead_pct = 0.0;  ///< (median ratio t_on / t_off - 1) · 100
};

inline double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// `run_off()` and `run_on()` each process `items_per_run` items and
/// return their wall seconds.
template <class RunOff, class RunOn>
PairedOverhead paired_overhead(double items_per_run, double min_run_seconds,
                               RunOff run_off, RunOn run_on) {
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double t_off = 0.0;
    double t_on = 0.0;
    int runs = 0;
    for (; t_off < min_run_seconds || t_on < min_run_seconds; ++runs) {
      if ((runs + pair) % 2 == 0) {
        t_off += run_off();
        t_on += run_on();
      } else {
        t_on += run_on();
        t_off += run_off();
      }
    }
    const double items = items_per_run * runs;
    off.push_back(items / t_off);
    on.push_back(items / t_on);
    ratios.push_back(t_on / t_off);
  }
  return {median(off), median(on), (median(ratios) - 1.0) * 100.0};
}

}  // namespace oaq::benchutil
