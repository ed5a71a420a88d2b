// E2 — Figures 2 & 5 + Eq. (1): geometric orientation of a plane's
// footprint trajectory as capacity degrades, cross-checked against true
// orbital geometry (pass prediction on a polar plane).
#include <iostream>

#include "analytic/geometry.hpp"
#include "common/table.hpp"
#include "orbit/visibility.hpp"

using namespace oaq;

int main() {
  const PlaneGeometry g;  // θ = 90 min, Tc = 9 min

  std::cout << "=== Figures 2 & 5: Tr[k], L1[k], L2[k], I[k] (theta = 90, "
               "Tc = 9) ===\n\n";
  TablePrinter table({"k", "Tr[k] min", "L1[k] min", "L2[k] min", "I[k]",
                      "orientation"},
                     3);
  table.set_caption("Analytic geometry (paper: underlapping when k < 11)");
  for (int k = 14; k >= 6; --k) {
    table.add_row({static_cast<long long>(k), g.tr(k).to_minutes(),
                   g.l1(k).to_minutes(), g.l2(k).to_minutes(),
                   static_cast<long long>(g.indicator(k)),
                   std::string(g.overlapping(k) ? "overlapping"
                                                : "underlapping")});
  }
  table.print(std::cout);

  std::cout << "\nCross-check against true orbital geometry (polar plane, "
               "equatorial centerline target):\n";
  TablePrinter check({"k", "empirical Tr", "empirical Tc", "multi-cov share",
                      "gap share"},
                     3);
  for (int k : {14, 12, 11, 10, 9}) {
    ConstellationDesign d;
    d.num_planes = 1;
    d.sats_per_plane = k;
    d.inclination_rad = deg2rad(90.0);
    const Constellation c(d);
    const PassPredictor pred(c);
    const auto passes = pred.passes(GeoPoint{0.0, 0.0}, Duration::zero(),
                                    Duration::minutes(180));
    const auto timeline = multiplicity_timeline(
        passes, Duration::zero(), Duration::minutes(180));
    const auto stats = PassPredictor::summarize(timeline);
    double tr_emp = 0.0, tc_emp = 0.0;
    int n = 0, m = 0;
    for (std::size_t i = 2; i + 1 < passes.size(); ++i, ++n) {
      tr_emp += (passes[i].start - passes[i - 1].start).to_minutes();
    }
    for (std::size_t i = 1; i + 1 < passes.size(); ++i, ++m) {
      tc_emp += passes[i].duration().to_minutes();
    }
    check.add_row({static_cast<long long>(k), n ? tr_emp / n : 0.0,
                   m ? tc_emp / m : 0.0, stats.multiple / stats.horizon,
                   stats.uncovered / stats.horizon});
  }
  check.print(std::cout);
  std::cout << "\n(expected: multi-coverage share (Tc-Tr)/Tr for k >= 11, "
               "gap share (Tr-Tc)/Tr for k <= 10)\n";
  return 0;
}
