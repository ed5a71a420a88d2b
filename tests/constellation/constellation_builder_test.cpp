// Parameterized Walker-shell builder (ISSUE 8 tentpole): preset design
// points, i:T/P/F validation, multi-shell plane layout, the shell-aware
// plane-capacity factory, and the on-disk shell format round-trip.
#include "orbit/constellation_builder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/error.hpp"
#include "fault/plane_capacity.hpp"

namespace oaq {
namespace {

WalkerShell small_shell() {
  WalkerShell s;
  s.total_sats = 6;
  s.planes = 2;
  s.phasing = 1;
  s.altitude_km = 600.0;
  s.inclination_deg = 97.0;
  return s;
}

TEST(ConstellationBuilder, PresetCatalogueBuildsAtPublishedScale) {
  struct Expect {
    std::string_view name;
    int planes;
    int active;
  };
  const Expect expect[] = {
      {"reference", 7, 98},   {"kepler", 7, 140},     {"iridium-next", 6, 66},
      {"oneweb", 18, 648},    {"starlink", 72, 1584},
  };
  ASSERT_EQ(constellation_preset_names().size(), std::size(expect));
  for (const auto& e : expect) {
    const Constellation c = ConstellationBuilder::preset(e.name).build();
    EXPECT_EQ(c.num_planes(), e.planes) << e.name;
    EXPECT_EQ(c.total_active(), e.active) << e.name;
    EXPECT_EQ(c.num_shells(), 1) << e.name;
  }
  EXPECT_THROW((void)constellation_preset("galileo"), std::invalid_argument);
}

TEST(ConstellationBuilder, ReferencePresetEqualsPaperDesignExactly) {
  // The "reference" preset must lower to the same ConstellationDesign the
  // engine has always defaulted to — field for field, bit for bit — so
  // preset-driven runs reproduce the paper's golden bytes.
  const ConstellationDesign got =
      design_from_shell(constellation_preset("reference")[0]);
  const ConstellationDesign want{};
  EXPECT_EQ(got.num_planes, want.num_planes);
  EXPECT_EQ(got.sats_per_plane, want.sats_per_plane);
  EXPECT_EQ(got.in_orbit_spares_per_plane, want.in_orbit_spares_per_plane);
  EXPECT_EQ(got.period.to_seconds(), want.period.to_seconds());
  EXPECT_EQ(got.coverage_time.to_seconds(), want.coverage_time.to_seconds());
  EXPECT_EQ(got.inclination_rad, want.inclination_rad);
  EXPECT_EQ(got.raan_spread_rad, want.raan_spread_rad);
  EXPECT_EQ(got.phasing_factor, want.phasing_factor);
  EXPECT_EQ(got.j2, want.j2);
}

TEST(ConstellationBuilder, StarAndDeltaSetRaanSpread) {
  WalkerShell star = small_shell();
  EXPECT_EQ(design_from_shell(star).raan_spread_rad, kPi);
  WalkerShell delta = small_shell();
  delta.star = false;
  EXPECT_EQ(design_from_shell(delta).raan_spread_rad, 2.0 * kPi);
}

TEST(ConstellationBuilder, AltitudeDerivesPeriodUnlessOverridden) {
  const WalkerShell s = small_shell();
  const Duration derived = design_from_shell(s).period;
  EXPECT_EQ(derived.to_seconds(),
            Orbit::circular(s.altitude_km, deg2rad(s.inclination_deg), 0.0, 0.0)
                .period()
                .to_seconds());
  WalkerShell fixed = s;
  fixed.period_min = 90.0;
  EXPECT_EQ(design_from_shell(fixed).period.to_minutes(), 90.0);
}

TEST(ConstellationBuilder, RejectsMalformedShells) {
  const auto reject = [](auto&& mutate) {
    WalkerShell s = small_shell();
    mutate(s);
    EXPECT_THROW((void)design_from_shell(s), std::invalid_argument);
  };
  reject([](WalkerShell& s) { s.planes = 0; });            // zero planes
  reject([](WalkerShell& s) { s.total_sats = 0; });        // zero satellites
  reject([](WalkerShell& s) { s.total_sats = 7; });        // T % P != 0
  reject([](WalkerShell& s) { s.phasing = s.planes; });    // F >= P
  reject([](WalkerShell& s) { s.phasing = -1; });          // F < 0
  reject([](WalkerShell& s) { s.altitude_km = 0.0; });
  reject([](WalkerShell& s) { s.inclination_deg = 0.0; });
  reject([](WalkerShell& s) { s.inclination_deg = 181.0; });
  reject([](WalkerShell& s) { s.footprint_deg = 0.0; });
  reject([](WalkerShell& s) { s.footprint_deg = 91.0; });
  reject([](WalkerShell& s) { s.spares_per_plane = -1; });
  reject([](WalkerShell& s) { s.period_min = -1.0; });
  // The builder validates eagerly.
  WalkerShell bad = small_shell();
  bad.total_sats = 7;
  EXPECT_THROW(ConstellationBuilder().add_shell(bad), std::invalid_argument);
}

TEST(ConstellationBuilder, MultiShellLayoutIsContiguous) {
  WalkerShell low = small_shell();  // 2 planes × 3
  WalkerShell high = small_shell();
  high.planes = 3;
  high.total_sats = 12;  // 3 planes × 4
  high.altitude_km = 1200.0;
  high.footprint_deg = 25.0;
  const Constellation c =
      ConstellationBuilder().add_shell(low).add_shell(high).build();

  EXPECT_EQ(c.num_shells(), 2);
  EXPECT_EQ(c.num_planes(), 5);
  EXPECT_EQ(c.total_active(), 6 + 12);
  EXPECT_EQ(c.shell_first_plane(0), 0);
  EXPECT_EQ(c.shell_first_plane(1), 2);
  EXPECT_EQ(c.shell_plane_count(1), 3);
  EXPECT_EQ(c.shell_of_plane(1), 0);
  EXPECT_EQ(c.shell_of_plane(2), 1);
  EXPECT_EQ(c.shell_of_plane(4), 1);
  // Global plane indices, shell-local geometry.
  EXPECT_EQ(c.plane(3).plane_index(), 3);
  EXPECT_EQ(c.plane(3).active_count(), 4);
  EXPECT_EQ(c.plane(0).active_count(), 3);
  // Per-plane footprints follow the owning shell.
  EXPECT_NE(c.footprint_of_plane(0).angular_radius_rad(),
            c.footprint_of_plane(2).angular_radius_rad());
  EXPECT_EQ(&c.footprint_of_plane(0), &c.footprint());
  // max_period spans shells; the higher shell orbits slower.
  EXPECT_EQ(c.max_period().to_seconds(),
            c.shell_design(1).period.to_seconds());
  EXPECT_GT(c.max_period(), c.shell_design(0).period);
}

TEST(ConstellationBuilder, RejectsPlaneRangeOverflow) {
  // Two Starlink-class shells exceed the 128-plane addressable range.
  ConstellationBuilder b;
  b.add_shell(constellation_preset("starlink")[0]);
  b.add_shell(constellation_preset("starlink")[0]);
  EXPECT_THROW((void)b.build(), PreconditionError);
}

TEST(ConstellationBuilder, DependabilityIsShellAware) {
  WalkerShell low = small_shell();  // 2 planes × 3
  WalkerShell high = small_shell();
  high.planes = 3;
  high.total_sats = 12;  // 3 planes × 4
  high.spares_per_plane = 1;
  const Constellation c =
      ConstellationBuilder().add_shell(low).add_shell(high).build();

  // Plane-capacity math follows the shell design, not the 14+2 reference.
  const PlaneDependability dep = plane_dependability_of(c.shell_design(1));
  EXPECT_EQ(dep.design_active, 4);
  EXPECT_EQ(dep.policy.in_orbit_spares, 1);
  EXPECT_EQ(dep.policy.ground_threshold, 1);  // max(1, 4 - 4) floors at 1
  const PlaneDependability ref = plane_dependability_of(ConstellationDesign{});
  EXPECT_EQ(ref.design_active, 14);
  EXPECT_EQ(ref.policy.in_orbit_spares, 2);
  EXPECT_EQ(ref.policy.ground_threshold, 10);  // the paper's η
}

TEST(ConstellationFormat, WriteParseRoundTripsBitExactly) {
  std::vector<WalkerShell> shells = {small_shell()};
  WalkerShell second;
  second.total_sats = 66;
  second.planes = 6;
  second.phasing = 2;
  second.altitude_km = 780.25;  // non-integral fields must survive
  second.inclination_deg = 86.4;
  second.star = false;
  second.spares_per_plane = 1;
  second.footprint_deg = 22.5;
  second.period_min = 100.4375;
  shells.push_back(second);

  std::ostringstream os;
  write_constellation(shells, os);
  std::istringstream is(os.str());
  const std::vector<WalkerShell> back = parse_constellation(is);
  ASSERT_EQ(back.size(), shells.size());
  EXPECT_EQ(back[0], shells[0]);
  EXPECT_EQ(back[1], shells[1]);
}

TEST(ConstellationFormat, ParsesCommentsAndOptionalPeriod) {
  std::istringstream is(
      "# two-shell design\n"
      "shell 6 2 1 600 97 star 0 18\n"
      "\n"
      "shell 66 6 1 780 86.4 delta 1 22.5 period 100  # slow shell\n");
  const auto shells = parse_constellation(is);
  ASSERT_EQ(shells.size(), 2u);
  EXPECT_EQ(shells[0].total_sats, 6);
  EXPECT_TRUE(shells[0].star);
  EXPECT_EQ(shells[0].period_min, 0.0);
  EXPECT_FALSE(shells[1].star);
  EXPECT_EQ(shells[1].spares_per_plane, 1);
  EXPECT_EQ(shells[1].period_min, 100.0);
}

TEST(ConstellationFormat, ParseErrorsNameTheLine) {
  const auto expect_error_mentions = [](const std::string& text,
                                        const std::string& needle) {
    std::istringstream is(text);
    try {
      (void)parse_constellation(is);
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  expect_error_mentions("orbit 6 2 1 600 97 star 0 18\n", "line 1");
  expect_error_mentions("shell 6 2 1 600 97 star 0\n", "line 1");  // missing ψ
  expect_error_mentions("shell 6 2 1 600 97 polar 0 18\n", "line 1");
  expect_error_mentions("shell 6 2 1 600 97 star 0 18 extra\n", "line 1");
  expect_error_mentions("shell 7 2 1 600 97 star 0 18\n", "line 1");  // T % P
  expect_error_mentions("shell 6.5 2 1 600 97 star 0 18\n", "line 1");
  expect_error_mentions("# only comments\n", "no shells");
  expect_error_mentions("shell 6 2 1 600 97 star 0 18\nshell 6 2 9 600 97 star 0 18\n",
                        "line 2");  // F >= P
}

}  // namespace
}  // namespace oaq
