// Property suite: invariants of the closed-form QoS model over a dense
// parameter grid (k × τ × µ × ν), via parameterized gtest.
#include <gtest/gtest.h>

#include "analytic/measure.hpp"
#include "analytic/qos_model.hpp"

namespace oaq {
namespace {

struct GridPoint {
  int k;
  double tau_min;
  double mu_per_min;
  double nu_per_min;
};

class QosModelGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  [[nodiscard]] QosModel model() const {
    const auto p = GetParam();
    QosModelParams params;
    params.tau = Duration::minutes(p.tau_min);
    params.mu = Rate::per_minute(p.mu_per_min);
    params.nu = Rate::per_minute(p.nu_per_min);
    return QosModel(PlaneGeometry{}, params);
  }
};

TEST_P(QosModelGrid, PmfIsValidForBothSchemes) {
  const auto m = model();
  const int k = GetParam().k;
  for (const Scheme s : {Scheme::kOaq, Scheme::kBaq}) {
    const auto pmf = m.conditional_pmf(k, s);
    double sum = 0.0;
    for (double v : pmf) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(QosModelGrid, OaqStochasticallyDominatesBaq) {
  const auto m = model();
  const int k = GetParam().k;
  for (int y = 1; y <= 3; ++y) {
    EXPECT_GE(m.conditional_tail(k, y, Scheme::kOaq),
              m.conditional_tail(k, y, Scheme::kBaq) - 1e-12)
        << "y=" << y;
  }
}

TEST_P(QosModelGrid, DetectionFloorIsSchemeIndependent) {
  const auto m = model();
  const int k = GetParam().k;
  EXPECT_NEAR(m.conditional_tail(k, 1, Scheme::kOaq),
              m.conditional_tail(k, 1, Scheme::kBaq), 1e-12);
}

TEST_P(QosModelGrid, TableOneSupportRespected) {
  const auto m = model();
  const int k = GetParam().k;
  const auto oaq = m.conditional_pmf(k, Scheme::kOaq);
  if (m.geometry().overlapping(k)) {
    EXPECT_EQ(oaq[2], 0.0);  // no sequential dual when overlapping
    EXPECT_EQ(oaq[0], 0.0);  // nothing escapes a covered centerline
  } else {
    EXPECT_EQ(oaq[3], 0.0);  // no simultaneous dual when underlapping
  }
  EXPECT_EQ(m.conditional(k, 2, Scheme::kBaq), 0.0);  // BAQ: level 2 N/A
}

TEST_P(QosModelGrid, LongerDeadlineNeverHurts) {
  const auto p = GetParam();
  QosModelParams a, b;
  a.tau = Duration::minutes(p.tau_min);
  b.tau = Duration::minutes(p.tau_min + 0.7);
  a.mu = b.mu = Rate::per_minute(p.mu_per_min);
  a.nu = b.nu = Rate::per_minute(p.nu_per_min);
  const QosModel ma(PlaneGeometry{}, a), mb(PlaneGeometry{}, b);
  for (const Scheme s : {Scheme::kOaq, Scheme::kBaq}) {
    for (int y = 1; y <= 3; ++y) {
      EXPECT_GE(mb.conditional_tail(p.k, y, s),
                ma.conditional_tail(p.k, y, s) - 1e-12)
          << "y=" << y;
    }
  }
}

TEST_P(QosModelGrid, ShorterSignalsNeverHelp) {
  const auto p = GetParam();
  QosModelParams fast, slow;
  fast.tau = slow.tau = Duration::minutes(p.tau_min);
  fast.mu = Rate::per_minute(p.mu_per_min * 2.0);
  slow.mu = Rate::per_minute(p.mu_per_min);
  fast.nu = slow.nu = Rate::per_minute(p.nu_per_min);
  const QosModel mf(PlaneGeometry{}, fast), ms(PlaneGeometry{}, slow);
  for (int y = 1; y <= 3; ++y) {
    EXPECT_GE(ms.conditional_tail(p.k, y, Scheme::kOaq),
              mf.conditional_tail(p.k, y, Scheme::kOaq) - 1e-12)
        << "y=" << y;
  }
}

TEST_P(QosModelGrid, MoreSatellitesNeverHurtHighEndQos) {
  // P(Y >= 2 | k) is nondecreasing in k for OAQ (more density = more
  // opportunity) across the grid.
  const auto m = model();
  const int k = GetParam().k;
  EXPECT_GE(m.conditional_tail(k + 1, 2, Scheme::kOaq),
            m.conditional_tail(k, 2, Scheme::kOaq) - 1e-9);
}

std::vector<GridPoint> make_grid() {
  std::vector<GridPoint> grid;
  for (int k : {7, 9, 10, 11, 12, 14}) {
    for (double tau : {1.0, 3.0, 5.0, 8.0}) {
      for (double mu : {0.1, 0.5}) {
        for (double nu : {5.0, 30.0}) {
          grid.push_back({k, tau, mu, nu});
        }
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, QosModelGrid,
                         ::testing::ValuesIn(make_grid()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           std::string name = "k";
                           return name.append(std::to_string(p.k))
                               .append("_tau")
                               .append(std::to_string(
                                   static_cast<int>(p.tau_min * 10)))
                               .append("_mu")
                               .append(std::to_string(
                                   static_cast<int>(p.mu_per_min * 10)))
                               .append("_nu")
                               .append(std::to_string(
                                   static_cast<int>(p.nu_per_min)));
                         });

}  // namespace
}  // namespace oaq
