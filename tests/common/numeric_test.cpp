#include "common/numeric.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace oaq {
namespace {

TEST(Integrate, Polynomial) {
  const auto f = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(integrate(f, 0.0, 2.0), 8.0, 1e-9);
}

TEST(Integrate, ExponentialMatchesClosedForm) {
  // ∫0^5 e^{-0.5 x} dx = 2 (1 - e^{-2.5}) — the shape used throughout the
  // analytic QoS model.
  const auto f = [](double x) { return std::exp(-0.5 * x); };
  EXPECT_NEAR(integrate(f, 0.0, 5.0), 2.0 * (1.0 - std::exp(-2.5)), 1e-10);
}

TEST(Integrate, ReversedBoundsGiveNegative) {
  const auto f = [](double x) { return x; };
  EXPECT_NEAR(integrate(f, 2.0, 0.0), -2.0, 1e-9);
}

TEST(Integrate, EmptyIntervalIsZero) {
  const auto f = [](double) { return 1e9; };
  EXPECT_DOUBLE_EQ(integrate(f, 3.0, 3.0), 0.0);
}

TEST(Integrate, StiffIntegrandConverges) {
  // ν = 30 terms give integrands with a boundary layer of width 1/30.
  const auto f = [](double x) { return 30.0 * std::exp(-30.0 * x); };
  EXPECT_NEAR(integrate(f, 0.0, 5.0, 1e-12), 1.0, 1e-8);
}

TEST(Integrate, RejectsBadTolerance) {
  EXPECT_THROW((void)integrate([](double) { return 0.0; }, 0.0, 1.0, 0.0),
               PreconditionError);
}

TEST(IntegrateGauss, AgreesWithAdaptiveOnSmoothIntegrand) {
  const auto f = [](double x) { return std::sin(x) * std::exp(-0.3 * x); };
  for (int order : {4, 8, 16, 32, 64}) {
    EXPECT_NEAR(integrate_gauss(f, 0.0, 4.0, order), integrate(f, 0.0, 4.0),
                order >= 16 ? 1e-10 : 1e-4)
        << "order " << order;
  }
}

TEST(IntegrateGauss, RejectsUnknownOrder) {
  EXPECT_THROW((void)integrate_gauss([](double) { return 0.0; }, 0.0, 1.0, 7),
               PreconditionError);
}

TEST(FindRoot, SimpleTranscendental) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const double r = find_root(f, 0.0, 1.0);
  EXPECT_NEAR(r, 0.7390851332151607, 1e-10);
}

TEST(FindRoot, ExactEndpoint) {
  const auto f = [](double x) { return x - 2.0; };
  EXPECT_DOUBLE_EQ(find_root(f, 2.0, 5.0), 2.0);
}

TEST(FindRoot, KnownEndpointValuesMatchBitwise) {
  // Handing in f(a) and f(b) skips two evaluations and nothing else: the
  // root is the four-argument form's, bit for bit, on brackets that take
  // interpolation, bisection, an exact endpoint and a reversed interval.
  struct Bracket {
    std::function<double(double)> f;
    double a, b, tol;
  };
  const std::vector<Bracket> brackets = {
      {[](double x) { return std::cos(x) - x; }, 0.0, 1.0, 1e-12},
      {[](double x) { return x * x * x - 2.0 * x - 5.0; }, 2.0, 3.0, 1e-9},
      {[](double x) { return std::tanh(50.0 * (x - 0.3)); }, -1.0, 2.0, 1e-12},
      {[](double x) { return x - 2.0; }, 2.0, 5.0, 1e-12},
      {[](double x) { return std::exp(-x) - 0.5; }, 3.0, 0.0, 1e-6},
  };
  for (const Bracket& br : brackets) {
    int calls = 0;
    const Integrand counted = [&](double x) {
      ++calls;
      return br.f(x);
    };
    const double want = find_root(counted, br.a, br.b, br.tol);
    const int want_calls = calls;
    calls = 0;
    const double got =
        find_root(counted, br.a, br.b, br.f(br.a), br.f(br.b), br.tol);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "[" << br.a << ", " << br.b << "]";
    EXPECT_EQ(calls, want_calls - 2) << "[" << br.a << ", " << br.b << "]";
  }
  const auto g = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)find_root(g, -1.0, 1.0, g(-1.0), g(1.0), 1e-12),
               PreconditionError);
}

TEST(FindRoot, RequiresBracket) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)find_root(f, -1.0, 1.0), PreconditionError);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_THROW(linspace(0.0, 1.0, 1), PreconditionError);
}

TEST(Logspace, EndpointsExactAndMonotone) {
  const auto g = logspace(1e-5, 1e-4, 10);
  ASSERT_EQ(g.size(), 10u);
  EXPECT_DOUBLE_EQ(g.front(), 1e-5);
  EXPECT_DOUBLE_EQ(g.back(), 1e-4);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
  EXPECT_THROW(logspace(0.0, 1.0, 4), PreconditionError);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_equal(0.0, 1e-13));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1e6, 1e6 * (1.0 + 1e-10)));
}

}  // namespace
}  // namespace oaq
