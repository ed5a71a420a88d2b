// Numerical analysis kernels: quadrature, root finding, grids.
//
// The analytic QoS model (src/analytic) integrates products of exponentials
// over piecewise-defined opportunity windows; adaptive Simpson quadrature is
// accurate and fast for those smooth integrands, and Gauss–Legendre provides
// an independent cross-check used in tests.
#pragma once

#include <functional>
#include <vector>

namespace oaq {

/// Integrand type used by the quadrature routines.
using Integrand = std::function<double(double)>;

/// Adaptive Simpson quadrature of `f` over [a, b] to absolute tolerance `tol`.
///
/// Handles a >= b by returning a signed/zero result. Recursion depth is
/// bounded; worst case degrades to the composite estimate rather than looping.
[[nodiscard]] double integrate(const Integrand& f, double a, double b,
                               double tol = 1e-10);

/// Fixed-order Gauss–Legendre quadrature (order n in {4, 8, 16, 32, 64}).
[[nodiscard]] double integrate_gauss(const Integrand& f, double a, double b,
                                     int order = 32);

/// Brent's method root find of `f` on a bracketing interval [a, b].
/// Requires f(a) and f(b) to have opposite signs.
[[nodiscard]] double find_root(const Integrand& f, double a, double b,
                               double tol = 1e-12);

/// The same root find for a caller that already holds `fa` = f(a) and
/// `fb` = f(b): `f` is not evaluated at the endpoints again. Returns
/// find_root(f, a, b, tol) bit for bit when `f` is a pure function.
[[nodiscard]] double find_root(const Integrand& f, double a, double b,
                               double fa, double fb, double tol);

/// `n` evenly spaced points from `lo` to `hi` inclusive (n >= 2).
[[nodiscard]] std::vector<double> linspace(double lo, double hi, int n);

/// `n` logarithmically spaced points from `lo` to `hi` inclusive (n >= 2,
/// lo, hi > 0).
[[nodiscard]] std::vector<double> logspace(double lo, double hi, int n);

/// True when |a - b| <= atol + rtol * max(|a|, |b|).
[[nodiscard]] bool approx_equal(double a, double b, double rtol = 1e-9,
                                double atol = 1e-12);

}  // namespace oaq
