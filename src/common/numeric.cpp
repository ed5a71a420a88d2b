#include "common/numeric.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace oaq {
namespace {

double simpson(double a, double fa, double b, double fb, double fm) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive_step(const Integrand& f, double a, double fa, double b,
                     double fb, double m, double fm, double whole, double tol,
                     int depth) {
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(a, fa, m, fm, flm);
  const double right = simpson(m, fm, b, fb, frm);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive_step(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) +
         adaptive_step(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1);
}

// Abscissae/weights for Gauss–Legendre on [-1, 1], positive half; the
// negative half mirrors. Generated to 16 significant digits.
struct GaussTable {
  const double* x;
  const double* w;
  int half;   // number of positive-abscissa points
  bool has_zero;
};

constexpr std::array<double, 2> kX4 = {0.3399810435848563, 0.8611363115940526};
constexpr std::array<double, 2> kW4 = {0.6521451548625461, 0.3478548451374538};

constexpr std::array<double, 4> kX8 = {0.1834346424956498, 0.5255324099163290,
                                       0.7966664774136267, 0.9602898564975363};
constexpr std::array<double, 4> kW8 = {0.3626837833783620, 0.3137066458778873,
                                       0.2223810344533745, 0.1012285362903763};

constexpr std::array<double, 8> kX16 = {
    0.0950125098376374, 0.2816035507792589, 0.4580167776572274,
    0.6178762444026438, 0.7554044083550030, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499};
constexpr std::array<double, 8> kW16 = {
    0.1894506104550685, 0.1826034150449236, 0.1691565193950025,
    0.1495959888165767, 0.1246289712555339, 0.0951585116824928,
    0.0622535239386479, 0.0271524594117541};

constexpr std::array<double, 16> kX32 = {
    0.0483076656877383, 0.1444719615827965, 0.2392873622521371,
    0.3318686022821277, 0.4213512761306353, 0.5068999089322294,
    0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
    0.7944837959679424, 0.8493676137325700, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
    0.9972638618494816};
constexpr std::array<double, 16> kW32 = {
    0.0965400885147278, 0.0956387200792749, 0.0938443990808046,
    0.0911738786957639, 0.0876520930044038, 0.0833119242269467,
    0.0781938957870703, 0.0723457941088485, 0.0658222227763618,
    0.0586840934785355, 0.0509980592623762, 0.0428358980222267,
    0.0342738629130214, 0.0253920653092621, 0.0162743947309057,
    0.0070186100094701};

}  // namespace

double integrate(const Integrand& f, double a, double b, double tol) {
  OAQ_REQUIRE(tol > 0.0, "integration tolerance must be positive");
  if (a == b) return 0.0;
  double sign = 1.0;
  if (a > b) {
    std::swap(a, b);
    sign = -1.0;
  }
  const double fa = f(a);
  const double fb = f(b);
  const double m = 0.5 * (a + b);
  const double fm = f(m);
  const double whole = simpson(a, fa, b, fb, fm);
  return sign * adaptive_step(f, a, fa, b, fb, m, fm, whole, tol, 48);
}

double integrate_gauss(const Integrand& f, double a, double b, int order) {
  GaussTable table{};
  switch (order) {
    case 4: table = {kX4.data(), kW4.data(), 2, false}; break;
    case 8: table = {kX8.data(), kW8.data(), 4, false}; break;
    case 16: table = {kX16.data(), kW16.data(), 8, false}; break;
    case 32: table = {kX32.data(), kW32.data(), 16, false}; break;
    case 64: {
      // Composite: two 32-point panels.
      const double m = 0.5 * (a + b);
      return integrate_gauss(f, a, m, 32) + integrate_gauss(f, m, b, 32);
    }
    default:
      OAQ_REQUIRE(false, "unsupported Gauss-Legendre order");
  }
  const double c = 0.5 * (a + b);
  const double h = 0.5 * (b - a);
  double sum = 0.0;
  for (int i = 0; i < table.half; ++i) {
    sum += table.w[i] * (f(c - h * table.x[i]) + f(c + h * table.x[i]));
  }
  return h * sum;
}

double find_root(const Integrand& f, double a, double b, double tol) {
  const double fa = f(a);
  const double fb = f(b);
  return find_root(f, a, b, fa, fb, tol);
}

double find_root(const Integrand& f, double a, double b, double fa, double fb,
                 double tol) {
  OAQ_REQUIRE(fa * fb <= 0.0, "find_root requires a bracketing interval");
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa, d = c;
  bool mflag = true;
  for (int iter = 0; iter < 200; ++iter) {
    if (fb == 0.0 || std::abs(b - a) < tol) return b;
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      s = b - fb * (b - a) / (fb - fa);  // secant
    }
    const double lo = (3.0 * a + b) / 4.0;
    const bool out_of_range = !((s > std::min(lo, b)) && (s < std::max(lo, b)));
    const bool slow = mflag ? std::abs(s - b) >= std::abs(b - c) / 2.0
                            : std::abs(s - b) >= std::abs(c - d) / 2.0;
    const bool tiny = mflag ? std::abs(b - c) < tol : std::abs(c - d) < tol;
    if (out_of_range || slow || tiny) {
      s = 0.5 * (a + b);  // bisection
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return b;
}

std::vector<double> linspace(double lo, double hi, int n) {
  OAQ_REQUIRE(n >= 2, "linspace needs at least two points");
  std::vector<double> out(static_cast<std::size_t>(n));
  const double step = (hi - lo) / (n - 1);
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = lo + step * i;
  out.back() = hi;
  return out;
}

std::vector<double> logspace(double lo, double hi, int n) {
  OAQ_REQUIRE(lo > 0.0 && hi > 0.0, "logspace needs positive bounds");
  auto grid = linspace(std::log(lo), std::log(hi), n);
  for (auto& g : grid) g = std::exp(g);
  grid.back() = hi;
  return grid;
}

bool approx_equal(double a, double b, double rtol, double atol) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

}  // namespace oaq
