#include "common/math.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace fefet::math {

double sign(double x) { return (x > 0.0) - (x < 0.0); }

double softplus(double x) {
  if (x > 35.0) return x;           // exp(x) overflows double's useful range
  if (x < -35.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double logistic(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

namespace {
void requireBracket(double flo, double fhi, double lo, double hi) {
  if (flo * fhi > 0.0) {
    std::ostringstream os;
    os << "root not bracketed on [" << lo << ", " << hi << "]: f(lo)=" << flo
       << ", f(hi)=" << fhi;
    throw NumericalError(os.str());
  }
}
}  // namespace

double bisect(const std::function<double(double)>& f, double lo, double hi,
              const RootOptions& options) {
  FEFET_REQUIRE(lo < hi, "bisect: empty interval");
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  requireBracket(flo, fhi, lo, hi);
  for (int i = 0; i < options.maxIterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if (fmid == 0.0 || std::abs(fmid) <= options.fTolerance ||
        (hi - lo) < options.xTolerance * std::max(1.0, std::abs(mid))) {
      return mid;
    }
    if (flo * fmid < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return 0.5 * (lo + hi);
}

double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& options) {
  FEFET_REQUIRE(lo < hi, "brent: empty interval");
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  requireBracket(fa, fb, lo, hi);
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int iter = 0; iter < options.maxIterations; ++iter) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol =
        2.0 * 1e-16 * std::abs(b) + 0.5 * options.xTolerance;
    const double m = 0.5 * (c - b);
    if (std::abs(m) <= tol || fb == 0.0 ||
        std::abs(fb) <= options.fTolerance) {
      return b;
    }
    if (std::abs(e) < tol || std::abs(fa) <= std::abs(fb)) {
      d = m;
      e = m;
    } else {
      double p, q;
      const double s = fb / fa;
      if (a == c) {           // secant
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {                // inverse quadratic
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      if (2.0 * p < std::min(3.0 * m * q - std::abs(tol * q),
                             std::abs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol) ? d : (m > 0.0 ? tol : -tol);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      e = d = b - a;
    }
  }
  return b;
}

std::vector<double> findAllRoots(const std::function<double(double)>& f,
                                 double lo, double hi, int samples,
                                 const RootOptions& options) {
  FEFET_REQUIRE(samples >= 2, "findAllRoots: need at least 2 samples");
  std::vector<double> roots;
  double xPrev = lo;
  double fPrev = f(lo);
  for (int i = 1; i <= samples; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / samples;
    const double fx = f(x);
    if (fPrev == 0.0) {
      roots.push_back(xPrev);
    } else if (fPrev * fx < 0.0) {
      roots.push_back(brent(f, xPrev, x, options));
    }
    xPrev = x;
    fPrev = fx;
  }
  if (fPrev == 0.0) roots.push_back(xPrev);
  return roots;
}

double trapz(std::span<const double> x, std::span<const double> y) {
  FEFET_REQUIRE(x.size() == y.size() && x.size() >= 2,
                "trapz: mismatched or short inputs");
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    acc += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  }
  return acc;
}

double interp1(std::span<const double> x, std::span<const double> y,
               double q) {
  FEFET_REQUIRE(x.size() == y.size() && x.size() >= 2,
                "interp1: mismatched or short inputs");
  if (q <= x.front()) return y.front();
  if (q >= x.back()) return y.back();
  const auto it = std::upper_bound(x.begin(), x.end(), q);
  const std::size_t i = static_cast<std::size_t>(it - x.begin());
  const double t = (q - x[i - 1]) / (x[i] - x[i - 1]);
  return y[i - 1] + t * (y[i] - y[i - 1]);
}

double firstCrossing(std::span<const double> x, std::span<const double> y,
                     double level, bool rising) {
  FEFET_REQUIRE(x.size() == y.size() && x.size() >= 2,
                "firstCrossing: mismatched or short inputs");
  for (std::size_t i = 1; i < y.size(); ++i) {
    const bool crossed = rising ? (y[i - 1] < level && y[i] >= level)
                                : (y[i - 1] > level && y[i] <= level);
    if (crossed) {
      const double t = (level - y[i - 1]) / (y[i] - y[i - 1]);
      return x[i - 1] + t * (x[i] - x[i - 1]);
    }
  }
  std::ostringstream os;
  os << "waveform never crosses level " << level << " ("
     << (rising ? "rising" : "falling") << ")";
  throw SimulationError(os.str());
}

bool hasCrossing(std::span<const double> y, double level) {
  for (std::size_t i = 1; i < y.size(); ++i) {
    if ((y[i - 1] < level && y[i] >= level) ||
        (y[i - 1] > level && y[i] <= level)) {
      return true;
    }
  }
  return false;
}

}  // namespace fefet::math
