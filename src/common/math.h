// math.h — scalar numerical utilities: root finding, quadrature, ODE steps,
// interpolation.  These are the building blocks for the ferroelectric
// physics (static solves of the Landau polynomial) and for measurement
// post-processing (threshold crossings, energy integrals).
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace fefet::math {

/// Sign of x as -1.0, 0.0 or +1.0.
double sign(double x);

/// Smooth softplus: log(1 + exp(x)) computed without overflow.
double softplus(double x);

/// Derivative of softplus, i.e. the logistic function 1/(1+exp(-x)).
double logistic(double x);

/// softplus(x) and logistic(x) of one argument, bit-identical to the two
/// scalar calls.  For x < 0 both terms come from one exp(x) (the x < -35
/// branch included); for x >= 0 softplus uses exp(x) and logistic exp(-x),
/// as the scalar functions do, so no bit changes.  Inline: this is the
/// per-lane kernel of the MOSFET model.
struct SoftplusLogistic {
  double softplus;
  double logistic;
};
inline SoftplusLogistic softplusLogistic(double x) {
  if (x >= 0.0) {
    const double sp = x > 35.0 ? x : std::log1p(std::exp(x));
    return {sp, 1.0 / (1.0 + std::exp(-x))};
  }
  const double e = std::exp(x);
  return {x < -35.0 ? e : std::log1p(e), e / (1.0 + e)};
}

struct RootOptions {
  double xTolerance = 1e-14;
  double fTolerance = 0.0;   ///< also accept |f| <= fTolerance
  int maxIterations = 200;
};

/// Bisection on [lo, hi]; requires f(lo) and f(hi) to have opposite signs
/// (or one of them to be zero).  Throws NumericalError otherwise.
double bisect(const std::function<double(double)>& f, double lo, double hi,
              const RootOptions& options = {});

/// Brent's method (inverse-quadratic + secant + bisection) on [lo, hi].
/// Same bracketing requirement as bisect(); converges much faster on smooth
/// functions.
double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& options = {});

/// Find all sign changes of f sampled at `samples` uniformly spaced points in
/// [lo, hi], then polish each bracket with Brent.  Returns roots in
/// ascending order.  Useful for multi-valued load-line intersections.
std::vector<double> findAllRoots(const std::function<double(double)>& f,
                                 double lo, double hi, int samples = 400,
                                 const RootOptions& options = {});

/// Trapezoidal integral of samples y(x) over possibly non-uniform x.
/// x and y must have equal size >= 2.
double trapz(std::span<const double> x, std::span<const double> y);

/// Linear interpolation of tabulated (x, y) at query point q.  x must be
/// strictly increasing.  Queries outside [x.front(), x.back()] clamp to
/// the boundary sample (q <= x.front() returns y.front(), q >= x.back()
/// returns y.back()) — this never extrapolates.
double interp1(std::span<const double> x, std::span<const double> y, double q);

/// First time/abscissa at which the sampled waveform y(x) crosses `level`
/// moving in direction `rising` (true: from below to >= level).  Linear
/// interpolation between samples.  Throws SimulationError when no crossing
/// exists.
double firstCrossing(std::span<const double> x, std::span<const double> y,
                     double level, bool rising);

/// Does the sampled waveform cross `level` at all (either direction)?
bool hasCrossing(std::span<const double> y, double level);

}  // namespace fefet::math
