#include "ferro/calibrate.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace fefet::ferro {

double calibrateRho(const SwitchingTimeOfRho& measure, double targetTime,
                    double rhoMin, double rhoMax, double relTolerance) {
  FEFET_REQUIRE(targetTime > 0.0, "calibrateRho: target time must be positive");
  FEFET_REQUIRE(rhoMin > 0.0 && rhoMax > rhoMin, "calibrateRho: bad bracket");

  const auto residual = [&](double rho) { return measure(rho) - targetTime; };

  const double fLo = residual(rhoMin);
  if (fLo > 0.0) {
    std::ostringstream os;
    os << "calibrateRho: even rho=" << rhoMin << " switches slower ("
       << fLo + targetTime << " s) than the target " << targetTime << " s";
    throw NumericalError(os.str());
  }
  const double fHi = residual(rhoMax);
  if (fHi < 0.0) {
    std::ostringstream os;
    os << "calibrateRho: even rho=" << rhoMax << " switches faster ("
       << fHi + targetTime << " s) than the target " << targetTime << " s";
    throw NumericalError(os.str());
  }

  // Bisection in log space: switching time scales ~linearly with rho, so
  // log-bisection converges uniformly across decades.
  double lo = std::log(rhoMin), hi = std::log(rhoMax);
  for (int i = 0; i < 60 && (hi - lo) > relTolerance; ++i) {
    const double mid = 0.5 * (lo + hi);
    (residual(std::exp(mid)) < 0.0 ? lo : hi) = mid;
  }
  return std::exp(0.5 * (lo + hi));
}

}  // namespace fefet::ferro
