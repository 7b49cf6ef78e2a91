#include "ferro/fe_capacitor.h"

#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/math.h"

namespace fefet::ferro {

FeCapacitor::FeCapacitor(const LkCoefficients& coefficients,
                         const FeGeometry& geometry)
    : lk_(coefficients), geom_(geometry) {
  FEFET_REQUIRE(geom_.thickness > 0.0, "FE thickness must be positive");
  FEFET_REQUIRE(geom_.area > 0.0, "FE area must be positive");
}

double FeCapacitor::voltage(double polarization, double dPdt) const {
  return geom_.thickness * lk_.dynamicField(polarization, dPdt);
}

double FeCapacitor::coerciveVoltage() const {
  return geom_.thickness * lk_.coerciveField();
}

double FeCapacitor::step(const std::function<double(double)>& voltageOfTime,
                         double t0, double dt, int substeps) {
  FEFET_REQUIRE(substeps >= 1, "step: substeps must be positive");
  const double h = dt / substeps;
  double t = t0;
  const auto rate = [this, &voltageOfTime](double time, double p) {
    return (voltageOfTime(time) / geom_.thickness - lk_.staticField(p)) /
           lk_.coefficients().rho;
  };
  for (int i = 0; i < substeps; ++i) {
    p_ = math::rk4Step(rate, t, p_, h);
    t += h;
  }
  return p_;
}

double FeCapacitor::stepConstant(double appliedVoltage, double dt,
                                 int substeps) {
  return step([appliedVoltage](double) { return appliedVoltage; }, 0.0, dt,
              substeps);
}

double FeCapacitor::switchingTime(double appliedVoltage, double fraction,
                                  double maxTime) const {
  FEFET_REQUIRE(fraction > 0.0 && fraction < 1.0,
                "switchingTime: fraction in (0,1)");
  if (appliedVoltage <= coerciveVoltage()) {
    std::ostringstream os;
    os << "applied voltage " << appliedVoltage
       << " V is below the coercive voltage " << coerciveVoltage()
       << " V: the capacitor never switches";
    throw SimulationError(os.str());
  }
  const double pr = lk_.remnantPolarization();
  const double target = fraction * pr;
  // Integrate dP/dt with an adaptive-ish fixed step sized from the initial
  // rate; the trajectory is stiff near the coercive plateau, so use many
  // substeps and a conservative cap.
  FeCapacitor work = *this;
  work.setPolarization(-pr);
  const double rho = lk_.coefficients().rho;
  // Characteristic time: rho / |alpha| is the small-signal relaxation time.
  const double tau = rho / std::abs(lk_.coefficients().alpha);
  const double dt = tau / 50.0;
  double t = 0.0;
  while (t < maxTime) {
    work.stepConstant(appliedVoltage, dt, 1);
    t += dt;
    if (work.polarization() >= target) return t;
  }
  std::ostringstream os;
  os << "switching did not complete within " << maxTime << " s at "
     << appliedVoltage << " V";
  throw SimulationError(os.str());
}

double FeCapacitor::chargeFromPolarizationChange(double dP) const {
  return geom_.area * dP;
}

}  // namespace fefet::ferro
