#include "core/design_space.h"

#include <cmath>

#include "common/error.h"
#include "sim/sweep_engine.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {

DesignPoint characterizeThickness(const FefetParams& base, double thickness,
                                  double vread) {
  const ferro::LandauKhalatnikov lk(base.lk);
  FefetParams p = base;
  p.feThickness = thickness;
  DesignPoint dp;
  dp.feThickness = thickness;
  dp.standaloneCoerciveVoltage = lk.coerciveField() * thickness;
  const QuasiStaticCurve curve(p);
  const HysteresisWindow& window = curve.window();
  dp.hysteretic = window.hysteretic;
  dp.nonvolatile = window.nonvolatile;
  if (window.hysteretic) {
    dp.upSwitchVoltage = window.upSwitchVoltage;
    dp.downSwitchVoltage = window.downSwitchVoltage;
    dp.windowWidth = window.width();
  }
  if (window.nonvolatile) {
    dp.onOffRatio = curve.distinguishability(vread);
  }
  return dp;
}

std::vector<DesignPoint> sweepThickness(const FefetParams& base,
                                        const std::vector<double>& thicknesses,
                                        double vread, int threads) {
  sim::SweepOptions options;
  options.threads = threads;
  sim::SweepEngine engine(options);
  // Each point is a pure function of its thickness — no RNG, so the sweep
  // seed plays no role and the thread count does not change the result.
  return engine.run(thicknesses,
                    [&](double t, const sim::SweepContext&) {
                      return characterizeThickness(base, t, vread);
                    });
}

double recommendThickness(const FefetParams& base, double vWrite,
                          double voltageMargin, double tMin, double tMax,
                          int samples) {
  FEFET_REQUIRE(samples >= 2, "recommendThickness: too few samples");
  for (int i = 0; i <= samples; ++i) {
    const double t = tMin + (tMax - tMin) * i / samples;
    FefetParams p = base;
    p.feThickness = t;
    const auto window = analyzeHysteresis(p);
    if (!window.nonvolatile) continue;
    const bool writableOne = vWrite >= window.upSwitchVoltage + voltageMargin;
    const bool writableZero =
        -vWrite <= window.downSwitchVoltage - voltageMargin;
    const bool stableHold = window.downSwitchVoltage <= -voltageMargin * 0.5 &&
                            window.upSwitchVoltage >= voltageMargin * 0.5;
    if (writableOne && writableZero && stableHold) return t;
  }
  throw SimulationError(
      "no thickness in the range satisfies the write/stability margins");
}

RetentionComparison compareRetention(const FefetParams& fefetParams,
                                     double feramCoerciveVoltage,
                                     double feramArea, double targetYears) {
  const ferro::LandauKhalatnikov lk(fefetParams.lk);
  const double pr = lk.remnantPolarization();
  const double secondsPerYear = 365.25 * 24.0 * 3600.0;

  ferro::RetentionModel model;
  RetentionComparison cmp;
  cmp.activationEfficiency = model.calibrateToReference(
      feramCoerciveVoltage, pr, feramArea, targetYears * secondsPerYear);
  cmp.feramLog10Seconds =
      model.log10RetentionSeconds(feramCoerciveVoltage, pr, feramArea);

  // FEFET device-level coercive voltage: half the hysteresis window.
  const auto window = analyzeHysteresis(fefetParams);
  FEFET_REQUIRE(window.nonvolatile, "retention study needs nonvolatile FEFET");
  const double vcDevice = 0.5 * window.width();
  const double area = fefetParams.feGeometry().area;
  cmp.fefetLog10Seconds = model.log10RetentionSeconds(vcDevice, pr, area);
  cmp.fefetWidthForParity = ferro::RetentionModel::widthForMatchedRetention(
      feramCoerciveVoltage, feramArea, vcDevice, area, fefetParams.width);
  return cmp;
}

}  // namespace fefet::core
