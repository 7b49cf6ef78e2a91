// design_space.h — FE-thickness design-space exploration (paper §3) and
// the retention study (paper §6.2.4).
#pragma once

#include <vector>

#include "core/fefet.h"
#include "ferro/retention.h"

namespace fefet::core {

/// One thickness sample of the design space.
struct DesignPoint {
  double feThickness = 0.0;
  bool hysteretic = false;
  bool nonvolatile = false;
  double upSwitchVoltage = 0.0;    ///< V_G destabilizing the OFF state
  double downSwitchVoltage = 0.0;  ///< V_G destabilizing the ON state
  double windowWidth = 0.0;
  double onOffRatio = 0.0;         ///< 0 unless nonvolatile
  double standaloneCoerciveVoltage = 0.0;  ///< t_FE * E_c of a bare film
};

/// Characterize a single thickness sample — the per-point body of
/// sweepThickness.
DesignPoint characterizeThickness(const FefetParams& base, double thickness,
                                  double vread = 0.40);

/// Sweep T_FE and characterize each point (Fig. 4 context + §3 narrative),
/// with the points fanned across a sim::SweepEngine pool (`threads` = 0
/// uses the default count).  Each point is a pure function of its
/// thickness, so results are identical for any thread count.
std::vector<DesignPoint> sweepThickness(const FefetParams& base,
                                        const std::vector<double>& thicknesses,
                                        double vread = 0.40, int threads = 0);

/// The §3 design recommendation: smallest T_FE that is nonvolatile with at
/// least `voltageMargin` between the write level and both window edges.
/// Returns the chosen thickness (paper: 2.25 nm at 0.68 V write).
double recommendThickness(const FefetParams& base, double vWrite,
                          double voltageMargin, double tMin = 1.8e-9,
                          double tMax = 3.0e-9, int samples = 25);

/// Retention comparison of §6.2.4.  Device-level coercive voltage (half
/// the hysteresis window for the FEFET, the film coercive voltage for the
/// FERAM capacitor) enters the single-domain exponent.
struct RetentionComparison {
  double feramLog10Seconds = 0.0;   ///< reference design (10-year target)
  double fefetLog10Seconds = 0.0;   ///< FEFET at W = 65 nm
  double fefetWidthForParity = 0.0; ///< FEFET width matching FERAM retention
  double activationEfficiency = 0.0;
};

RetentionComparison compareRetention(const FefetParams& fefetParams,
                                     double feramCoerciveVoltage,
                                     double feramArea,
                                     double targetYears = 10.0);

}  // namespace fefet::core
