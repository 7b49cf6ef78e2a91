// calibrate.h — reconstruction of the unpublished LK kinetic coefficient.
//
// The paper's Table 2 fixes the Landau statics but not rho (the viscosity
// that sets switching speed).  It does, however, publish an anchor point:
// the 2T FEFET cell writes in ~550 ps at V_write = 0.68 V (Table 3), and the
// FERAM writes in ~550 ps at 1.64 V.  Switching time is monotonically
// increasing in rho, so rho is recovered by bisection against any
// user-supplied "measure switching time for this rho" functional (the
// cell transients of core::calibrateFefetRho / calibrateFeramRho).
#pragma once

#include <functional>

namespace fefet::ferro {

/// t_switch(rho): any measurement of switching time as a function of rho.
using SwitchingTimeOfRho = std::function<double(double)>;

/// The kinetic coefficient [ohm·m] in [rhoMin, rhoMax] at which
/// measure(rho) == targetTime, to within `relTolerance` in log(rho).
/// Requires the target to be bracketed.
double calibrateRho(const SwitchingTimeOfRho& measure, double targetTime,
                    double rhoMin = 1.0, double rhoMax = 1e4,
                    double relTolerance = 1e-3);

}  // namespace fefet::ferro
