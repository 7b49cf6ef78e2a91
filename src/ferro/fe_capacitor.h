// fe_capacitor.h — a standalone ferroelectric capacitor of thickness t_FE
// and plate area A, governed by the LK dynamics:
//
//     V(t) = t_FE * [ E_s(P) + rho * dP/dt ]
//  => dP/dt = ( V / t_FE - E_s(P) ) / rho
//
// The terminal current is i = A * dP/dt (plus an optional linear background
// dielectric term A * eps / t_FE * dV/dt, modeled in the circuit-level
// device; this class covers the pure polarization response used for device
// physics studies and the FERAM storage element).
#pragma once

#include <functional>

#include "ferro/lk_model.h"

namespace fefet::ferro {

/// Geometry of a ferroelectric film.
struct FeGeometry {
  double thickness = 2.25e-9;  ///< t_FE [m]
  double area = 65e-9 * 45e-9; ///< plate area [m^2] (W x L of the 45nm gate)
};

/// Standalone FE capacitor with explicit polarization state.
class FeCapacitor {
 public:
  FeCapacitor(const LkCoefficients& coefficients, const FeGeometry& geometry);

  const LandauKhalatnikov& lk() const { return lk_; }
  const FeGeometry& geometry() const { return geom_; }

  double polarization() const { return p_; }
  void setPolarization(double p) { p_ = p; }

  /// Voltage across the film for a given state and rate.
  double voltage(double polarization, double dPdt) const;

  /// Coercive voltage of the standalone film: t_FE * E_c.
  double coerciveVoltage() const;

  /// Advance the state by dt under a (possibly time-varying) applied
  /// voltage v(t) using RK4 substeps.  Returns the new polarization.
  double step(const std::function<double(double)>& voltageOfTime, double t0,
              double dt, int substeps = 4);

  /// Advance under a constant voltage.
  double stepConstant(double appliedVoltage, double dt, int substeps = 4);

  /// Time for the polarization to swing from -P_r to +P_r * `fraction`
  /// under a constant applied voltage.  Throws SimulationError when the
  /// voltage is below the coercive voltage (no switching).
  double switchingTime(double appliedVoltage, double fraction = 0.9,
                       double maxTime = 1e-6) const;

  /// Charge delivered through the terminals when P changes by dP: A * dP.
  double chargeFromPolarizationChange(double dP) const;

 private:
  LandauKhalatnikov lk_;
  FeGeometry geom_;
  double p_ = 0.0;
};

}  // namespace fefet::ferro
