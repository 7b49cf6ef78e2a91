// lk_model.h — time-dependent Landau–Khalatnikov (LK) model of the
// ferroelectric layer, paper eq. (1):
//
//     E = alpha*P + beta*P^3 + gamma*P^5 + rho*dP/dt
//
// with E the electric field across the FE [V/m], P the polarization
// [C/m^2], (alpha, beta, gamma) the Landau expansion coefficients and rho
// the kinetic (viscosity) coefficient that sets the switching time scale.
//
// The DAC'16 paper gives (Table 2):
//   alpha = -7e9 m/F, beta = 3.3e10 m^5/F/C^2, gamma = -0.2e10 m^9/F/C^4.
// From these statics the derived quantities used as oracles throughout the
// library are:  P_r ≈ 0.4636 C/m^2 and E_c ≈ 1.2435 GV/m (i.e. 1.24 V of
// coercive voltage per nm of FE thickness — the paper quotes 1.26 V at
// 1 nm).  rho is not published; ferro::calibrateRho() reconstructs it from
// the paper's 550 ps @ 0.68 V write-time anchor.
#pragma once

#include <cstddef>
#include <vector>

namespace fefet::ferro {

/// Landau expansion coefficients plus kinetics.  All SI.
struct LkCoefficients {
  double alpha = -7.0e9;    ///< [m/F]
  double beta = 3.3e10;     ///< [m^5 F^-1 C^-2]
  double gamma = -0.2e10;   ///< [m^9 F^-1 C^-4]
  /// Kinetic coefficient [ohm·m].  The default is the value reconstructed
  /// by core::calibrateFefetRho(): the 2T cell then writes (worst polarity)
  /// in 550 ps at V_write = 0.68 V — the paper's Table 3 anchor.
  double rho = 0.885;
};

/// Geometry of a ferroelectric film.
struct FeGeometry {
  double thickness = 2.25e-9;  ///< t_FE [m]
  double area = 65e-9 * 45e-9; ///< plate area [m^2] (W x L of the 45nm gate)
};

/// Static and dynamic evaluation of the LK equation for one FE film.
class LandauKhalatnikov {
 public:
  explicit LandauKhalatnikov(const LkCoefficients& coefficients = {});

  const LkCoefficients& coefficients() const { return c_; }

  /// Static field E_s(P) = alpha*P + beta*P^3 + gamma*P^5 [V/m].
  double staticField(double polarization) const;

  /// dE_s/dP [V·m/C] — the reciprocal of the FE's differential capacitance
  /// per unit area and thickness; negative around P = 0 (negative
  /// capacitance region).
  double staticFieldSlope(double polarization) const;

  /// Batch kernel of the static field and its slope for the SoA device
  /// path (see spice/device_batch.h): field[k] =
  /// models[k]->staticField(p[k]), slope[k] =
  /// models[k]->staticFieldSlope(p[k]).  Defined in the model TU so the
  /// polynomial kernels inline into one tight loop; each lane is
  /// bit-identical to the scalar calls.
  static void staticFieldBatch(std::size_t n,
                               const LandauKhalatnikov* const* models,
                               const double* p, double* field, double* slope);

  /// Landau free-energy density U(P) = a/2 P^2 + b/4 P^4 + c/6 P^6 [J/m^3];
  /// double-well with minima at ±P_r for ferroelectric coefficient sets.
  double energyDensity(double polarization) const;

  /// Remnant polarization P_r: the positive nontrivial root of E_s(P) = 0.
  /// Throws NumericalError if the coefficient set is not ferroelectric.
  double remnantPolarization() const;

  /// Saturation polarization bound used for sweeps (slightly above P_r).
  double saturationPolarization() const;

  /// Coercive field E_c: the height of the local maximum of E_s on the
  /// branch 0 < P < P_r (the field needed to destabilize the -P_r well).
  double coerciveField() const;

  /// Polarization at which the coercive extremum occurs (positive branch).
  double coercivePolarization() const;

  /// Energy barrier between a well and the saddle at P = 0 [J/m^3]:
  /// U(0) - U(P_r).  Governs retention within single-domain approximation.
  double wellBarrier() const;

  /// All static solutions P of E_s(P) = E for a given applied field.
  /// 1 solution: monostable; 3 solutions: bistable region (outer two stable,
  /// middle unstable).
  std::vector<double> staticPolarizations(double field) const;

  /// True when the coefficient set gives a double-well energy (alpha < 0
  /// with a restoring positive-stiffness tail).
  bool isFerroelectric() const;

 private:
  LkCoefficients c_;
};

}  // namespace fefet::ferro
