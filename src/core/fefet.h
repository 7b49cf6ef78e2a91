// fefet.h — the ferroelectric FET: an FE capacitor (LK dynamics) stacked on
// the gate of a 45nm MOSFET, plus device-level analysis utilities
// (paper §2–§3: hysteresis, non-volatility, load lines, fold voltages).
#pragma once

#include <string>
#include <vector>

#include "ferro/lk_model.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "xtor/mosfet_model.h"
#include "xtor/technology.h"

namespace fefet::core {

/// Parameters of one FEFET instance.
struct FefetParams {
  ferro::LkCoefficients lk;          ///< ferroelectric material
  double feThickness = 2.25e-9;      ///< T_FE [m] (paper design point)
  double width = 65e-9;              ///< transistor and FE width [m]
  xtor::MosParams mos = xtor::nmos45();
  double backgroundEpsR = 0.0;       ///< linear FE background permittivity

  /// FE film geometry (area = W x L of the gate).
  ferro::FeGeometry feGeometry() const {
    return {feThickness, width * mos.length};
  }
};

/// Handles to the sub-devices of one FEFET instantiated in a netlist.
struct FefetInstance {
  spice::FeCapDevice* fe = nullptr;    ///< gate stack FE (state = stored bit)
  spice::MosfetDevice* mos = nullptr;  ///< underlying transistor
  spice::NodeId internalNode = 0;      ///< metal node between FE and gate

  /// Committed polarization [C/m^2].
  double polarization() const { return fe->polarization(); }
};

/// Instantiate an FEFET: FE cap from `gate` to a fresh internal node, MOS
/// gate on the internal node, channel between `drain` and `source`.
FefetInstance attachFefet(spice::Netlist& netlist, const std::string& name,
                          const std::string& gate, const std::string& drain,
                          const std::string& source, const FefetParams& params,
                          double initialPolarization = 0.0);

/// Instantiate one 2T memory cell (paper Fig. 5): the access NMOS
/// `<name>:acc` (drain = `wbl`, gate = `ws`, source = the FEFET gate node
/// `gate`), then attachFefet(name, gate, rs, sl) at P = 0.  Cell2T,
/// SenseAmpCircuit and ArrayNetlist all build their cell here, and each
/// sets the stored state before it simulates.
FefetInstance attachCell2T(spice::Netlist& netlist, const std::string& name,
                           const std::string& gate, const std::string& wbl,
                           const std::string& ws, const std::string& rs,
                           const std::string& sl, const FefetParams& fefet,
                           const xtor::MosParams& accessMos,
                           double accessWidth);

// ---------------------------------------------------------------------------
// Quasi-static device analysis (no circuit solver needed).
// ---------------------------------------------------------------------------

/// One fold (saddle-node) of the quasi-static V_G(psi) characteristic.
struct Fold {
  double internalVoltage = 0.0;  ///< psi at the fold [V]
  double gateVoltage = 0.0;      ///< external V_G at the fold [V]
  bool isMaximum = false;        ///< local max (up-switch) vs min (down-switch)
};

/// The hysteresis analysis of a device at V_DS ~ 0.
struct HysteresisWindow {
  std::vector<Fold> folds;       ///< all folds in the swept psi range
  bool hysteretic = false;       ///< any fold pair exists
  bool nonvolatile = false;      ///< the inversion-branch window spans V_G=0
  double upSwitchVoltage = 0.0;  ///< V_G that destabilizes the OFF state
  double downSwitchVoltage = 0.0;///< V_G that destabilizes the ON state
  double width() const { return upSwitchVoltage - downSwitchVoltage; }
};

/// The equilibria of a bistable device at V_G = 0: OFF (the stable psi
/// nearest 0), ON (the largest stable psi) and the saddle between them,
/// whose polarization is the basin boundary that classifies a stored bit.
struct BistableStates {
  double psiOff = 0.0, psiOn = 0.0, psiSaddle = 0.0;  ///< internal node [V]
  double pOff = 0.0, pOn = 0.0, pSaddle = 0.0;        ///< polarization [C/m^2]
};

/// One quasi-static equilibrium: a root of V_G(psi) = V_G.
struct Equilibrium {
  double internalVoltage = 0.0;  ///< psi [V]
  bool stable = false;           ///< dV_G/dpsi > 0 (on a rising branch)
};

/// The quasi-static V_G(psi) characteristic of one device over psi in
/// [-4, 4] V, built once per FefetParams.  Construction samples the
/// analytic slope dV_G/dpsi = 1 + T_FE * E_s'(Q) * C_MOS(psi) on a coarse
/// grid and Brent-solves each sign change to an exact fold; between folds
/// V_G is monotone, so the equilibria at any V_G cost one Brent solve per
/// branch whose V_G range brackets it.  Every quasi-static analysis below
/// runs on this curve.
class QuasiStaticCurve {
 public:
  explicit QuasiStaticCurve(const FefetParams& params);

  /// Quasi-static external gate voltage at internal node voltage psi:
  /// V_G(psi) = psi + T_FE * E_s(Q_G(psi)).
  double gateVoltage(double psi) const;
  /// Gate charge density Q_G(psi) = polarization [C/m^2]; monotone in psi.
  double chargeDensity(double psi) const;

  /// The folds and memory window.  The inversion-branch window is the fold
  /// pair with the largest psi values (the pair between the OFF state and
  /// the inversion ON state); accumulation-side folds are reported but not
  /// used for the window.
  const HysteresisWindow& window() const { return window_; }

  /// Every equilibrium at the given V_G, ascending in psi.
  std::vector<Equilibrium> equilibria(double gateVoltage) const;
  /// The stable equilibria at the given V_G, ascending in psi.
  std::vector<double> stableInternalVoltages(double gateVoltage) const;
  /// OFF, ON and saddle at V_G = 0.  Throws InvalidArgumentError when the
  /// device has no saddle between two stable states at V_G = 0.
  BistableStates bistableStates() const;
  /// ON/OFF current ratio at V_GS = 0 and drain bias vread.  Throws
  /// InvalidArgumentError unless the window is nonvolatile.
  double distinguishability(double vread) const;
  /// Drain current at internal node voltage psi and drain bias vds.
  double drainCurrent(double vds, double psi) const;

 private:
  /// psi interval between two folds (or a fold and a range end) on which
  /// V_G is monotone.
  struct Branch {
    double psiLo, psiHi;  ///< [V]
    double vgLo, vgHi;    ///< V_G at psiLo and psiHi [V]
  };

  xtor::MosfetModel mos_;
  ferro::LandauKhalatnikov lk_;
  double thickness_;  ///< T_FE [m]
  HysteresisWindow window_;
  std::vector<Branch> branches_;
};

/// QuasiStaticCurve(params).window().
HysteresisWindow analyzeHysteresis(const FefetParams& params);

/// Stable internal-node solutions at a given external V_G (quasi-static).
std::vector<double> stableInternalVoltages(const FefetParams& params,
                                           double gateVoltage);

/// QuasiStaticCurve(params).bistableStates(); psiOff and psiOn equal what
/// stableInternalVoltages(params, 0) yields.
BistableStates bistableStates(const FefetParams& params);

/// Drain current of the stored state: solves the quasi-static equilibrium
/// nearest to `psiSeed` at V_G = vgs and evaluates the MOS current at the
/// given drain bias.
double stateCurrent(const FefetParams& params, double vgs, double vds,
                    double psiSeed);

/// ON/OFF current ratio at V_GS = 0 with the given read drain bias —
/// the paper's "distinguishability" (~1e6).  Window and states come from
/// one curve.
double distinguishability(const FefetParams& params, double vread);

/// Smallest T_FE for which the device is nonvolatile (window spans V_G=0).
/// Bisection over [tLow, tHigh].  Paper: just above 1.9 nm.
double minimumNonvolatileThickness(const FefetParams& params, double tLow,
                                   double tHigh, double tolerance = 1e-12);

/// One quasi-static branch of the transfer characteristic (Figs. 2a/3a):
/// sweep V_GS while tracking the continuously-connected equilibrium; at a
/// fold the state snaps to the surviving branch (the hysteretic jump).
struct TransferPoint {
  double vgs = 0.0;
  double internalVoltage = 0.0;
  double drainCurrent = 0.0;
  double polarization = 0.0;
};
std::vector<TransferPoint> sweepTransfer(const FefetParams& params,
                                         double vFrom, double vTo, int steps,
                                         double vds, double startPsi);

}  // namespace fefet::core
