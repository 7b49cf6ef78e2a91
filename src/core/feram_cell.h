// feram_cell.h — the 1T-1C FERAM baseline (paper Fig. 9, §6.1).
//
//   BL --[access NMOS, gate=WL]-- X --[FE capacitor]-- PL
//
// Write '1': BL = V_write, PL = 0 (polarization toward +P_r).
// Write '0': BL = 0, PL = V_write (polarization toward -P_r).
// Read (destructive): pre-charge BL to 0, float it, pulse PL high; a
// stored '1' switches and dumps ~2 P_r A of charge on the bit line, a '0'
// responds only linearly.  Sense the bit-line swing, then write back.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ferro/lk_model.h"
#include "spice/passives.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {

struct FeRamConfig {
  /// FE material; default Landau set from Table 2 with the FERAM-calibrated
  /// kinetic coefficient (see core::feramMaterial()).
  ferro::LkCoefficients lk{.rho = 0.816};
  double feThickness = 1e-9;      ///< optimal FERAM thickness (paper §6.2.2)
  double capWidth = 65e-9;        ///< FE capacitor width
  double capLength = 45e-9;       ///< FE capacitor length
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  double vWrite = 1.64;           ///< bit/plate line write level
  double wordLineBoost = 2.4;     ///< WL level (passes vWrite fully)
  double bitLineCap = 5e-15;      ///< lumped bit-line capacitance
  double senseThreshold = 0.15;   ///< BL swing that reads as '1' [V]
  double edgeTime = 20e-12;
  double settleTime = 450e-12;  ///< long enough for P to reach +/-P_r

  ferro::FeGeometry feGeometry() const {
    return {feThickness, capWidth * capLength};
  }
};

/// Instantiate one 1T-1C cell: the access NMOS `<name>:acc` (drain = `bl`,
/// gate = `wl`) onto a fresh storage node `<name>:x`, then the FE capacitor
/// `<name>:fe` from it to the plate line `pl`.  FeRamCell and FeRamArray
/// both build their cell here.
spice::FeCapDevice* attachFeRamCell(
    spice::Netlist& netlist, const std::string& name, const std::string& bl,
    const std::string& wl, const std::string& pl, const FeRamConfig& config,
    double initialPolarization);

/// Destructive-read timing shared by FeRamCell::read and
/// FeRamArray::readRow: the word line rises one edge in, the bit lines
/// float from one edge before t0 = 4 edges until the end of the sense
/// span, the plate pulses to V_write for 1.2 ns from t0, and the bit line
/// is sensed 0.8 of the way through the plate pulse.
struct FeRamReadPulses {
  double edge, settle;  ///< source edges, settling after the span [s]
  static constexpr double kPlateWidth = 1.2e-9;

  double t0() const { return 4.0 * edge; }
  double senseAt() const { return t0() + edge + 0.8 * kPlateWidth; }
  double span() const { return t0() + kPlateWidth + 6.0 * edge; }
  double duration() const { return span() + settle; }

  /// Bit-line driver switch control: 1 connects, 0 floats.
  spice::Shape bitLineConnect() const {
    return spice::shapes::pulse(1.0, 0.0, t0() - edge, 1e-12, span(), 1e-12);
  }
  spice::Shape wordLine(double boost) const {
    return spice::shapes::pulse(0.0, boost, edge, edge, span(), edge);
  }
  spice::Shape plate(double vWrite) const {
    return spice::shapes::pulse(0.0, vWrite, t0(), edge, kPlateWidth, edge);
  }
};

struct FeRamOpResult {
  spice::Waveform waveform;
  bool bitAfter = false;
  bool bitRead = false;             ///< sensed value (reads only)
  double finalPolarization = 0.0;
  double writeLatency = -1.0;
  double bitLineSwing = 0.0;        ///< peak BL voltage during read [V]
  std::map<std::string, double> sourceEnergy;
  double totalEnergy = 0.0;
};

class FeRamCell {
 public:
  explicit FeRamCell(const FeRamConfig& config);

  void setStoredBit(bool one);
  bool storedBit() const;
  double polarization() const { return fe_->polarization(); }

  /// Drive a write pulse (optionally overriding the line voltage).
  FeRamOpResult write(bool one, double pulseWidth,
                      std::optional<double> voltageOverride = {});

  /// Destructive read followed by automatic write-back of the sensed bit.
  /// The reported energy covers the full read + restore sequence.
  FeRamOpResult read();

  FeRamOpResult hold(double duration);

  const FeRamConfig& config() const { return config_; }
  double remnantPolarization() const;

 private:
  FeRamOpResult runOp(double duration, bool isWrite);

  FeRamConfig config_;
  spice::Netlist netlist_;
  spice::VoltageSource* vBl_ = nullptr;
  spice::VoltageSource* vWl_ = nullptr;
  spice::VoltageSource* vPl_ = nullptr;
  spice::TimedSwitch* blSwitch_ = nullptr;  ///< BL driver connect/float
  spice::FeCapDevice* fe_ = nullptr;
  std::unique_ptr<spice::Simulator> sim_;
};

}  // namespace fefet::core
