// cell2t.h — the paper's 2-transistor FEFET memory cell (Fig. 5/6/7).
//
//   write path:  WBL --[access NMOS, gate=WS]-- G --[FE]-- internal -- MOS
//   read path:   RS (drain) -- FEFET channel -- SL (source, sense line)
//
// Write: WS boosted, WBL = +/-V_write switches the FE polarization.
// Read:  WS = VDD with WBL = 0 (grounds the FEFET gate), RS = V_read on the
//        drain, current on SL identifies the bit.  Hold: everything at 0 V.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/bias_scheme.h"
#include "core/fefet.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct Cell2TConfig {
  FefetParams fefet;
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  BiasLevels levels;
  double edgeTime = 20e-12;     ///< source rise/fall time
  double settleTime = 300e-12;  ///< post-pulse settling (write recovery)
};

/// Result of one cell operation.
struct CellOpResult {
  /// Line and gate voltages, v(cell:int) and P(cell:fe); a read also
  /// records the drain current id(cell:mos).
  spice::Waveform waveform;
  bool bitAfter = false;           ///< classified stored bit after the op
  double finalPolarization = 0.0;  ///< committed P [C/m^2]
  double writeLatency = -1.0;      ///< P threshold crossing time (writes) [s]
  double readCurrent = 0.0;        ///< plateau drain current (reads) [A]
  std::map<std::string, double> sourceEnergy;  ///< per-source energy [J]
  double totalEnergy = 0.0;                    ///< sum over sources [J]
};

/// A simulatable 2T cell with persistent state across operations.
class Cell2T {
 public:
  explicit Cell2T(const Cell2TConfig& config);

  /// Force the stored state (quasi-static target polarization + internal
  /// node voltage), bypassing a write.
  void setStoredBit(bool one);
  bool storedBit() const;
  double polarization() const { return fefet_.fe->polarization(); }

  /// Apply a write pulse of the given width at the configured V_write.
  /// `voltageOverride` (if set) replaces the bit-line magnitude.
  CellOpResult write(bool one, double pulseWidth,
                     std::optional<double> voltageOverride = {});

  /// Current-sensed read (non-destructive).  `duration` covers select
  /// assertion and the sampling plateau.
  CellOpResult read(double duration = 2e-9);

  /// Hold with all lines grounded.
  CellOpResult hold(double duration);

  /// Quasi-static target polarizations of the two states at V_G = 0.
  double onPolarization() const { return states_.pOn; }
  double offPolarization() const { return states_.pOff; }

  const Cell2TConfig& config() const { return config_; }
  spice::Simulator& simulator() { return *sim_; }
  const FefetInstance& fefetInstance() const { return fefet_; }

 private:
  CellOpResult runOp(double duration, const std::vector<spice::Probe>& probes,
                     bool isWrite);

  Cell2TConfig config_;
  spice::Netlist netlist_;
  FefetInstance fefet_;
  spice::VoltageSource* vWbl_ = nullptr;
  spice::VoltageSource* vWs_ = nullptr;
  spice::VoltageSource* vRs_ = nullptr;
  spice::VoltageSource* vSl_ = nullptr;
  std::unique_ptr<spice::Simulator> sim_;
  BistableStates states_;
  /// Recorded by every op; built once, with the FEFET's internal node.
  std::vector<spice::Probe> probes_;
  /// probes_ plus the drain current id(cell:mos), which only a read samples.
  std::vector<spice::Probe> readProbes_;
};

}  // namespace fefet::core
