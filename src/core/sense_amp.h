// sense_amp.h — transistor-level current-sensing read circuit (paper Fig. 8).
//
// Topology (functionally the paper's clamp + pre-charge + current SA):
//
//   RS --[FEFET cell]-- SL --[P_C conveyor, gate=V_CG when enabled]-- m1
//   m1: N1 diode to ground, mirrored by N2 -> m2
//   m2: P1 diode from VDD, mirrored by P2 -> VSENSE   (copies cell current)
//   VSENSE: N_REF sinks I_REF; pre-charge driver forces VPRE for t_pre;
//           C_SENSE models the large M1/M2 parasitics
//   VSENSE -> INV1 -> INV2 -> VSA (digitized output, VSA = VDD reads '1')
//
// The conveyor PMOS holds the sense line at V_CG + |V_SG| ~ 0 V — the
// paper's "virtual ground" clamp — while conveying the cell current into
// the mirrors.  A stored '1' copies ~I_on >> I_REF into VSENSE which rises
// past the inverter threshold; a stored '0' leaves only leakage, so I_REF
// discharges VSENSE and VSA stays low.  Matches the Fig. 8(b) waveforms.
#pragma once

#include <memory>

#include "core/cell2t.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::core {

struct SenseAmpConfig {
  FefetParams fefet;
  xtor::MosParams accessMos = xtor::nmos45();
  double accessWidth = 65e-9;
  BiasLevels levels;

  double vddSense = 0.68;     ///< SA supply
  double vPre = 0.30;         ///< pre-charge target on VSENSE
  double tPre = 0.5e-9;       ///< pre-charge window (paper: 0.50 ns)
  double conveyorGateBias = -0.45;  ///< clamp gate bias when enabled
  double conveyorWidth = 4.0e-6;    ///< "large-size" M1/M2-class devices
  double mirrorWidth = 2.0e-6;
  double refGateBias = 0.42;  ///< sets I_REF on the reference sink
  double refWidth = 65e-9;
  double senseCap = 5e-15;    ///< parasitic at the charging node
  double invNmosWidth = 130e-9;
  double invPmosWidth = 260e-9;
  double enableDelay = 0.4e-9;  ///< t0: EN assertion time
  double duration = 4.0e-9;     ///< simulated read window
};

struct SenseReadResult {
  spice::Waveform waveform;   ///< v(sl), v(vsense), v(vsa), P, currents
  bool bitRead = false;       ///< VSA digitized at the end of the window
  double senseLineMax = 0.0;  ///< worst excursion of the virtual ground [V]
  double tPreAchieved = -1.0; ///< time for VSENSE to reach vPre [s]
  double tSa = -1.0;          ///< EN -> VSA 50% crossing (reads of '1') [s]
  double readEnergy = 0.0;    ///< all supplies, over the window [J]
};

/// One cell plus the full read chain, simulated at transistor level.
class SenseAmpCircuit {
 public:
  explicit SenseAmpCircuit(const SenseAmpConfig& config);

  /// Set the stored bit and simulate one full read.
  SenseReadResult simulateRead(bool storedOne);

  /// Simulate a read with the cell forced to an arbitrary polarization
  /// (internal node seeded at its quasi-static value).  Used for sense-
  /// margin analysis: sweeping P between the two states locates the
  /// digitization boundary of the whole read chain.
  SenseReadResult simulateReadAtPolarization(double polarization);

  /// Quasi-static state targets of the attached cell.
  double onPolarization() const { return states_.pOn; }
  double offPolarization() const { return states_.pOff; }

  const SenseAmpConfig& config() const { return config_; }

 private:
  void buildNetlist();

  SenseAmpConfig config_;
  spice::Netlist netlist_;
  FefetInstance fefet_;
  spice::VoltageSource* vRs_ = nullptr;
  spice::VoltageSource* vWs_ = nullptr;
  spice::VoltageSource* vWbl_ = nullptr;
  spice::VoltageSource* vDdSa_ = nullptr;
  spice::VoltageSource* vCg_ = nullptr;
  spice::VoltageSource* vNeg_ = nullptr;
  spice::VoltageSource* vRef_ = nullptr;
  spice::VoltageSource* vPreSrc_ = nullptr;
  spice::TimedSwitch* preSwitch_ = nullptr;
  spice::TimedSwitch* slGround_ = nullptr;
  std::unique_ptr<spice::Simulator> sim_;
  BistableStates states_;
};

}  // namespace fefet::core
