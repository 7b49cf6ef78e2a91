#include "core/sense_amp.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

SenseAmpCircuit::SenseAmpCircuit(const SenseAmpConfig& config)
    : config_(config) {
  states_ = bistableStates(config_.fefet);
  buildNetlist();
}

void SenseAmpCircuit::buildNetlist() {
  auto& n = netlist_;
  const auto& mosP = xtor::pmos45();
  const auto& mosN = xtor::nmos45();

  // --- cell and its select lines ---------------------------------------
  vRs_ = n.add<spice::VoltageSource>("Vrs", n.node("rs"), n.ground(), dc(0.0));
  vWs_ = n.add<spice::VoltageSource>("Vws", n.node("ws"), n.ground(), dc(0.0));
  vWbl_ = n.add<spice::VoltageSource>("Vwbl", n.node("wbl"), n.ground(),
                                      dc(0.0));
  fefet_ = attachCell2T(n, "cell", "g", "wbl", "ws", "rs", "sl",
                        config_.fefet, config_.accessMos, config_.accessWidth);

  // --- clamping driver: PMOS source follower into the mirror ------------
  // The cell pushes its read current INTO the sense line; the follower
  // conveys it down to the NMOS mirror (referenced to -VDD, which the
  // Table 1 biasing already distributes).  A follower self-limits: it cuts
  // off once V_SL drops to V_CG + |V_T|, so the sense line is regulated
  // near 0 V at any cell current instead of being overpulled at I ~ 0.
  vNeg_ = n.add<spice::VoltageSource>("Vneg", n.node("vneg"), n.ground(),
                                      dc(-config_.vddSense));
  // Feedback clamp: an inverter (supplies +VDD/-VDD, trip ~ 0 V) senses
  // V_SL and drives the follower gate, pinning the sense line to the trip
  // point across the full 1e6 cell-current range.  Vcg powers the feedback
  // inverter so the clamp can be EN-gated.
  vCg_ = n.add<spice::VoltageSource>("Vcg", n.node("cg"), n.ground(),
                                     dc(config_.vddSense));
  n.add<spice::MosfetDevice>("Pfb", n.node("fbg"), n.node("sl"),
                             n.node("cg"), mosP, 8.0 * config_.refWidth);
  n.add<spice::MosfetDevice>("Nfb", n.node("fbg"), n.node("sl"),
                             n.node("vneg"), mosN, 4.0 * config_.refWidth);
  n.add<spice::Capacitor>("Cfbg", n.node("fbg"), n.ground(), 1e-15);
  n.add<spice::MosfetDevice>("Pclamp", n.node("m1"), n.node("fbg"),
                             n.node("sl"), mosP, config_.conveyorWidth);

  // --- mirrors: N1/N2 (referenced to -VDD) then P1/P2 -------------------
  n.add<spice::MosfetDevice>("N1", n.node("m1"), n.node("m1"),
                             n.node("vneg"), mosN, config_.mirrorWidth);
  n.add<spice::MosfetDevice>("N2", n.node("m2"), n.node("m1"),
                             n.node("vneg"), mosN, config_.mirrorWidth);
  vDdSa_ = n.add<spice::VoltageSource>("Vddsa", n.node("vddsa"), n.ground(),
                                       dc(config_.vddSense));
  n.add<spice::MosfetDevice>("P1", n.node("m2"), n.node("m2"),
                             n.node("vddsa"), mosP, config_.mirrorWidth);
  n.add<spice::MosfetDevice>("P2", n.node("vsense"), n.node("m2"),
                             n.node("vddsa"), mosP, config_.mirrorWidth);

  // --- reference sink, pre-charge driver, sense-node parasitics --------
  vRef_ = n.add<spice::VoltageSource>("Vref", n.node("vrefg"), n.ground(),
                                      dc(0.0));
  n.add<spice::MosfetDevice>("Nref", n.node("vsense"), n.node("vrefg"),
                             n.ground(), mosN, config_.refWidth);
  vPreSrc_ = n.add<spice::VoltageSource>("Vpre", n.node("vpre"), n.ground(),
                                         dc(config_.vPre));
  preSwitch_ = n.add<spice::TimedSwitch>("Spre", n.node("vpre"),
                                         n.node("vsense"), dc(0.0), 2000.0);
  n.add<spice::Capacitor>("Csense", n.node("vsense"), n.ground(),
                          config_.senseCap);
  // "V_BL was grounded before the onset of read": the sense line is held
  // at ground until the clamping driver takes over.
  slGround_ = n.add<spice::TimedSwitch>("Sslg", n.node("sl"), n.ground(),
                                        dc(1.0), 200.0);

  // --- output digitization: two inverters ------------------------------
  const auto inverter = [&](const std::string& id, const std::string& in,
                            const std::string& out) {
    n.add<spice::MosfetDevice>(id + "p", n.node(out), n.node(in),
                               n.node("vddsa"), mosP, config_.invPmosWidth);
    n.add<spice::MosfetDevice>(id + "n", n.node(out), n.node(in), n.ground(),
                               mosN, config_.invNmosWidth);
    n.add<spice::Capacitor>(id + "cl", n.node(out), n.ground(), 0.2e-15);
  };
  inverter("inv1", "vsense", "sa1");
  inverter("inv2", "sa1", "vsa");

  sim_ = std::make_unique<spice::Simulator>(netlist_);
}

SenseReadResult SenseAmpCircuit::simulateRead(bool storedOne) {
  return simulateReadAtPolarization(storedOne ? states_.pOn : states_.pOff);
}

SenseReadResult SenseAmpCircuit::simulateReadAtPolarization(
    double polarization) {
  // Set the stored state; seed the internal node at the gate voltage that
  // holds this charge (quasi-static consistency).
  const xtor::MosfetModel mos(config_.fefet.mos, config_.fefet.width);
  fefet_.fe->setPolarization(polarization);
  sim_->setNodeVoltage(netlist_.nodeName(fefet_.internalNode),
                       mos.gateVoltageForCharge(polarization));
  sim_->setNodeVoltage("vddsa", config_.vddSense);
  sim_->setNodeVoltage("vpre", config_.vPre);
  sim_->setNodeVoltage("cg", config_.vddSense);
  sim_->setNodeVoltage("fbg", 0.0);
  sim_->setNodeVoltage("vneg", -config_.vddSense);
  sim_->setNodeVoltage("m1", -config_.vddSense);
  sim_->setNodeVoltage("vsense", 0.0);
  sim_->setNodeVoltage("sl", 0.0);
  // Seed the SA internal nodes at their quiescent values so the UIC start
  // does not inject spurious charge (mirror diodes off, inverter 1 high).
  sim_->setNodeVoltage("m2", config_.vddSense);
  sim_->setNodeVoltage("sa1", config_.vddSense);
  sim_->setNodeVoltage("vsa", 0.0);
  sim_->initializeUic();

  const double t0 = config_.enableDelay;
  const double edge = 20e-12;
  const double window = config_.duration;

  // EN-gated shapes.  The clamp/conveyor and reference enable slightly
  // before the read voltage so the sense line never floats while driven.
  vRs_->setShape(pulse(0.0, config_.levels.vRead, t0, edge,
                       window - t0 - 4.0 * edge, edge));
  vWs_->setShape(pulse(0.0, config_.levels.vdd, t0 * 0.5, edge,
                       window - t0 - 4.0 * edge, edge));
  vWbl_->setShape(dc(0.0));
  // Feedback-inverter supply stays on: with the sense line grounded and
  // no cell current the feedback settles at its trip point and the clamp
  // conducts nothing, so there is no pre-enable path.
  vCg_->setShape(dc(config_.vddSense));
  vRef_->setShape(pulse(0.0, config_.refGateBias, t0 * 0.5, edge,
                        window - t0 - 4.0 * edge, edge));
  preSwitch_->setControl(pulse(0.0, 1.0, t0, 1e-12, config_.tPre, 1e-12));
  // Release the hard ground once the clamp is active.
  slGround_->setControl(pulse(1.0, 0.0, t0 * 0.5 + edge, 1e-12, window,
                              1e-12));

  for (auto* s : {vRs_, vWs_, vWbl_, vDdSa_, vCg_, vRef_, vPreSrc_, vNeg_}) {
    s->resetEnergy();
  }

  spice::TransientOptions options;
  options.duration = window;
  options.dtMax = window / 400.0;
  static const std::vector<Probe> probes = {
      Probe::v("sl"),     Probe::v("vsense"), Probe::v("vsa"),
      Probe::v("m1"),     Probe::v("m2"),     Probe::v("rs"),
      Probe::deviceState("cell:fe", "P"),
      Probe::deviceState("cell:mos", "id"),
  };
  auto transient = sim_->runTransient(options, probes);

  SenseReadResult result;
  result.waveform = std::move(transient.waveform);
  result.bitRead =
      result.waveform.finalValue("v(vsa)") > 0.5 * config_.vddSense;
  result.senseLineMax = result.waveform.maximum("v(sl)");
  try {
    result.tPreAchieved =
        result.waveform.firstCrossing("v(vsense)", 0.95 * config_.vPre,
                                      /*rising=*/true) -
        t0;
  } catch (const SimulationError&) {
    // pre-charge target never reached in this read
  }
  try {
    result.tSa = result.waveform.firstCrossing(
                     "v(vsa)", 0.5 * config_.vddSense, /*rising=*/true) -
                 t0;
  } catch (const SimulationError&) {
    // VSA never rose: a read of '0'
  }
  for (auto* s : {vRs_, vWs_, vWbl_, vDdSa_, vCg_, vRef_, vPreSrc_, vNeg_}) {
    result.readEnergy += s->energyDelivered();
  }
  return result;
}

}  // namespace fefet::core
