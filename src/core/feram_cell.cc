#include "core/feram_cell.h"

#include <cmath>

#include "common/error.h"
#include "common/math.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

spice::FeCapDevice* attachFeRamCell(
    spice::Netlist& netlist, const std::string& name, const std::string& bl,
    const std::string& wl, const std::string& pl, const FeRamConfig& config,
    double initialPolarization) {
  const spice::NodeId x = netlist.node(name + ":x");
  netlist.add<spice::MosfetDevice>(name + ":acc", netlist.node(bl),
                                   netlist.node(wl), x, config.accessMos,
                                   config.accessWidth);
  return netlist.add<spice::FeCapDevice>(name + ":fe", x, netlist.node(pl),
                                         config.lk, config.feGeometry(),
                                         initialPolarization);
}

FeRamCell::FeRamCell(const FeRamConfig& config) : config_(config) {
  auto& n = netlist_;
  // Bit-line driver behind a switch so the BL can float during reads.
  vBl_ = n.add<spice::VoltageSource>("Vbl", n.node("bld"), n.ground(),
                                     dc(0.0));
  blSwitch_ = n.add<spice::TimedSwitch>("Sbl", n.node("bld"), n.node("bl"),
                                        dc(1.0), 50.0);
  vWl_ = n.add<spice::VoltageSource>("Vwl", n.node("wl"), n.ground(),
                                     dc(0.0));
  vPl_ = n.add<spice::VoltageSource>("Vpl", n.node("pl"), n.ground(),
                                     dc(0.0));
  n.add<spice::Capacitor>("Cbl", n.node("bl"), n.ground(),
                          config_.bitLineCap);
  fe_ = attachFeRamCell(n, "cell", "bl", "wl", "pl", config_,
                        -remnantPolarization());
  sim_ = std::make_unique<spice::Simulator>(netlist_);
  setStoredBit(false);
}

double FeRamCell::remnantPolarization() const {
  return ferro::LandauKhalatnikov(config_.lk).remnantPolarization();
}

void FeRamCell::setStoredBit(bool one) {
  const double pr = remnantPolarization();
  fe_->setPolarization(one ? pr : -pr);
  sim_->initializeUic();
}

bool FeRamCell::storedBit() const { return fe_->polarization() > 0.0; }

FeRamOpResult FeRamCell::runOp(double duration, bool isWrite) {
  for (auto* src : {vBl_, vWl_, vPl_}) src->resetEnergy();
  spice::TransientOptions options;
  options.duration = duration;
  options.dtMax = duration / 200.0;
  const std::vector<Probe> probes = {
      Probe::v("bl"), Probe::v("wl"), Probe::v("pl"), Probe::v("cell:x"),
      Probe::deviceState("cell:fe", "P"),
  };
  auto transient = sim_->runTransient(options, probes);

  FeRamOpResult result;
  result.waveform = std::move(transient.waveform);
  result.finalPolarization = fe_->polarization();
  result.bitAfter = storedBit();
  for (auto* src : {vBl_, vWl_, vPl_}) {
    result.sourceEnergy[src->name()] = src->energyDelivered();
    result.totalEnergy += src->energyDelivered();
  }
  if (isWrite) {
    const auto p = result.waveform.column("P(cell:fe)");
    if (math::hasCrossing(p, 0.0)) {
      result.writeLatency = math::firstCrossing(result.waveform.time(), p,
                                                0.0, p.front() < 0.0);
    }
  }
  return result;
}

FeRamOpResult FeRamCell::write(bool one, double pulseWidth,
                               std::optional<double> voltageOverride) {
  const double vw = voltageOverride.value_or(config_.vWrite);
  const double edge = config_.edgeTime;
  const double lead = 2.0 * edge;
  blSwitch_->setControl(dc(1.0));  // BL driven throughout
  // Word line covers the drive pulse plus write recovery: with BL and PL
  // back at 0 the storage node is held driven while P saturates to +/-P_r.
  vWl_->setShape(pulse(0.0, config_.wordLineBoost, edge, edge,
                       pulseWidth + 4.0 * edge + 0.8 * config_.settleTime,
                       edge));
  if (one) {
    vBl_->setShape(pulse(0.0, vw, lead + edge, edge, pulseWidth, edge));
    vPl_->setShape(dc(0.0));
  } else {
    vBl_->setShape(dc(0.0));
    vPl_->setShape(pulse(0.0, vw, lead + edge, edge, pulseWidth, edge));
  }
  const double duration = lead + pulseWidth + 6.0 * edge + config_.settleTime;
  return runOp(duration, /*isWrite=*/true);
}

FeRamOpResult FeRamCell::read() {
  // Phase 1: sense.  BL floats after t0; WL on; PL pulses to vWrite.
  const FeRamReadPulses pulses{config_.edgeTime, config_.settleTime};
  blSwitch_->setControl(pulses.bitLineConnect());
  vBl_->setShape(dc(0.0));
  vWl_->setShape(pulses.wordLine(config_.wordLineBoost));
  vPl_->setShape(pulses.plate(config_.vWrite));

  auto sense = runOp(pulses.duration(), /*isWrite=*/false);
  sense.bitLineSwing = sense.waveform.maximum("v(bl)");
  const bool readOne =
      sense.waveform.valueAt("v(bl)", pulses.senseAt()) >
      config_.senseThreshold;
  sense.bitRead = readOne;

  // Phase 2: write back the sensed value (a read of '0' leaves -P_r in
  // place, but the restore drive also recovers any depolarization).
  auto restore = write(readOne, 0.8e-9);
  FeRamOpResult result;
  result.waveform = std::move(sense.waveform);
  result.bitRead = readOne;
  result.bitLineSwing = sense.bitLineSwing;
  result.finalPolarization = restore.finalPolarization;
  result.bitAfter = restore.bitAfter;
  for (const auto& [name, e] : sense.sourceEnergy) {
    result.sourceEnergy[name] += e;
  }
  for (const auto& [name, e] : restore.sourceEnergy) {
    result.sourceEnergy[name] += e;
  }
  result.totalEnergy = sense.totalEnergy + restore.totalEnergy;
  return result;
}

FeRamOpResult FeRamCell::hold(double duration) {
  blSwitch_->setControl(dc(1.0));
  vBl_->setShape(dc(0.0));
  vWl_->setShape(dc(0.0));
  vPl_->setShape(dc(0.0));
  return runOp(duration, /*isWrite=*/false);
}

}  // namespace fefet::core
