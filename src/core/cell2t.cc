#include "core/cell2t.h"

#include "common/error.h"
#include "common/math.h"

namespace fefet::core {

using spice::Probe;
using spice::shapes::dc;

Cell2T::Cell2T(const Cell2TConfig& config) : config_(config) {
  // Quasi-static state targets; the saddle's polarization is the basin
  // boundary that classifies the stored bit.
  states_ = bistableStates(config_.fefet);

  // Netlist: sources on all four lines, then the cell.
  vWbl_ = netlist_.add<spice::VoltageSource>("Vwbl", netlist_.node("wbl"),
                                             netlist_.ground(), dc(0.0));
  vWs_ = netlist_.add<spice::VoltageSource>("Vws", netlist_.node("ws"),
                                            netlist_.ground(), dc(0.0));
  vRs_ = netlist_.add<spice::VoltageSource>("Vrs", netlist_.node("rs"),
                                            netlist_.ground(), dc(0.0));
  vSl_ = netlist_.add<spice::VoltageSource>("Vsl", netlist_.node("sl"),
                                            netlist_.ground(), dc(0.0));
  fefet_ = attachCell2T(netlist_, "cell", "g", "wbl", "ws", "rs", "sl",
                        config_.fefet, config_.accessMos, config_.accessWidth);
  probes_ = {
      Probe::v("wbl"), Probe::v("ws"), Probe::v("rs"), Probe::v("sl"),
      Probe::v("g"),
      Probe::v(netlist_.nodeName(fefet_.internalNode)),
      Probe::deviceState("cell:fe", "P"),
  };
  readProbes_ = probes_;
  readProbes_.push_back(Probe::deviceState("cell:mos", "id"));
  sim_ = std::make_unique<spice::Simulator>(netlist_);
  setStoredBit(false);
}

void Cell2T::setStoredBit(bool one) {
  fefet_.fe->setPolarization(one ? states_.pOn : states_.pOff);
  sim_->setNodeVoltage(netlist_.nodeName(fefet_.internalNode),
                       one ? states_.psiOn : states_.psiOff);
  sim_->initializeUic();
}

bool Cell2T::storedBit() const {
  return fefet_.fe->polarization() > states_.pSaddle;
}

CellOpResult Cell2T::runOp(double duration,
                           const std::vector<spice::Probe>& probes,
                           bool isWrite) {
  for (auto* src : {vWbl_, vWs_, vRs_, vSl_}) src->resetEnergy();
  spice::TransientOptions options;
  options.duration = duration;
  options.dtMax = duration / 200.0;
  auto transient = sim_->runTransient(options, probes);

  CellOpResult result;
  result.waveform = std::move(transient.waveform);
  result.finalPolarization = fefet_.fe->polarization();
  result.bitAfter = storedBit();
  for (auto* src : {vWbl_, vWs_, vRs_, vSl_}) {
    result.sourceEnergy[src->name()] = src->energyDelivered();
    result.totalEnergy += src->energyDelivered();
  }
  if (isWrite) {
    const double threshold = states_.pSaddle;
    const auto p = result.waveform.column("P(cell:fe)");
    if (math::hasCrossing(p, threshold)) {
      result.writeLatency = math::firstCrossing(
          result.waveform.time(), p, threshold, p.front() < threshold);
    }
  }
  return result;
}

CellOpResult Cell2T::write(bool one, double pulseWidth,
                           std::optional<double> voltageOverride) {
  const double vw = voltageOverride.value_or(config_.levels.vWrite);
  const WritePulses pulses{pulseWidth, config_.edgeTime, config_.settleTime};
  vWs_->setShape(pulses.select(config_.levels.writeBoost));
  vWbl_->setShape(pulses.bitLine(one ? vw : -vw));
  vRs_->setShape(dc(0.0));
  vSl_->setShape(dc(0.0));
  return runOp(pulses.duration(), probes_, /*isWrite=*/true);
}

CellOpResult Cell2T::read(double duration) {
  const ReadPulses pulses{duration, config_.edgeTime};
  vWs_->setShape(pulses.select(config_.levels.vdd));
  vWbl_->setShape(dc(0.0));
  vRs_->setShape(pulses.readSelect(config_.levels.vRead));
  vSl_->setShape(dc(0.0));
  auto result = runOp(duration, readProbes_, /*isWrite=*/false);
  // Plateau current: sample the drain current midway through the RS pulse.
  const double edge = config_.edgeTime;
  const double tSample = 3.0 * edge + 0.5 * (duration - 10.0 * edge);
  result.readCurrent = result.waveform.valueAt("id(cell:mos)", tSample);
  return result;
}

CellOpResult Cell2T::hold(double duration) {
  vWs_->setShape(dc(0.0));
  vWbl_->setShape(dc(0.0));
  vRs_->setShape(dc(0.0));
  vSl_->setShape(dc(0.0));
  return runOp(duration, probes_, /*isWrite=*/false);
}

}  // namespace fefet::core
