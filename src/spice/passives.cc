#include "spice/passives.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace fefet::spice {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  FEFET_REQUIRE(resistance_ > 0.0, "resistance must be positive");
}

void Resistor::stamp(const EvalContext& ctx) {
  const double g = 1.0 / resistance_;
  const double va = ctx.view.nodeVoltage(a_);
  const double vb = ctx.view.nodeVoltage(b_);
  const double i = g * (va - vb);
  const int ra = Stamper::rowOfNode(a_);
  const int rb = Stamper::rowOfNode(b_);
  ctx.addResidual(ra, i);
  ctx.addResidual(rb, -i);
  ctx.addJacobian(ra, ra, g);
  ctx.addJacobian(ra, rb, -g);
  ctx.addJacobian(rb, ra, -g);
  ctx.addJacobian(rb, rb, g);
}

double Resistor::current(const SystemView& view) const {
  return (view.nodeVoltage(a_) - view.nodeVoltage(b_)) / resistance_;
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  FEFET_REQUIRE(capacitance_ > 0.0, "capacitance must be positive");
}

void Capacitor::stamp(const EvalContext& ctx) {
  if (ctx.dc) return;
  const double v = ctx.view.nodeVoltage(a_) - ctx.view.nodeVoltage(b_);
  const double q = capacitance_ * v;
  const auto [i, dIdQ] = charge_.currentFor(q, ctx);
  const double g = dIdQ * capacitance_;
  const int ra = Stamper::rowOfNode(a_);
  const int rb = Stamper::rowOfNode(b_);
  ctx.addResidual(ra, i);
  ctx.addResidual(rb, -i);
  ctx.addJacobian(ra, ra, g);
  ctx.addJacobian(ra, rb, -g);
  ctx.addJacobian(rb, ra, -g);
  ctx.addJacobian(rb, rb, g);
}

void Capacitor::initializeState(const SystemView& view) {
  const double v = view.nodeVoltage(a_) - view.nodeVoltage(b_);
  charge_.initialize(capacitance_ * v);
}

void Capacitor::commitStep(const SystemView& view, double /*time*/,
                           double dt, IntegrationMethod method) {
  const double v = view.nodeVoltage(a_) - view.nodeVoltage(b_);
  charge_.commitFrom(capacitance_ * v, dt, method);
}

double Capacitor::state(int /*k*/, const SystemView& view) const {
  return capacitance_ * (view.nodeVoltage(a_) - view.nodeVoltage(b_));
}

TimedSwitch::TimedSwitch(std::string name, NodeId a, NodeId b,
                         Control control, double ron, double roff)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      control_(std::move(control)),
      ron_(ron),
      roff_(roff) {
  FEFET_REQUIRE(ron_ > 0.0 && roff_ > ron_, "switch needs 0 < Ron < Roff");
  FEFET_REQUIRE(static_cast<bool>(control_), "switch needs a control shape");
}

void TimedSwitch::stamp(const EvalContext& ctx) {
  const double g = (control_(ctx.time) > 0.5) ? 1.0 / ron_ : 1.0 / roff_;
  const double va = ctx.view.nodeVoltage(a_);
  const double vb = ctx.view.nodeVoltage(b_);
  const double i = g * (va - vb);
  const int ra = Stamper::rowOfNode(a_);
  const int rb = Stamper::rowOfNode(b_);
  ctx.addResidual(ra, i);
  ctx.addResidual(rb, -i);
  ctx.addJacobian(ra, ra, g);
  ctx.addJacobian(ra, rb, -g);
  ctx.addJacobian(rb, ra, -g);
  ctx.addJacobian(rb, rb, g);
}

Diode::Diode(std::string name, NodeId anode, NodeId cathode, Params params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode),
      params_(params) {
  FEFET_REQUIRE(params_.saturationCurrent > 0.0,
                "diode saturation current must be positive");
  FEFET_REQUIRE(params_.idealityFactor >= 1.0, "ideality factor >= 1");
}

double Diode::currentAt(double v) const {
  const double vt = constants::kBoltzmann * params_.temperature /
                    constants::kElementaryCharge * params_.idealityFactor;
  // Exponential with linear continuation above vMax to keep Newton stable.
  const double vMax = 40.0 * vt;
  if (v <= vMax) {
    return params_.saturationCurrent * (std::exp(v / vt) - 1.0);
  }
  const double iMax = params_.saturationCurrent * (std::exp(vMax / vt) - 1.0);
  const double gMax = params_.saturationCurrent * std::exp(vMax / vt) / vt;
  return iMax + gMax * (v - vMax);
}

void Diode::stamp(const EvalContext& ctx) {
  const double va = ctx.view.nodeVoltage(anode_);
  const double vb = ctx.view.nodeVoltage(cathode_);
  const double v = va - vb;
  const double vt = constants::kBoltzmann * params_.temperature /
                    constants::kElementaryCharge * params_.idealityFactor;
  const double i = currentAt(v);
  const double vMax = 40.0 * vt;
  const double g = (v <= vMax)
                       ? params_.saturationCurrent * std::exp(v / vt) / vt
                       : params_.saturationCurrent * std::exp(vMax / vt) / vt;
  const int ra = Stamper::rowOfNode(anode_);
  const int rb = Stamper::rowOfNode(cathode_);
  ctx.addResidual(ra, i);
  ctx.addResidual(rb, -i);
  ctx.addJacobian(ra, ra, g);
  ctx.addJacobian(ra, rb, -g);
  ctx.addJacobian(rb, ra, -g);
  ctx.addJacobian(rb, rb, g);
}

double Diode::state(int k, const SystemView& view) const {
  const double v = view.nodeVoltage(anode_) - view.nodeVoltage(cathode_);
  return k == 0 ? currentAt(v) : v;
}

}  // namespace fefet::spice
