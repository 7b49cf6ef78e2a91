#include "spice/passives.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace fefet::spice {

namespace {

/// Scalar sink of a two-terminal branch from node a to node b.
CallSink<2> branchSink(const EvalContext& ctx, NodeId a, NodeId b) {
  return CallSink<2>(ctx, {Stamper::rowOfNode(a), Stamper::rowOfNode(b)});
}

}  // namespace

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  FEFET_REQUIRE(resistance_ > 0.0, "resistance must be positive");
}

void Resistor::stamp(const EvalContext& ctx) {
  const double g = 1.0 / resistance_;
  const double va = ctx.view.nodeVoltage(a_);
  const double vb = ctx.view.nodeVoltage(b_);
  const double i = g * (va - vb);
  stampBranch(branchSink(ctx, a_, b_), i, g);
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
  stampBranch(branchSink(ctx, a_, b_), i, g);
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
  const double g = conductanceAt(ctx.time);
  const double va = ctx.view.nodeVoltage(a_);
  const double vb = ctx.view.nodeVoltage(b_);
  const double i = g * (va - vb);
  stampBranch(branchSink(ctx, a_, b_), i, g);
}

Diode::Diode(std::string name, NodeId anode, NodeId cathode, Params params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode),
      params_(params) {
  FEFET_REQUIRE(params_.saturationCurrent > 0.0,
                "diode saturation current must be positive");
  FEFET_REQUIRE(params_.idealityFactor >= 1.0, "ideality factor >= 1");
  FEFET_REQUIRE(std::isfinite(params_.temperature) &&
                    params_.temperature > 0.0,
                "diode temperature must be finite and positive");
  vt_ = constants::kBoltzmann * params_.temperature /
        constants::kElementaryCharge * params_.idealityFactor;
}

void Diode::stamp(const EvalContext& ctx) {
  const double v =
      ctx.view.nodeVoltage(anode_) - ctx.view.nodeVoltage(cathode_);
  const auto [i, g] = diodeBranch(v, params_.saturationCurrent, vt_);
  stampBranch(branchSink(ctx, anode_, cathode_), i, g);
}

double Diode::state(int k, const SystemView& view) const {
  const double v = view.nodeVoltage(anode_) - view.nodeVoltage(cathode_);
  return k == 0 ? currentAt(v) : v;
}

}  // namespace fefet::spice
