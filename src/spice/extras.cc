#include "spice/extras.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace fefet::spice {

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

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance)
    : Device(std::move(name)), a_(a), b_(b), inductance_(inductance) {
  FEFET_REQUIRE(inductance_ > 0.0, "inductance must be positive");
}

void Inductor::setup(SetupContext& ctx) {
  auxRow_ = ctx.allocateAux("i(" + name() + ")");
}

void Inductor::stamp(const EvalContext& ctx) {
  const double va = ctx.view.nodeVoltage(a_);
  const double vb = ctx.view.nodeVoltage(b_);
  const double i = ctx.view.aux(auxRow_);
  const int ra = Stamper::rowOfNode(a_);
  const int rb = Stamper::rowOfNode(b_);

  // KCL contributions of the branch current (a -> b through the coil).
  ctx.addResidual(ra, i);
  ctx.addResidual(rb, -i);
  ctx.addJacobian(ra, auxRow_, 1.0);
  ctx.addJacobian(rb, auxRow_, -1.0);

  // Branch equation: v = L di/dt.  DC: v = 0 (short).
  if (ctx.dc || ctx.dt <= 0.0) {
    ctx.addResidual(auxRow_, va - vb);
    ctx.addJacobian(auxRow_, ra, 1.0);
    ctx.addJacobian(auxRow_, rb, -1.0);
    return;
  }
  if (ctx.method == IntegrationMethod::kBackwardEuler) {
    // v = L (i - iPrev) / dt.
    ctx.addResidual(auxRow_,
                            va - vb - inductance_ * (i - iPrev_) / ctx.dt);
    ctx.addJacobian(auxRow_, ra, 1.0);
    ctx.addJacobian(auxRow_, rb, -1.0);
    ctx.addJacobian(auxRow_, auxRow_, -inductance_ / ctx.dt);
  } else {
    // Trapezoidal: (v + vPrev)/2 = L (i - iPrev)/dt.
    ctx.addResidual(
        auxRow_, 0.5 * (va - vb + vPrev_) -
                     inductance_ * (i - iPrev_) / ctx.dt);
    ctx.addJacobian(auxRow_, ra, 0.5);
    ctx.addJacobian(auxRow_, rb, -0.5);
    ctx.addJacobian(auxRow_, auxRow_, -inductance_ / ctx.dt);
  }
}

void Inductor::initializeState(const SystemView& view) {
  iPrev_ = 0.0;
  vPrev_ = view.nodeVoltage(a_) - view.nodeVoltage(b_);
}

void Inductor::commitStep(const SystemView& view, double /*time*/,
                          double /*dt*/, IntegrationMethod /*method*/) {
  iPrev_ = view.aux(auxRow_);
  vPrev_ = view.nodeVoltage(a_) - view.nodeVoltage(b_);
}

double Inductor::state(int /*k*/, const SystemView& view) const {
  return view.aux(auxRow_);
}

Vcvs::Vcvs(std::string name, NodeId outPlus, NodeId outMinus, NodeId ctrlPlus,
           NodeId ctrlMinus, double gain)
    : Device(std::move(name)), op_(outPlus), om_(outMinus), cp_(ctrlPlus),
      cm_(ctrlMinus), gain_(gain) {}

void Vcvs::setup(SetupContext& ctx) {
  auxRow_ = ctx.allocateAux("i(" + name() + ")");
}

void Vcvs::stamp(const EvalContext& ctx) {
  const double i = ctx.view.aux(auxRow_);
  const int rop = Stamper::rowOfNode(op_);
  const int rom = Stamper::rowOfNode(om_);
  const int rcp = Stamper::rowOfNode(cp_);
  const int rcm = Stamper::rowOfNode(cm_);
  ctx.addResidual(rop, i);
  ctx.addResidual(rom, -i);
  ctx.addJacobian(rop, auxRow_, 1.0);
  ctx.addJacobian(rom, auxRow_, -1.0);
  // Branch: v(out) - gain * v(ctrl) = 0.
  const double vout =
      ctx.view.nodeVoltage(op_) - ctx.view.nodeVoltage(om_);
  const double vctrl =
      ctx.view.nodeVoltage(cp_) - ctx.view.nodeVoltage(cm_);
  ctx.addResidual(auxRow_, vout - gain_ * vctrl);
  ctx.addJacobian(auxRow_, rop, 1.0);
  ctx.addJacobian(auxRow_, rom, -1.0);
  ctx.addJacobian(auxRow_, rcp, -gain_);
  ctx.addJacobian(auxRow_, rcm, gain_);
}

Vccs::Vccs(std::string name, NodeId outPlus, NodeId outMinus, NodeId ctrlPlus,
           NodeId ctrlMinus, double transconductance)
    : Device(std::move(name)), op_(outPlus), om_(outMinus), cp_(ctrlPlus),
      cm_(ctrlMinus), gm_(transconductance) {}

void Vccs::stamp(const EvalContext& ctx) {
  const double vctrl =
      ctx.view.nodeVoltage(cp_) - ctx.view.nodeVoltage(cm_);
  const double i = gm_ * vctrl;
  const int rop = Stamper::rowOfNode(op_);
  const int rom = Stamper::rowOfNode(om_);
  const int rcp = Stamper::rowOfNode(cp_);
  const int rcm = Stamper::rowOfNode(cm_);
  // Current flows out of out+ into out- through the source.
  ctx.addResidual(rop, i);
  ctx.addResidual(rom, -i);
  ctx.addJacobian(rop, rcp, gm_);
  ctx.addJacobian(rop, rcm, -gm_);
  ctx.addJacobian(rom, rcp, -gm_);
  ctx.addJacobian(rom, rcm, gm_);
}

}  // namespace fefet::spice
