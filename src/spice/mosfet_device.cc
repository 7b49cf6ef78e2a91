#include "spice/mosfet_device.h"

#include "common/error.h"
#include "spice/device_batch.h"

namespace fefet::spice {

MosfetDevice::MosfetDevice(std::string name, NodeId drain, NodeId gate,
                           NodeId source, const xtor::MosParams& params,
                           double width, double gateLeak)
    : Device(std::move(name)),
      drain_(drain),
      gate_(gate),
      source_(source),
      model_(params, width),
      gateLeak_(gateLeak),
      overlapCap_(params.overlapCapPerWidth * width),
      junctionCap_(params.junctionCapPerWidth * width) {}

double MosfetDevice::channelCharge(const SystemView& view) const {
  const double vgs =
      view.nodeVoltage(gate_) - view.nodeVoltage(source_);
  return model_.gateArea() * model_.gateChargeDensity(vgs);
}

void MosfetDevice::stamp(const EvalContext& ctx) {
  const auto& view = ctx.view;
  const double vd = view.nodeVoltage(drain_);
  const double vg = view.nodeVoltage(gate_);
  const double vs = view.nodeVoltage(source_);
  const int rd = Stamper::rowOfNode(drain_);
  const int rg = Stamper::rowOfNode(gate_);
  const int rs = Stamper::rowOfNode(source_);

  // --- channel current -------------------------------------------------
  const auto op = model_.evaluate(vd, vg, vs);
  const double gms = -(op.gm + op.gds);
  ctx.addResidual(rd, op.ids);
  ctx.addResidual(rs, -op.ids);
  ctx.addJacobian(rd, rd, op.gds);
  ctx.addJacobian(rd, rg, op.gm);
  ctx.addJacobian(rd, rs, gms);
  ctx.addJacobian(rs, rd, -op.gds);
  ctx.addJacobian(rs, rg, -op.gm);
  ctx.addJacobian(rs, rs, -gms);

  // --- gate leakage (also provides a DC path for floating gates) -------
  if (gateLeak_ > 0.0) {
    const double il = gateLeak_ * (vg - vs);
    ctx.addResidual(rg, il);
    ctx.addResidual(rs, -il);
    ctx.addJacobian(rg, rg, gateLeak_);
    ctx.addJacobian(rg, rs, -gateLeak_);
    ctx.addJacobian(rs, rg, -gateLeak_);
    ctx.addJacobian(rs, rs, gateLeak_);
  }

  if (ctx.dc) return;

  // --- intrinsic gate-channel charge (nonlinear, lumped to source) -----
  {
    const double q = channelCharge(view);
    const auto [i, dIdQ] = chanCharge_.currentFor(q, ctx);
    const double cgg =
        model_.gateArea() * model_.gateCapacitanceDensity(vg - vs);
    const double g = dIdQ * cgg;
    ctx.addResidual(rg, i);
    ctx.addResidual(rs, -i);
    ctx.addJacobian(rg, rg, g);
    ctx.addJacobian(rg, rs, -g);
    ctx.addJacobian(rs, rg, -g);
    ctx.addJacobian(rs, rs, g);
  }
  // --- linear charge elements ------------------------------------------
  const auto stampLinearCap = [&](ChargeIntegrator& integ, NodeId a, NodeId b,
                                  double c) {
    if (c <= 0.0) return;
    const double v = view.nodeVoltage(a) - view.nodeVoltage(b);
    const auto [i, dIdQ] = integ.currentFor(c * v, ctx);
    const double g = dIdQ * c;
    const int ra = Stamper::rowOfNode(a);
    const int rb = Stamper::rowOfNode(b);
    ctx.addResidual(ra, i);
    ctx.addResidual(rb, -i);
    ctx.addJacobian(ra, ra, g);
    ctx.addJacobian(ra, rb, -g);
    ctx.addJacobian(rb, ra, -g);
    ctx.addJacobian(rb, rb, g);
  };
  stampLinearCap(ovlGd_, gate_, drain_, overlapCap_);
  stampLinearCap(ovlGs_, gate_, source_, overlapCap_);
  stampLinearCap(junD_, drain_, kGround, junctionCap_);
  stampLinearCap(junS_, source_, kGround, junctionCap_);
}

void MosfetDevice::initializeState(const SystemView& view) {
  const double vd = view.nodeVoltage(drain_);
  const double vg = view.nodeVoltage(gate_);
  const double vs = view.nodeVoltage(source_);
  chanCharge_.initialize(channelCharge(view));
  ovlGd_.initialize(overlapCap_ * (vg - vd));
  ovlGs_.initialize(overlapCap_ * (vg - vs));
  junD_.initialize(junctionCap_ * vd);
  junS_.initialize(junctionCap_ * vs);
}

void MosfetDevice::commitStep(const SystemView& view, double /*time*/,
                              double dt, IntegrationMethod method) {
  const double vd = view.nodeVoltage(drain_);
  const double vg = view.nodeVoltage(gate_);
  const double vs = view.nodeVoltage(source_);
  // The assembly's bypass cache holds the gate charge at (or within the
  // bypass band of) the converged iterate, so the commit reuses it rather
  // than evaluating the model once more per transistor per step.  Only a
  // Simulator commits, and its netlist is frozen, so batches_ is set.
  chanCharge_.commitFrom(
      model_.gateArea() * batches_->mosfetGateChargeDensity(lane_, vg, vs),
      dt, method);
  ovlGd_.commitFrom(overlapCap_ * (vg - vd), dt, method);
  ovlGs_.commitFrom(overlapCap_ * (vg - vs), dt, method);
  junD_.commitFrom(junctionCap_ * vd, dt, method);
  junS_.commitFrom(junctionCap_ * vs, dt, method);
}

double MosfetDevice::state(int k, const SystemView& view) const {
  const double vd = view.nodeVoltage(drain_);
  const double vg = view.nodeVoltage(gate_);
  const double vs = view.nodeVoltage(source_);
  // "id" is the exact model current, not the bypass extrapolation.
  return k == 0 ? model_.idsAt(vd, vg, vs) : (k == 1 ? vg : vd) - vs;
}

}  // namespace fefet::spice
