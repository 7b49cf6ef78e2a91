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
  MosfetStampTerms t;
  t.leak = gateLeak_ > 0.0;
  t.overlap = overlapCap_ > 0.0;
  t.junction = junctionCap_ > 0.0;

  // --- channel current -------------------------------------------------
  const auto op = model_.evaluate(vd, vg, vs);
  t.ids = op.ids;
  t.gm = op.gm;
  t.gds = op.gds;

  // --- gate leakage (also provides a DC path for floating gates) -------
  if (t.leak) {
    t.leakI = gateLeak_ * (vg - vs);
    t.leakG = gateLeak_;
  }

  if (!ctx.dc) {
    // --- intrinsic gate-channel charge (nonlinear, lumped to source) ---
    const double q = channelCharge(view);
    const auto [i, dIdQ] = chanCharge_.currentFor(q, ctx);
    const double cgg =
        model_.gateArea() * model_.gateCapacitanceDensity(vg - vs);
    t.chanI = i;
    t.chanG = dIdQ * cgg;
    // --- linear charge elements ----------------------------------------
    const auto linearCap = [&](const ChargeIntegrator& integ, NodeId a,
                               NodeId b, double c, double& iOut,
                               double& gOut) {
      const double v = view.nodeVoltage(a) - view.nodeVoltage(b);
      const auto [ic, dIdQc] = integ.currentFor(c * v, ctx);
      iOut = ic;
      gOut = dIdQc * c;
    };
    if (t.overlap) {
      linearCap(ovlGd_, gate_, drain_, overlapCap_, t.ovlGdI, t.ovlGdG);
      linearCap(ovlGs_, gate_, source_, overlapCap_, t.ovlGsI, t.ovlGsG);
    }
    if (t.junction) {
      linearCap(junD_, drain_, kGround, junctionCap_, t.junDI, t.junDG);
      linearCap(junS_, source_, kGround, junctionCap_, t.junSI, t.junSG);
    }
  }
  stampMosfet(CallSink<3>(ctx, {Stamper::rowOfNode(drain_),
                                Stamper::rowOfNode(gate_),
                                Stamper::rowOfNode(source_)}),
              t, ctx.dc);
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
