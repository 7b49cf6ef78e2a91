#include "spice/fecap_device.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"

namespace fefet::spice {

FeCapDevice::FeCapDevice(std::string name, NodeId a, NodeId b,
                         const ferro::LkCoefficients& coefficients,
                         const ferro::FeGeometry& geometry,
                         double initialPolarization, double backgroundEpsR)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      lk_(coefficients),
      geom_(geometry),
      backgroundCap_(backgroundEpsR > 0.0
                         ? constants::kEpsilon0 * backgroundEpsR *
                               geometry.area / geometry.thickness
                         : 0.0),
      pCommitted_(initialPolarization) {
  if (lk_.isFerroelectric()) remnantPolarization_ = lk_.remnantPolarization();
}

void FeCapDevice::setup(SetupContext& ctx) {
  auxRow_ = ctx.allocateAux("P(" + name() + ")");
}

void FeCapDevice::seedUnknowns(std::vector<double>& x) const {
  x[static_cast<std::size_t>(auxRow_)] = pCommitted_;
}

std::pair<double, double> FeCapDevice::rateFor(double p,
                                               const EvalContext& ctx) const {
  // The LK state always integrates with backward Euler: trapezoidal
  // companion forms ring on the stiff negative-capacitance branch and the
  // oscillation can hop shallow polarization barriers.  BE is L-stable.
  if (ctx.dc || ctx.dt <= 0.0) return {0.0, 0.0};
  return {(p - pCommitted_) / ctx.dt, 1.0 / ctx.dt};
}

void FeCapDevice::stamp(const EvalContext& ctx) {
  const auto& view = ctx.view;
  const double va = view.nodeVoltage(a_);
  const double vb = view.nodeVoltage(b_);
  const double p = view.aux(auxRow_);

  const auto [dPdt, dRatedP] = rateFor(p, ctx);
  const double tFe = geom_.thickness;
  const double rho = lk_.coefficients().rho;

  FeCapStampTerms t;
  t.background = backgroundCap_ > 0.0;
  t.lkResidual = va - vb - tFe * (lk_.staticField(p) + rho * dPdt);
  t.lkSlope = -tFe * (lk_.staticFieldSlope(p) + rho * dRatedP);
  if (!ctx.dc) {
    t.i = geom_.area * dPdt;
    t.dIdP = geom_.area * dRatedP;
    if (t.background) {
      const double q = backgroundCap_ * (va - vb);
      const auto [ib, dIdQ] = background_.currentFor(q, ctx);
      t.bgI = ib;
      t.bgG = dIdQ * backgroundCap_;
    }
  }
  stampFeCap(CallSink<3>(ctx, {Stamper::rowOfNode(a_), Stamper::rowOfNode(b_),
                               auxRow_}),
             t, ctx.dc);
}

void FeCapDevice::initializeState(const SystemView& view) {
  // Committed polarization is a device property (the stored bit); node
  // voltages initialize the background dielectric only.
  const double v = view.nodeVoltage(a_) - view.nodeVoltage(b_);
  background_.initialize(backgroundCap_ * v);
  rateCommitted_ = 0.0;
}

void FeCapDevice::commitStep(const SystemView& view, double /*time*/,
                             double dt, IntegrationMethod method) {
  const double p = view.aux(auxRow_);
  rateCommitted_ = dt > 0.0 ? (p - pCommitted_) / dt : 0.0;
  pCommitted_ = p;
  (void)method;
  const double v = view.nodeVoltage(a_) - view.nodeVoltage(b_);
  background_.commitFrom(backgroundCap_ * v, dt, method);
}

double FeCapDevice::maxStepHint(const SystemView& view) const {
  // Keep the per-step polarization change below a fraction of P_r so the
  // stiff switching trajectory stays resolved.
  const double pr = remnantPolarization_ ? *remnantPolarization_
                                         : lk_.remnantPolarization();
  const double va = view.nodeVoltage(a_);
  const double vb = view.nodeVoltage(b_);
  const double rate = std::abs((va - vb) / geom_.thickness -
                               lk_.staticField(pCommitted_)) /
                      lk_.coefficients().rho;
  if (rate <= 0.0) return 0.0;
  return (pr / 40.0) / rate;
}

void FeCapDevice::setPolarization(double p) {
  pCommitted_ = p;
  rateCommitted_ = 0.0;
}

double FeCapDevice::state(int k, const SystemView& view) const {
  return k == 0 ? view.aux(auxRow_)
                : view.nodeVoltage(a_) - view.nodeVoltage(b_);
}

}  // namespace fefet::spice
