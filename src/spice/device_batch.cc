#include "spice/device_batch.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "ferro/lk_model.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/sources.h"

namespace fefet::spice {

namespace {

/// MOSFET bypass band: a lane whose drain, gate and source voltages all
/// satisfy |v - vEval| <= kBypassAbsTol + kBypassRelTol * |vEval| against
/// its last full evaluation skips the model and stamps the first-order
/// extrapolation from that evaluation (DESIGN.md §6.5.1).  The pair is the
/// loosest power-of-ten band found that leaves every step and Newton
/// iteration count of every perfbench schedule unchanged.
constexpr double kBypassAbsTol = 1e-6;
constexpr double kBypassRelTol = 1e-6;

/// False against a NaN (never evaluated) cache entry.
inline bool inBypassBand(double v, double cached) {
  return std::abs(v - cached) <=
         kBypassAbsTol + kBypassRelTol * std::abs(cached);
}

}  // namespace

DeviceBatches::DeviceBatches(const Netlist& netlist) {
  const auto& devices = netlist.devices();
  order_.reserve(devices.size());
  refs_.reserve(devices.size());

  const auto lane = [](std::size_t size) {
    return static_cast<std::uint32_t>(size);
  };
  for (const auto& owned : devices) {
    Device* device = owned.get();
    order_.push_back(device);
    Ref ref;
    if (auto* r = dynamic_cast<Resistor*>(device)) {
      ref = {Kind::kResistor, lane(resistors_.a.size())};
      resistors_.a.push_back(r->a_);
      resistors_.b.push_back(r->b_);
      resistors_.g.push_back(1.0 / r->resistance_);
    } else if (auto* c = dynamic_cast<Capacitor*>(device)) {
      ref = {Kind::kCapacitor, lane(capacitors_.a.size())};
      capacitors_.dev.push_back(c);
      capacitors_.a.push_back(c->a_);
      capacitors_.b.push_back(c->b_);
      capacitors_.c.push_back(c->capacitance_);
    } else if (auto* v = dynamic_cast<VoltageSource*>(device)) {
      ref = {Kind::kVoltageSource, lane(vsources_.plus.size())};
      vsources_.dev.push_back(v);
      vsources_.plus.push_back(v->plus_);
      vsources_.minus.push_back(v->minus_);
      vsources_.auxRow.push_back(v->auxRow_);
    } else if (auto* i = dynamic_cast<CurrentSource*>(device)) {
      ref = {Kind::kCurrentSource, lane(isources_.from.size())};
      isources_.dev.push_back(i);
      isources_.from.push_back(i->from_);
      isources_.to.push_back(i->to_);
    } else if (auto* m = dynamic_cast<MosfetDevice*>(device)) {
      ref = {Kind::kMosfet, lane(mosfets_.dev.size())};
      m->batches_ = this;
      m->lane_ = ref.lane;
      mosfets_.dev.push_back(m);
      mosfets_.drain.push_back(m->drain_);
      mosfets_.gate.push_back(m->gate_);
      mosfets_.source.push_back(m->source_);
      mosfets_.model.push_back(&m->model_);
      mosfets_.gateLeak.push_back(m->gateLeak_);
      mosfets_.overlapCap.push_back(m->overlapCap_);
      mosfets_.junctionCap.push_back(m->junctionCap_);
      mosfets_.gateArea.push_back(m->model_.gateArea());
    } else if (auto* f = dynamic_cast<FeCapDevice*>(device)) {
      ref = {Kind::kFeCap, lane(fecaps_.dev.size())};
      fecaps_.dev.push_back(f);
      fecaps_.a.push_back(f->a_);
      fecaps_.b.push_back(f->b_);
      fecaps_.auxRow.push_back(f->auxRow_);
      fecaps_.tFe.push_back(f->geom_.thickness);
      fecaps_.area.push_back(f->geom_.area);
      fecaps_.rho.push_back(f->lk_.coefficients().rho);
      fecaps_.backgroundCap.push_back(f->backgroundCap_);
      fecaps_.lk.push_back(&f->lk_);
    } else {
      ref = {Kind::kGeneric, 0};
    }
    if (ref.kind != Kind::kGeneric) ++batchedCount_;
    refs_.push_back(ref);
  }

  // Size the scratch lanes once — assemble-time phases never allocate.
  resistors_.i.resize(resistors_.a.size());
  capacitors_.i.resize(capacitors_.a.size());
  capacitors_.g.resize(capacitors_.a.size());
  vsources_.v.resize(vsources_.plus.size());
  isources_.i.resize(isources_.from.size());
  const std::size_t nm = mosfets_.dev.size();
  const double never = std::numeric_limits<double>::quiet_NaN();
  mosfets_.vdEval.assign(nm, never);
  mosfets_.vgEval.assign(nm, never);
  mosfets_.vsEval.assign(nm, never);
  mosfets_.opEval.resize(nm);
  mosfets_.qEval.resize(nm);
  mosfets_.cEval.resize(nm);
  mosfets_.chargeValid.assign(nm, 0);
  mosfets_.evalLanes.reserve(nm);
  mosfets_.vd.resize(nm);
  mosfets_.vg.resize(nm);
  mosfets_.vs.resize(nm);
  mosfets_.ids.resize(nm);
  mosfets_.qDensity.resize(nm);
  mosfets_.chanI.resize(nm);
  mosfets_.chanG.resize(nm);
  mosfets_.ovlGdI.resize(nm);
  mosfets_.ovlGdG.resize(nm);
  mosfets_.ovlGsI.resize(nm);
  mosfets_.ovlGsG.resize(nm);
  mosfets_.junDI.resize(nm);
  mosfets_.junDG.resize(nm);
  mosfets_.junSI.resize(nm);
  mosfets_.junSG.resize(nm);
  const std::size_t nf = fecaps_.dev.size();
  fecaps_.p.resize(nf);
  fecaps_.pPrev.resize(nf);
  fecaps_.field.resize(nf);
  fecaps_.slope.resize(nf);
  fecaps_.dPdt.resize(nf);
  fecaps_.dRatedP.resize(nf);
  fecaps_.bgI.resize(nf);
  fecaps_.bgG.resize(nf);
}

void DeviceBatches::stampAll(const EvalContext& ctx,
                             std::span<const std::size_t> jacobianEnds) {
  FEFET_REQUIRE(ctx.buffer != nullptr,
                "DeviceBatches::stampAll writes into a StampBuffer");
  // Phase 1: type-major kernels into scratch.
  const auto companion = ChargeIntegrator::Companion::of(ctx);
  evalResistors(ctx);
  evalCapacitors(ctx, companion);
  evalVoltageSources(ctx);
  evalCurrentSources(ctx);
  evalMosfets(ctx, companion);
  evalFeCaps(ctx, companion);

  // Phase 2: scatter in netlist order straight into the slot buffer — the
  // accumulation order (and therefore the floating-point result) matches
  // the scalar engine.
  StampBuffer& buf = *ctx.buffer;
  for (std::size_t i = 0; i < refs_.size(); ++i) {
    const Ref ref = refs_[i];
    switch (ref.kind) {
      case Kind::kResistor: scatterResistor(ref.lane, buf); break;
      case Kind::kCapacitor:
        if (!ctx.dc) scatterCapacitor(ref.lane, buf);
        break;
      case Kind::kVoltageSource:
        scatterVoltageSource(ref.lane, ctx.view, buf);
        break;
      case Kind::kCurrentSource: scatterCurrentSource(ref.lane, buf); break;
      case Kind::kMosfet: scatterMosfet(ref.lane, ctx.dc, buf); break;
      case Kind::kFeCap: scatterFeCap(ref.lane, ctx, buf); break;
      case Kind::kGeneric: order_[i]->stamp(ctx); break;
    }
    if (buf.jacobianCalls() != jacobianEnds[i]) {
      throwCountMismatch(i, buf.jacobianCalls(), jacobianEnds);
    }
  }
}

void DeviceBatches::throwCountMismatch(
    std::size_t deviceIndex, std::size_t consumed,
    std::span<const std::size_t> jacobianEnds) const {
  const std::size_t before =
      deviceIndex > 0 ? jacobianEnds[deviceIndex - 1] : 0;
  std::ostringstream os;
  os << "compiled stamp pipeline: device '" << order_[deviceIndex]->name()
     << "' emitted " << consumed - before
     << " Jacobian entries but the recorded pattern has "
     << jacobianEnds[deviceIndex] - before
     << " — stamp sequences must be a fixed function of the DC/transient "
        "mode";
  throw NumericalError(os.str());
}

// ---------------------------------------------------------------------------
// Phase 1: batch kernels.  Every lane evaluates the same expression
// sequence as the corresponding scalar Device::stamp — bit-identity
// depends on it.

void DeviceBatches::evalResistors(const EvalContext& ctx) {
  ResistorBatch& batch = resistors_;
  const SystemView& view = ctx.view;
  const std::size_t n = batch.a.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double va = view.nodeVoltage(batch.a[k]);
    const double vb = view.nodeVoltage(batch.b[k]);
    batch.i[k] = batch.g[k] * (va - vb);
  }
}

void DeviceBatches::evalCapacitors(
    const EvalContext& ctx, const ChargeIntegrator::Companion& companion) {
  if (ctx.dc) return;  // scalar Capacitor::stamp is a no-op in DC
  CapacitorBatch& batch = capacitors_;
  const SystemView& view = ctx.view;
  const std::size_t n = batch.a.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double v =
        view.nodeVoltage(batch.a[k]) - view.nodeVoltage(batch.b[k]);
    const double q = batch.c[k] * v;
    const auto [i, dIdQ] = batch.dev[k]->charge_.currentFor(q, companion);
    batch.i[k] = i;
    batch.g[k] = dIdQ * batch.c[k];
  }
}

void DeviceBatches::evalVoltageSources(const EvalContext& ctx) {
  VoltageSourceBatch& batch = vsources_;
  const std::size_t n = batch.plus.size();
  for (std::size_t k = 0; k < n; ++k) {
    batch.v[k] = batch.dev[k]->shape_(ctx.time);
  }
}

void DeviceBatches::evalCurrentSources(const EvalContext& ctx) {
  CurrentSourceBatch& batch = isources_;
  const std::size_t n = batch.from.size();
  for (std::size_t k = 0; k < n; ++k) {
    batch.i[k] = batch.dev[k]->shape_(ctx.time);
  }
}

void DeviceBatches::evalMosfets(
    const EvalContext& ctx, const ChargeIntegrator::Companion& companion) {
  MosfetBatch& batch = mosfets_;
  const SystemView& view = ctx.view;
  const std::size_t n = batch.dev.size();
  mosfetBypassed_ = 0;
  if (n == 0) return;
  const bool charge = !ctx.dc;  // charge elements vanish in DC

  // Bypass test.  A lane inside the band stamps the first-order
  // extrapolation from its cache: the drain current through the cached
  // gm/gds, the gate charge through the cached capacitance.  The other
  // lanes are gathered for one kernel call each.
  batch.evalLanes.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const double vd = view.nodeVoltage(batch.drain[k]);
    const double vg = view.nodeVoltage(batch.gate[k]);
    const double vs = view.nodeVoltage(batch.source[k]);
    batch.vd[k] = vd;
    batch.vg[k] = vg;
    batch.vs[k] = vs;
    if (!inBypassBand(vd, batch.vdEval[k]) ||
        !inBypassBand(vg, batch.vgEval[k]) ||
        !inBypassBand(vs, batch.vsEval[k]) ||
        (charge && batch.chargeValid[k] == 0)) {
      batch.evalLanes.push_back(static_cast<std::uint32_t>(k));
      continue;
    }
    const xtor::MosOperatingPoint& op = batch.opEval[k];
    batch.ids[k] = op.ids + op.gds * (vd - batch.vdEval[k]) +
                   op.gm * (vg - batch.vgEval[k]) -
                   (op.gm + op.gds) * (vs - batch.vsEval[k]);
    if (charge) batch.qDensity[k] = extrapolatedChargeDensity(k, vg, vs);
  }
  const std::span<const std::uint32_t> lanes = batch.evalLanes;
  mosfetBypassed_ = n - lanes.size();

  xtor::MosfetModel::evaluateBatch(lanes, batch.model.data(), batch.vd.data(),
                                   batch.vg.data(), batch.vs.data(),
                                   batch.opEval.data());
  for (const std::uint32_t k : lanes) {
    batch.vdEval[k] = batch.vd[k];
    batch.vgEval[k] = batch.vg[k];
    batch.vsEval[k] = batch.vs[k];
    batch.chargeValid[k] = charge ? 1 : 0;
    batch.ids[k] = batch.opEval[k].ids;
  }
  if (!charge) return;

  // Intrinsic gate charge: vgs lanes reuse the qEval cache before the
  // kernel overwrites it with the charge density.
  for (const std::uint32_t k : lanes) {
    batch.qEval[k] = batch.vg[k] - batch.vs[k];
  }
  xtor::MosfetModel::gateChargeBatch(lanes, batch.model.data(),
                                     batch.qEval.data(), batch.qEval.data(),
                                     batch.cEval.data());
  for (const std::uint32_t k : lanes) batch.qDensity[k] = batch.qEval[k];
  for (std::size_t k = 0; k < n; ++k) {
    const MosfetDevice& dev = *batch.dev[k];
    const double q = batch.gateArea[k] * batch.qDensity[k];
    const auto [i, dIdQ] = dev.chanCharge_.currentFor(q, companion);
    batch.chanI[k] = i;
    batch.chanG[k] = dIdQ * (batch.gateArea[k] * batch.cEval[k]);
  }
  // Linear charge elements (same companion arithmetic as stampLinearCap).
  for (std::size_t k = 0; k < n; ++k) {
    const MosfetDevice& dev = *batch.dev[k];
    const double vd = batch.vd[k];
    const double vg = batch.vg[k];
    const double vs = batch.vs[k];
    const double ovl = batch.overlapCap[k];
    const double jun = batch.junctionCap[k];
    {
      const auto [i, dIdQ] =
          dev.ovlGd_.currentFor(ovl * (vg - vd), companion);
      batch.ovlGdI[k] = i;
      batch.ovlGdG[k] = dIdQ * ovl;
    }
    {
      const auto [i, dIdQ] =
          dev.ovlGs_.currentFor(ovl * (vg - vs), companion);
      batch.ovlGsI[k] = i;
      batch.ovlGsG[k] = dIdQ * ovl;
    }
    {
      const auto [i, dIdQ] = dev.junD_.currentFor(jun * vd, companion);
      batch.junDI[k] = i;
      batch.junDG[k] = dIdQ * jun;
    }
    {
      const auto [i, dIdQ] = dev.junS_.currentFor(jun * vs, companion);
      batch.junSI[k] = i;
      batch.junSG[k] = dIdQ * jun;
    }
  }
}

double DeviceBatches::extrapolatedChargeDensity(std::size_t lane, double vg,
                                                double vs) const {
  const MosfetBatch& batch = mosfets_;
  const double dvgs = (vg - vs) - (batch.vgEval[lane] - batch.vsEval[lane]);
  return batch.qEval[lane] + batch.cEval[lane] * dvgs;
}

double DeviceBatches::mosfetGateChargeDensity(std::uint32_t lane, double vg,
                                              double vs) const {
  const MosfetBatch& batch = mosfets_;
  if (batch.chargeValid[lane] != 0 && inBypassBand(vg, batch.vgEval[lane]) &&
      inBypassBand(vs, batch.vsEval[lane])) {
    return extrapolatedChargeDensity(lane, vg, vs);
  }
  return batch.model[lane]->gateChargeDensity(vg - vs);
}

void DeviceBatches::evalFeCaps(
    const EvalContext& ctx, const ChargeIntegrator::Companion& companion) {
  FeCapBatch& batch = fecaps_;
  const SystemView& view = ctx.view;
  const std::size_t n = batch.dev.size();
  if (n == 0) return;
  for (std::size_t k = 0; k < n; ++k) {
    batch.p[k] = view.aux(batch.auxRow[k]);
    batch.pPrev[k] = batch.dev[k]->pCommitted_;
  }
  // dP/dt companion form: the LK state always integrates backward Euler
  // (FeCapDevice::rateFor — trapezoidal rings on the negative-capacitance
  // branch).
  if (ctx.dc || ctx.dt <= 0.0) {
    for (std::size_t k = 0; k < n; ++k) {
      batch.dPdt[k] = 0.0;
      batch.dRatedP[k] = 0.0;
    }
  } else {
    const double rate = 1.0 / ctx.dt;
    for (std::size_t k = 0; k < n; ++k) {
      batch.dPdt[k] = (batch.p[k] - batch.pPrev[k]) / ctx.dt;
      batch.dRatedP[k] = rate;
    }
  }
  ferro::LandauKhalatnikov::staticFieldBatch(n, batch.lk.data(),
                                             batch.p.data(),
                                             batch.field.data(),
                                             batch.slope.data());
  if (!ctx.dc) {
    for (std::size_t k = 0; k < n; ++k) {
      const double bc = batch.backgroundCap[k];
      if (bc <= 0.0) continue;
      const double v =
          view.nodeVoltage(batch.a[k]) - view.nodeVoltage(batch.b[k]);
      const auto [ib, dIdQ] =
          batch.dev[k]->background_.currentFor(bc * v, companion);
      batch.bgI[k] = ib;
      batch.bgG[k] = dIdQ * bc;
    }
  }
}

// ---------------------------------------------------------------------------
// Phase 2: netlist-order scatter into the StampBuffer.  Call sequences
// mirror the scalar stamp implementations entry for entry.

namespace {

/// Two-terminal element: current i leaving node row ra into rb, and its
/// conductance g (Resistor::stamp and the companion forms of every
/// charge element emit this same six-call sequence).
inline void scatterBranch(StampBuffer& buf, int ra, int rb, double i,
                          double g) {
  buf.addResidual(ra, i);
  buf.addResidual(rb, -i);
  buf.addJacobian(ra, ra, g);
  buf.addJacobian(ra, rb, -g);
  buf.addJacobian(rb, ra, -g);
  buf.addJacobian(rb, rb, g);
}

}  // namespace

void DeviceBatches::scatterResistor(std::uint32_t lane,
                                    StampBuffer& buf) const {
  const ResistorBatch& batch = resistors_;
  scatterBranch(buf, Stamper::rowOfNode(batch.a[lane]),
                Stamper::rowOfNode(batch.b[lane]), batch.i[lane],
                batch.g[lane]);
}

void DeviceBatches::scatterCapacitor(std::uint32_t lane,
                                     StampBuffer& buf) const {
  const CapacitorBatch& batch = capacitors_;
  scatterBranch(buf, Stamper::rowOfNode(batch.a[lane]),
                Stamper::rowOfNode(batch.b[lane]), batch.i[lane],
                batch.g[lane]);
}

void DeviceBatches::scatterVoltageSource(std::uint32_t lane,
                                         const SystemView& view,
                                         StampBuffer& buf) const {
  const VoltageSourceBatch& batch = vsources_;
  const int rp = Stamper::rowOfNode(batch.plus[lane]);
  const int rm = Stamper::rowOfNode(batch.minus[lane]);
  const int aux = batch.auxRow[lane];
  const double i = view.aux(aux);
  const double vp = view.nodeVoltage(batch.plus[lane]);
  const double vm = view.nodeVoltage(batch.minus[lane]);
  buf.addResidual(rp, i);
  buf.addResidual(rm, -i);
  buf.addJacobian(rp, aux, 1.0);
  buf.addJacobian(rm, aux, -1.0);
  buf.addResidual(aux, vp - vm - batch.v[lane]);
  buf.addJacobian(aux, rp, 1.0);
  buf.addJacobian(aux, rm, -1.0);
}

void DeviceBatches::scatterCurrentSource(std::uint32_t lane,
                                         StampBuffer& buf) const {
  const CurrentSourceBatch& batch = isources_;
  const double i = batch.i[lane];
  buf.addResidual(Stamper::rowOfNode(batch.from[lane]), i);
  buf.addResidual(Stamper::rowOfNode(batch.to[lane]), -i);
}

void DeviceBatches::scatterMosfet(std::uint32_t lane, bool dc,
                                  StampBuffer& buf) const {
  const MosfetBatch& batch = mosfets_;
  const int rd = Stamper::rowOfNode(batch.drain[lane]);
  const int rg = Stamper::rowOfNode(batch.gate[lane]);
  const int rs = Stamper::rowOfNode(batch.source[lane]);

  const xtor::MosOperatingPoint& op = batch.opEval[lane];
  const double ids = batch.ids[lane];
  const double gms = -(op.gm + op.gds);
  buf.addResidual(rd, ids);
  buf.addResidual(rs, -ids);
  buf.addJacobian(rd, rd, op.gds);
  buf.addJacobian(rd, rg, op.gm);
  buf.addJacobian(rd, rs, gms);
  buf.addJacobian(rs, rd, -op.gds);
  buf.addJacobian(rs, rg, -op.gm);
  buf.addJacobian(rs, rs, -gms);

  const double gateLeak = batch.gateLeak[lane];
  if (gateLeak > 0.0) {
    scatterBranch(buf, rg, rs,
                  gateLeak * (batch.vg[lane] - batch.vs[lane]), gateLeak);
  }

  if (dc) return;

  scatterBranch(buf, rg, rs, batch.chanI[lane], batch.chanG[lane]);
  const int rground = Stamper::rowOfNode(kGround);
  if (batch.overlapCap[lane] > 0.0) {
    scatterBranch(buf, rg, rd, batch.ovlGdI[lane], batch.ovlGdG[lane]);
    scatterBranch(buf, rg, rs, batch.ovlGsI[lane], batch.ovlGsG[lane]);
  }
  if (batch.junctionCap[lane] > 0.0) {
    scatterBranch(buf, rd, rground, batch.junDI[lane], batch.junDG[lane]);
    scatterBranch(buf, rs, rground, batch.junSI[lane], batch.junSG[lane]);
  }
}

void DeviceBatches::scatterFeCap(std::uint32_t lane, const EvalContext& ctx,
                                 StampBuffer& buf) const {
  const FeCapBatch& batch = fecaps_;
  const int ra = Stamper::rowOfNode(batch.a[lane]);
  const int rb = Stamper::rowOfNode(batch.b[lane]);
  const int aux = batch.auxRow[lane];
  const double tFe = batch.tFe[lane];
  const double rho = batch.rho[lane];
  const double dPdt = batch.dPdt[lane];
  const double dRatedP = batch.dRatedP[lane];
  const double va = ctx.view.nodeVoltage(batch.a[lane]);
  const double vb = ctx.view.nodeVoltage(batch.b[lane]);

  buf.addResidual(aux, va - vb - tFe * (batch.field[lane] + rho * dPdt));
  buf.addJacobian(aux, ra, 1.0);
  buf.addJacobian(aux, rb, -1.0);
  buf.addJacobian(aux, aux, -tFe * (batch.slope[lane] + rho * dRatedP));

  if (!ctx.dc) {
    const double i = batch.area[lane] * dPdt;
    buf.addResidual(ra, i);
    buf.addResidual(rb, -i);
    const double dIdP = batch.area[lane] * dRatedP;
    buf.addJacobian(ra, aux, dIdP);
    buf.addJacobian(rb, aux, -dIdP);

    if (batch.backgroundCap[lane] > 0.0) {
      scatterBranch(buf, ra, rb, batch.bgI[lane], batch.bgG[lane]);
    }
  }
}

}  // namespace fefet::spice
