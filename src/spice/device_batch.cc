#include "spice/device_batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

/// A lane table on terminal rows `rows` (-1 = ground), its CSR slots
/// still unset (buildPattern fills them).
template <int T>
LaneSlots<T> laneSlots(const std::array<int, T>& rows) {
  LaneSlots<T> slots;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    slots.row[t] = static_cast<std::uint32_t>(rows[t] + 1);
  }
  return slots;
}

/// Terminal row t of a lane table (padded row - 1, so ground is -1 again).
template <int T>
int rowOf(const LaneSlots<T>& slots, std::size_t t) {
  return static_cast<int>(slots.row[t]) - 1;
}

/// Pattern-building sink of an entry-major stamp body: every Jacobian
/// term marks its terminal pair's (row, col) in `rowCols` unless either is
/// ground; values and residuals go nowhere.
template <int T>
class PatternSink {
 public:
  PatternSink(std::vector<std::vector<std::size_t>>& rowCols,
              const LaneSlots<T>& slots)
      : rowCols_(rowCols), slots_(slots) {}

  struct Row {
    void operator+=(double) const {}
  };
  struct Entry {
    std::vector<std::size_t>* cols;  ///< nullptr on ground
    std::size_t col;
    void operator+=(double) const {
      if (cols != nullptr) cols->push_back(col);
    }
  };

  Row residual(int) const { return {}; }
  Entry jacobian(int t, int u) const {
    const int row = rowOf(slots_, static_cast<std::size_t>(t));
    const int col = rowOf(slots_, static_cast<std::size_t>(u));
    if (row < 0 || col < 0) return {nullptr, 0};
    return {&rowCols_[static_cast<std::size_t>(row)],
            static_cast<std::size_t>(col)};
  }

 private:
  std::vector<std::vector<std::size_t>>& rowCols_;
  const LaneSlots<T>& slots_;
};

/// Fill the CSR slots of lane tables from `pattern`: the padded slot of
/// each terminal pair, 0 — the trash element — for ground and for pairs
/// outside the pattern (which the lane's body never touches).
template <int T>
void fillSlots(const StampPattern& pattern, std::vector<LaneSlots<T>>& lanes) {
  constexpr std::size_t n = T;
  for (LaneSlots<T>& slots : lanes) {
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t u = 0; u < n; ++u) {
        const std::size_t idx =
            pattern.csrIndex(rowOf(slots, t), rowOf(slots, u));
        slots.entry[t * n + u] =
            idx == StampPattern::npos ? 0
                                      : static_cast<std::uint32_t>(idx + 1);
      }
    }
  }
}

}  // namespace

DeviceBatches::DeviceBatches(const Netlist& netlist) {
  const auto& devices = netlist.devices();
  refs_.reserve(devices.size());

  const auto lane = [](std::size_t size) {
    return static_cast<std::uint32_t>(size);
  };
  const auto row = Stamper::rowOfNode;
  const double never = std::numeric_limits<double>::quiet_NaN();
  const auto addResistorLane = [&](NodeId a, NodeId b, double g) {
    const Ref ref{Kind::kResistor, lane(resistors_.a.size())};
    resistors_.a.push_back(a);
    resistors_.b.push_back(b);
    resistors_.slots.push_back(laneSlots<2>({row(a), row(b)}));
    resistors_.g.push_back(g);
    return ref;
  };
  for (const auto& owned : devices) {
    Device* device = owned.get();
    Ref ref;
    if (auto* r = dynamic_cast<Resistor*>(device)) {
      ref = addResistorLane(r->a_, r->b_, 1.0 / r->resistance_);
    } else if (auto* s = dynamic_cast<TimedSwitch*>(device)) {
      ref = addResistorLane(s->a_, s->b_, 0.0);  // g set at the first eval
      resistors_.switches.push_back({ref.lane, s, never, 0});
    } else if (auto* d = dynamic_cast<Diode*>(device)) {
      ref = {Kind::kDiode, lane(diodes_.anode.size())};
      diodes_.anode.push_back(d->anode_);
      diodes_.cathode.push_back(d->cathode_);
      diodes_.slots.push_back(
          laneSlots<2>({row(d->anode_), row(d->cathode_)}));
      diodes_.is.push_back(d->params_.saturationCurrent);
      diodes_.vt.push_back(d->vt_);
    } else if (auto* c = dynamic_cast<Capacitor*>(device)) {
      ref = {Kind::kCapacitor, lane(capacitors_.a.size())};
      capacitors_.dev.push_back(c);
      capacitors_.a.push_back(c->a_);
      capacitors_.b.push_back(c->b_);
      capacitors_.slots.push_back(
          laneSlots<2>({row(c->a_), row(c->b_)}));
      capacitors_.c.push_back(c->capacitance_);
    } else if (auto* v = dynamic_cast<VoltageSource*>(device)) {
      ref = {Kind::kVoltageSource, lane(vsources_.plus.size())};
      vsources_.dev.push_back(v);
      vsources_.plus.push_back(v->plus_);
      vsources_.minus.push_back(v->minus_);
      vsources_.auxRow.push_back(v->auxRow_);
      vsources_.slots.push_back(laneSlots<3>(
          {row(v->plus_), row(v->minus_), v->auxRow_}));
    } else if (auto* i = dynamic_cast<CurrentSource*>(device)) {
      ref = {Kind::kCurrentSource, lane(isources_.from.size())};
      isources_.dev.push_back(i);
      isources_.from.push_back(i->from_);
      isources_.to.push_back(i->to_);
      isources_.slots.push_back(
          laneSlots<2>({row(i->from_), row(i->to_)}));
    } else if (auto* m = dynamic_cast<MosfetDevice*>(device)) {
      ref = {Kind::kMosfet, lane(mosfets_.dev.size())};
      m->batches_ = this;
      m->lane_ = ref.lane;
      mosfets_.dev.push_back(m);
      mosfets_.drain.push_back(m->drain_);
      mosfets_.gate.push_back(m->gate_);
      mosfets_.source.push_back(m->source_);
      mosfets_.slots.push_back(laneSlots<3>(
          {row(m->drain_), row(m->gate_), row(m->source_)}));
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
      fecaps_.slots.push_back(
          laneSlots<3>({row(f->a_), row(f->b_), f->auxRow_}));
      fecaps_.tFe.push_back(f->geom_.thickness);
      fecaps_.area.push_back(f->geom_.area);
      fecaps_.rho.push_back(f->lk_.coefficients().rho);
      fecaps_.backgroundCap.push_back(f->backgroundCap_);
      fecaps_.lk.push_back(&f->lk_);
    } else {
      throw InvalidArgumentError(
          "compiled stamp pipeline: device '" + device->name() +
          "' has no lane kind; the device set is closed (device_batch.h)");
    }
    refs_.push_back(ref);
  }

  // Size the scratch lanes once — assemble-time phases never allocate.
  resistors_.i.resize(resistors_.a.size());
  capacitors_.i.resize(capacitors_.a.size());
  capacitors_.g.resize(capacitors_.a.size());
  diodes_.i.resize(diodes_.anode.size());
  diodes_.g.resize(diodes_.anode.size());
  const auto sizeCache = [never](ShapeCache& cache, std::size_t n) {
    cache.value.resize(n);
    cache.time.assign(n, never);
    cache.version.resize(n);
  };
  sizeCache(vsources_.v, vsources_.dev.size());
  sizeCache(isources_.i, isources_.dev.size());
  const std::size_t nm = mosfets_.dev.size();
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
  mosfets_.qDensity.resize(nm);
  mosfets_.terms.resize(nm);
  for (std::size_t k = 0; k < nm; ++k) {
    MosfetStampTerms& t = mosfets_.terms[k];
    t.leak = mosfets_.gateLeak[k] > 0.0;
    t.overlap = mosfets_.overlapCap[k] > 0.0;
    t.junction = mosfets_.junctionCap[k] > 0.0;
    t.leakG = mosfets_.gateLeak[k];
  }
  const std::size_t nf = fecaps_.dev.size();
  fecaps_.p.resize(nf);
  fecaps_.pPrev.resize(nf);
  fecaps_.field.resize(nf);
  fecaps_.slope.resize(nf);
  fecaps_.dPdt.resize(nf);
  fecaps_.dRatedP.resize(nf);
  fecaps_.terms.resize(nf);
  for (std::size_t k = 0; k < nf; ++k) {
    fecaps_.terms[k].background = fecaps_.backgroundCap[k] > 0.0;
  }

  if (netlist.unknownCount() > 0) buildPattern(netlist);
}

void DeviceBatches::buildPattern(const Netlist& netlist) {
  // The union over both modes of every lane's touched pairs.  Bodies
  // branch only on the mode and on construction-time flags, so the
  // all-zero iterate and zero scratch mark what every assembly writes.
  std::vector<std::vector<std::size_t>> rowCols(
      static_cast<std::size_t>(netlist.unknownCount()));
  const std::vector<double> x(rowCols.size(), 0.0);
  const SystemView view(x, netlist.nodeCount());
  const auto patternSink = [&rowCols](const auto& slots) {
    return PatternSink(rowCols, slots);
  };
  for (const bool dc : {true, false}) {
    const EvalContext ctx{view, dc};
    for (const Ref ref : refs_) stampLane(ref, ctx, patternSink);
  }
  pattern_.emplace(std::move(rowCols), netlist.nodeCount());
  FEFET_REQUIRE(pattern_->nonZeros() <
                    std::numeric_limits<std::uint32_t>::max(),
                "DeviceBatches: too many entries for 32-bit slots");

  fillSlots(*pattern_, resistors_.slots);
  fillSlots(*pattern_, capacitors_.slots);
  fillSlots(*pattern_, diodes_.slots);
  fillSlots(*pattern_, vsources_.slots);
  fillSlots(*pattern_, isources_.slots);
  fillSlots(*pattern_, mosfets_.slots);
  fillSlots(*pattern_, fecaps_.slots);
}

void DeviceBatches::stampAll(const EvalContext& ctx, const StampBuffer& out) {
  // Phase 1: type-major kernels into scratch.
  const auto companion = ChargeIntegrator::Companion::of(ctx);
  evalResistors(ctx);
  evalCapacitors(ctx, companion);
  evalDiodes(ctx);
  evalShapes(vsources_.dev, vsources_.v, ctx.time);
  evalShapes(isources_.dev, isources_.i, ctx.time);
  evalMosfets(ctx, companion);
  evalFeCaps(ctx, companion);

  // Phase 2: stamp in netlist order — the accumulation order of every
  // shared entry (and therefore the floating-point result) matches the
  // scalar engine.
  const auto slotSink = [&out](const auto& slots) {
    return SlotSink(out, slots);
  };
  for (const Ref ref : refs_) stampLane(ref, ctx, slotSink);
}

// ---------------------------------------------------------------------------
// Phase 1: batch kernels.  Every lane evaluates the same expression
// sequence as the corresponding scalar Device::stamp — bit-identity
// depends on it.

void DeviceBatches::evalResistors(const EvalContext& ctx) {
  ResistorBatch& batch = resistors_;
  // A switch lane re-evaluates its control on a Newton solve's first
  // assembly, or when setControl replaced it (as evalShapes does).
  for (SwitchLane& s : batch.switches) {
    if (s.time == ctx.time && s.version == s.dev->controlVersion_) continue;
    batch.g[s.lane] = s.dev->conductanceAt(ctx.time);
    s.time = ctx.time;
    s.version = s.dev->controlVersion_;
  }
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

void DeviceBatches::evalDiodes(const EvalContext& ctx) {
  DiodeBatch& batch = diodes_;
  const SystemView& view = ctx.view;
  const std::size_t n = batch.anode.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double v =
        view.nodeVoltage(batch.anode[k]) - view.nodeVoltage(batch.cathode[k]);
    const auto [i, g] = diodeBranch(v, batch.is[k], batch.vt[k]);
    batch.i[k] = i;
    batch.g[k] = g;
  }
}

template <class Source>
void DeviceBatches::evalShapes(const std::vector<const Source*>& dev,
                               ShapeCache& cache, double time) {
  // `time` is fixed within a Newton solve, so a lane re-evaluates on the
  // solve's first assembly, or when setShape replaced its waveform.
  for (std::size_t k = 0; k < dev.size(); ++k) {
    const Source& source = *dev[k];
    if (cache.time[k] == time && cache.version[k] == source.shapeVersion_) {
      continue;
    }
    cache.value[k] = source.shape_(time);
    cache.time[k] = time;
    cache.version[k] = source.shapeVersion_;
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
    batch.terms[k].ids = op.ids + op.gds * (vd - batch.vdEval[k]) +
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
    batch.terms[k].ids = batch.opEval[k].ids;
  }
  for (std::size_t k = 0; k < n; ++k) {
    MosfetStampTerms& t = batch.terms[k];
    t.gm = batch.opEval[k].gm;
    t.gds = batch.opEval[k].gds;
    if (t.leak) t.leakI = batch.gateLeak[k] * (batch.vg[k] - batch.vs[k]);
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
    batch.terms[k].chanI = i;
    batch.terms[k].chanG = dIdQ * (batch.gateArea[k] * batch.cEval[k]);
  }
  // Linear charge elements (same companion arithmetic as the scalar
  // MosfetDevice::stamp).
  for (std::size_t k = 0; k < n; ++k) {
    const MosfetDevice& dev = *batch.dev[k];
    MosfetStampTerms& t = batch.terms[k];
    const double vd = batch.vd[k];
    const double vg = batch.vg[k];
    const double vs = batch.vs[k];
    const double ovl = batch.overlapCap[k];
    const double jun = batch.junctionCap[k];
    {
      const auto [i, dIdQ] =
          dev.ovlGd_.currentFor(ovl * (vg - vd), companion);
      t.ovlGdI = i;
      t.ovlGdG = dIdQ * ovl;
    }
    {
      const auto [i, dIdQ] =
          dev.ovlGs_.currentFor(ovl * (vg - vs), companion);
      t.ovlGsI = i;
      t.ovlGsG = dIdQ * ovl;
    }
    {
      const auto [i, dIdQ] = dev.junD_.currentFor(jun * vd, companion);
      t.junDI = i;
      t.junDG = dIdQ * jun;
    }
    {
      const auto [i, dIdQ] = dev.junS_.currentFor(jun * vs, companion);
      t.junSI = i;
      t.junSG = dIdQ * jun;
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
  for (std::size_t k = 0; k < n; ++k) {
    FeCapStampTerms& t = batch.terms[k];
    const double tFe = batch.tFe[k];
    const double rho = batch.rho[k];
    const double va = view.nodeVoltage(batch.a[k]);
    const double vb = view.nodeVoltage(batch.b[k]);
    t.lkResidual = va - vb - tFe * (batch.field[k] + rho * batch.dPdt[k]);
    t.lkSlope = -tFe * (batch.slope[k] + rho * batch.dRatedP[k]);
    if (ctx.dc) continue;
    t.i = batch.area[k] * batch.dPdt[k];
    t.dIdP = batch.area[k] * batch.dRatedP[k];
    if (!t.background) continue;
    const double bc = batch.backgroundCap[k];
    const auto [ib, dIdQ] =
        batch.dev[k]->background_.currentFor(bc * (va - vb), companion);
    t.bgI = ib;
    t.bgG = dIdQ * bc;
  }
}

// ---------------------------------------------------------------------------
// Phase 2: one dispatch that runs a lane's stamp body, on the terms phase 1
// left in scratch, through the sink it is given.

template <class SinkOf>
void DeviceBatches::stampLane(Ref ref, const EvalContext& ctx,
                              const SinkOf& sinkOf) const {
  const std::uint32_t k = ref.lane;
  switch (ref.kind) {
    case Kind::kResistor:
      stampBranch(sinkOf(resistors_.slots[k]), resistors_.i[k],
                  resistors_.g[k]);
      break;
    case Kind::kCapacitor:
      if (!ctx.dc) {
        stampBranch(sinkOf(capacitors_.slots[k]), capacitors_.i[k],
                    capacitors_.g[k]);
      }
      break;
    case Kind::kDiode:
      stampBranch(sinkOf(diodes_.slots[k]), diodes_.i[k], diodes_.g[k]);
      break;
    case Kind::kVoltageSource: {
      const VoltageSourceBatch& batch = vsources_;
      const double vp = ctx.view.nodeVoltage(batch.plus[k]);
      const double vm = ctx.view.nodeVoltage(batch.minus[k]);
      stampVoltageSource(sinkOf(batch.slots[k]),
                         ctx.view.aux(batch.auxRow[k]),
                         vp - vm - batch.v.value[k]);
      break;
    }
    case Kind::kCurrentSource:
      stampCurrentSource(sinkOf(isources_.slots[k]), isources_.i.value[k]);
      break;
    case Kind::kMosfet:
      stampMosfet(sinkOf(mosfets_.slots[k]), mosfets_.terms[k], ctx.dc);
      break;
    case Kind::kFeCap:
      stampFeCap(sinkOf(fecaps_.slots[k]), fecaps_.terms[k], ctx.dc);
      break;
  }
}

}  // namespace fefet::spice
