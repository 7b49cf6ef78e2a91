#include "core/fefet.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/math.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {

FefetInstance attachFefet(spice::Netlist& netlist, const std::string& name,
                          const std::string& gate, const std::string& drain,
                          const std::string& source, const FefetParams& params,
                          double initialPolarization) {
  FefetInstance inst;
  const std::string internalName = name + ":int";
  inst.internalNode = netlist.node(internalName);
  inst.fe = netlist.add<spice::FeCapDevice>(
      name + ":fe", netlist.node(gate), inst.internalNode, params.lk,
      params.feGeometry(), initialPolarization, params.backgroundEpsR);
  // The internal (floating) gate carries no explicit overlap capacitance:
  // those parasitics are already absorbed into the effective gate-charge
  // model, and an isolated internal node with explicit overlaps would trap
  // charge with no discharge path on simulation timescales (a real MFMIS
  // gate equilibrates through gate tunneling), skewing the P-psi manifold
  // after every write.
  xtor::MosParams mosParams = params.mos;
  mosParams.overlapCapPerWidth = 0.0;
  inst.mos = netlist.add<spice::MosfetDevice>(
      name + ":mos", netlist.node(drain), inst.internalNode,
      netlist.node(source), mosParams, params.width);
  return inst;
}

FefetInstance attachCell2T(spice::Netlist& netlist, const std::string& name,
                           const std::string& gate, const std::string& wbl,
                           const std::string& ws, const std::string& rs,
                           const std::string& sl, const FefetParams& fefet,
                           const xtor::MosParams& accessMos,
                           double accessWidth) {
  netlist.add<spice::MosfetDevice>(name + ":acc", netlist.node(wbl),
                                   netlist.node(ws), netlist.node(gate),
                                   accessMos, accessWidth);
  return attachFefet(netlist, name, gate, rs, sl, fefet);
}

namespace {

/// The fold scan: kSlopeSamples uniform intervals of the internal node
/// voltage psi over [kPsiMin, kPsiMax] volts (16 mV apart).  A fold pair
/// that falls inside one interval leaves the slope's sign unchanged at both
/// ends and is missed.  Over T_FE = 1.0-3.0 nm in 2 pm steps the closest
/// fold pair of the nominal device is 24 mV apart in psi, so the margin is
/// thin; tests/test_fefet_device.cc (FefetCurve.*) pins the folds against a
/// 16,000-sample V_G grid there and on perturbed devices.
constexpr double kPsiMin = -4.0;
constexpr double kPsiMax = 4.0;
constexpr int kSlopeSamples = 500;

}  // namespace

QuasiStaticCurve::QuasiStaticCurve(const FefetParams& params)
    : mos_(params.mos, params.width),
      lk_(params.lk),
      thickness_(params.feThickness) {
  const auto slope = [this](double psi) {
    return 1.0 + thickness_ *
                     lk_.staticFieldSlope(mos_.gateChargeDensity(psi)) *
                     mos_.gateCapacitanceDensity(psi);
  };
  // Branches run between the range ends and the folds.
  Branch branch{kPsiMin, kPsiMin, gateVoltage(kPsiMin), 0.0};
  const auto closeBranch = [&](double psi, double vg) {
    branch.psiHi = psi;
    branch.vgHi = vg;
    branches_.push_back(branch);
    branch = {psi, psi, vg, 0.0};
  };
  // Sign changes between nonzero slope samples bracket the folds.
  double psiPrev = kPsiMin;
  double slopePrev = slope(kPsiMin);
  for (int i = 1; i <= kSlopeSamples; ++i) {
    const double psi = kPsiMin + (kPsiMax - kPsiMin) * i / kSlopeSamples;
    const double s = slope(psi);
    if (s == 0.0) continue;
    if (slopePrev != 0.0 && (s > 0.0) != (slopePrev > 0.0)) {
      Fold fold;
      fold.internalVoltage = math::brent(slope, psiPrev, psi);
      fold.gateVoltage = gateVoltage(fold.internalVoltage);
      fold.isMaximum = slopePrev > 0.0;  // rising then falling = max
      window_.folds.push_back(fold);
      closeBranch(fold.internalVoltage, fold.gateVoltage);
    }
    psiPrev = psi;
    slopePrev = s;
  }
  closeBranch(kPsiMax, gateVoltage(kPsiMax));

  window_.hysteretic = !window_.folds.empty();
  if (!window_.hysteretic) return;

  // Inversion-branch pair: the last minimum (down-switch) and the maximum
  // before it.  By construction of the S-curve, the max (up-switch) sits
  // at lower psi than the min.
  const auto& folds = window_.folds;
  auto down = std::find_if(folds.rbegin(), folds.rend(),
                           [](const Fold& f) { return !f.isMaximum; });
  if (down == folds.rend()) return;
  auto up = std::find_if(down, folds.rend(),
                         [](const Fold& f) { return f.isMaximum; });
  if (up == folds.rend()) return;
  window_.upSwitchVoltage = up->gateVoltage;
  window_.downSwitchVoltage = down->gateVoltage;
  window_.nonvolatile =
      window_.downSwitchVoltage < 0.0 && window_.upSwitchVoltage > 0.0;
}

double QuasiStaticCurve::gateVoltage(double psi) const {
  return psi + thickness_ * lk_.staticField(mos_.gateChargeDensity(psi));
}

double QuasiStaticCurve::chargeDensity(double psi) const {
  return mos_.gateChargeDensity(psi);
}

double QuasiStaticCurve::drainCurrent(double vds, double psi) const {
  return mos_.idsAt(vds, psi, 0.0);
}

std::vector<Equilibrium> QuasiStaticCurve::equilibria(
    double gateVoltage) const {
  const auto residual = [&](double psi) {
    return this->gateVoltage(psi) - gateVoltage;
  };
  std::vector<Equilibrium> out;
  for (std::size_t k = 0; k < branches_.size(); ++k) {
    const Branch& b = branches_[k];
    const double lo = b.vgLo - gateVoltage;
    const double hi = b.vgHi - gateVoltage;
    // A root on a shared end belongs to the branch it starts, and the last
    // branch also owns its upper end, so no root is reported twice.
    const bool last = k + 1 == branches_.size();
    double psi;
    if (lo == 0.0) {
      psi = b.psiLo;
    } else if (lo * hi < 0.0) {
      psi = math::brent(residual, b.psiLo, b.psiHi);
    } else if (last && hi == 0.0) {
      psi = b.psiHi;
    } else {
      continue;
    }
    out.push_back({psi, b.vgHi > b.vgLo});
  }
  return out;
}

std::vector<double> QuasiStaticCurve::stableInternalVoltages(
    double gateVoltage) const {
  std::vector<double> stable;
  for (const Equilibrium& eq : equilibria(gateVoltage)) {
    if (eq.stable) stable.push_back(eq.internalVoltage);
  }
  return stable;
}

BistableStates QuasiStaticCurve::bistableStates() const {
  const auto all = equilibria(0.0);
  BistableStates s;
  int stableCount = 0;
  for (const Equilibrium& eq : all) {
    if (!eq.stable) continue;
    const double psi = eq.internalVoltage;
    const bool first = stableCount++ == 0;
    if (first || std::abs(psi) < std::abs(s.psiOff)) s.psiOff = psi;
    if (first || psi > s.psiOn) s.psiOn = psi;
  }
  FEFET_REQUIRE(stableCount >= 2,
                "FEFET is not bistable at V_G = 0 (a volatile device)");
  // The saddle is the first equilibrium above OFF.
  const auto saddle =
      std::find_if(all.begin(), all.end(), [&](const Equilibrium& eq) {
        return eq.internalVoltage > s.psiOff && eq.internalVoltage < s.psiOn;
      });
  FEFET_REQUIRE(saddle != all.end(),
                "FEFET has no saddle between its OFF and ON states");
  s.psiSaddle = saddle->internalVoltage;
  s.pOff = chargeDensity(s.psiOff);
  s.pOn = chargeDensity(s.psiOn);
  s.pSaddle = chargeDensity(s.psiSaddle);
  return s;
}

double QuasiStaticCurve::distinguishability(double vread) const {
  FEFET_REQUIRE(window_.nonvolatile,
                "distinguishability needs a nonvolatile device");
  const BistableStates states = bistableStates();
  const double iOn = drainCurrent(vread, states.psiOn);
  const double iOff = drainCurrent(vread, states.psiOff);
  FEFET_REQUIRE(iOff > 0.0, "off current vanished");
  return iOn / iOff;
}

HysteresisWindow analyzeHysteresis(const FefetParams& params) {
  return QuasiStaticCurve(params).window();
}

std::vector<double> stableInternalVoltages(const FefetParams& params,
                                           double gateVoltage) {
  return QuasiStaticCurve(params).stableInternalVoltages(gateVoltage);
}

BistableStates bistableStates(const FefetParams& params) {
  return QuasiStaticCurve(params).bistableStates();
}

namespace {

/// The stable equilibrium nearest psi at V_G (a fold annihilation makes the
/// nearest surviving branch the jump target).
double nearestStable(const QuasiStaticCurve& curve, double gateVoltage,
                     double psi) {
  const auto stable = curve.stableInternalVoltages(gateVoltage);
  FEFET_REQUIRE(!stable.empty(), "no stable state at this gate voltage");
  double best = stable.front();
  for (double s : stable) {
    if (std::abs(s - psi) < std::abs(best - psi)) best = s;
  }
  return best;
}

}  // namespace

double stateCurrent(const FefetParams& params, double vgs, double vds,
                    double psiSeed) {
  const QuasiStaticCurve curve(params);
  return curve.drainCurrent(vds, nearestStable(curve, vgs, psiSeed));
}

double distinguishability(const FefetParams& params, double vread) {
  return QuasiStaticCurve(params).distinguishability(vread);
}

double minimumNonvolatileThickness(const FefetParams& params, double tLow,
                                   double tHigh, double tolerance) {
  FEFET_REQUIRE(tLow > 0.0 && tHigh > tLow,
                "minimumNonvolatileThickness: bad bracket");
  const auto nonvolatileAt = [&](double t) {
    FefetParams p = params;
    p.feThickness = t;
    return analyzeHysteresis(p).nonvolatile;
  };
  FEFET_REQUIRE(!nonvolatileAt(tLow), "lower bracket already nonvolatile");
  FEFET_REQUIRE(nonvolatileAt(tHigh), "upper bracket not nonvolatile");
  while (tHigh - tLow > tolerance) {
    const double mid = 0.5 * (tLow + tHigh);
    (nonvolatileAt(mid) ? tHigh : tLow) = mid;
  }
  return 0.5 * (tLow + tHigh);
}

std::vector<TransferPoint> sweepTransfer(const FefetParams& params,
                                         double vFrom, double vTo, int steps,
                                         double vds, double startPsi) {
  FEFET_REQUIRE(steps >= 2, "sweepTransfer: too few steps");
  const QuasiStaticCurve curve(params);
  std::vector<TransferPoint> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  double psi = startPsi;
  for (int i = 0; i <= steps; ++i) {
    const double vg = vFrom + (vTo - vFrom) * i / steps;
    // Continuation: stay on the branch nearest the previous state.
    psi = nearestStable(curve, vg, psi);
    TransferPoint pt;
    pt.vgs = vg;
    pt.internalVoltage = psi;
    pt.drainCurrent = curve.drainCurrent(vds, psi);
    pt.polarization = curve.chargeDensity(psi);
    out.push_back(pt);
  }
  return out;
}

}  // namespace fefet::core
