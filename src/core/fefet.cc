#include "core/fefet.h"

#include <algorithm>
#include <cmath>
#include <utility>

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

namespace {

/// The quasi-static scan grid: kScanSamples uniform intervals of the
/// internal node voltage psi over [kPsiMin, kPsiMax] volts.
constexpr double kPsiMin = -4.0;
constexpr double kPsiMax = 4.0;
constexpr int kScanSamples = 16000;

/// V_G(psi) with the MOS and LK models built once, so a scan constructs
/// them once rather than once per sample.
struct GateVoltageCurve {
  explicit GateVoltageCurve(const FefetParams& params)
      : mos(params.mos, params.width), lk(params.lk), t(params.feThickness) {}
  double operator()(double psi) const {
    return psi + t * lk.staticField(mos.gateChargeDensity(psi));
  }
  xtor::MosfetModel mos;
  ferro::LandauKhalatnikov lk;
  double t;  ///< T_FE [m]
};

/// Every solution of V_G(psi) = gateVoltage on the scan grid, ascending,
/// flagged stable where dV_G/dpsi > 0.
std::vector<std::pair<double, bool>> equilibria(const GateVoltageCurve& curve,
                                                double gateVoltage) {
  const auto residual = [&](double psi) { return curve(psi) - gateVoltage; };
  const double h = (kPsiMax - kPsiMin) / kScanSamples;
  std::vector<std::pair<double, bool>> out;
  for (double r :
       math::findAllRoots(residual, kPsiMin, kPsiMax, kScanSamples)) {
    out.emplace_back(r, residual(r + 0.25 * h) > residual(r - 0.25 * h));
  }
  return out;
}

}  // namespace

double gateVoltageOfInternal(const FefetParams& params, double psi) {
  return GateVoltageCurve(params)(psi);
}

HysteresisWindow analyzeHysteresis(const FefetParams& params) {
  HysteresisWindow window;
  const GateVoltageCurve curve(params);

  double prevPsi = kPsiMin;
  double prevVg = curve(kPsiMin);
  double prevSlopeSign = 0.0;
  for (int i = 1; i <= kScanSamples; ++i) {
    const double psi = kPsiMin + (kPsiMax - kPsiMin) * i / kScanSamples;
    const double vg = curve(psi);
    const double slopeSign = math::sign(vg - prevVg);
    if (prevSlopeSign != 0.0 && slopeSign != 0.0 &&
        slopeSign != prevSlopeSign) {
      Fold fold;
      fold.internalVoltage = prevPsi;
      fold.gateVoltage = prevVg;
      fold.isMaximum = prevSlopeSign > 0.0;  // rising then falling = max
      window.folds.push_back(fold);
    }
    if (slopeSign != 0.0) prevSlopeSign = slopeSign;
    prevPsi = psi;
    prevVg = vg;
  }

  window.hysteretic = !window.folds.empty();
  if (!window.hysteretic) return window;

  // Inversion-branch pair: the two folds with the largest internal
  // voltages.  By construction of the S-curve, the max (up-switch) sits at
  // lower psi than the min (down-switch).
  std::vector<Fold> sorted = window.folds;
  std::sort(sorted.begin(), sorted.end(), [](const Fold& a, const Fold& b) {
    return a.internalVoltage > b.internalVoltage;
  });
  const Fold* up = nullptr;
  const Fold* down = nullptr;
  for (const Fold& f : sorted) {
    if (!down && !f.isMaximum) {
      down = &f;
    } else if (down && !up && f.isMaximum) {
      up = &f;
      break;
    }
  }
  if (up && down) {
    window.upSwitchVoltage = up->gateVoltage;
    window.downSwitchVoltage = down->gateVoltage;
    window.nonvolatile =
        window.downSwitchVoltage < 0.0 && window.upSwitchVoltage > 0.0;
  }
  return window;
}

std::vector<double> stableInternalVoltages(const FefetParams& params,
                                           double gateVoltage) {
  std::vector<double> stable;
  for (const auto& [psi, isStable] :
       equilibria(GateVoltageCurve(params), gateVoltage)) {
    if (isStable) stable.push_back(psi);
  }
  return stable;
}

BistableStates bistableStates(const FefetParams& params) {
  const GateVoltageCurve curve(params);
  const auto all = equilibria(curve, 0.0);
  BistableStates s;
  int stableCount = 0;
  for (const auto& [psi, isStable] : all) {
    if (!isStable) continue;
    const bool first = stableCount++ == 0;
    if (first || std::abs(psi) < std::abs(s.psiOff)) s.psiOff = psi;
    if (first || psi > s.psiOn) s.psiOn = psi;
  }
  FEFET_REQUIRE(stableCount >= 2,
                "FEFET is not bistable at V_G = 0 (a volatile device)");
  // The saddle is the first equilibrium above OFF, from the same scan.
  const auto saddle =
      std::find_if(all.begin(), all.end(), [&](const auto& eq) {
        return eq.first > s.psiOff && eq.first < s.psiOn;
      });
  FEFET_REQUIRE(saddle != all.end(),
                "FEFET has no saddle between its OFF and ON states");
  s.psiSaddle = saddle->first;
  s.pOff = curve.mos.gateChargeDensity(s.psiOff);
  s.pOn = curve.mos.gateChargeDensity(s.psiOn);
  s.pSaddle = curve.mos.gateChargeDensity(s.psiSaddle);
  return s;
}

double stateCurrent(const FefetParams& params, double vgs, double vds,
                    double psiSeed) {
  const auto stable = stableInternalVoltages(params, vgs);
  FEFET_REQUIRE(!stable.empty(), "no stable state at this gate voltage");
  double best = stable.front();
  for (double s : stable) {
    if (std::abs(s - psiSeed) < std::abs(best - psiSeed)) best = s;
  }
  const xtor::MosfetModel mos(params.mos, params.width);
  return mos.idsAt(vds, best, 0.0);
}

double distinguishability(const FefetParams& params, double vread) {
  const auto window = analyzeHysteresis(params);
  FEFET_REQUIRE(window.nonvolatile,
                "distinguishability needs a nonvolatile device");
  const BistableStates states = bistableStates(params);
  const xtor::MosfetModel mos(params.mos, params.width);
  const double iOn = mos.idsAt(vread, states.psiOn, 0.0);
  const double iOff = mos.idsAt(vread, states.psiOff, 0.0);
  FEFET_REQUIRE(iOff > 0.0, "off current vanished");
  return iOn / iOff;
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
  const xtor::MosfetModel mos(params.mos, params.width);
  std::vector<TransferPoint> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  double psi = startPsi;
  for (int i = 0; i <= steps; ++i) {
    const double vg = vFrom + (vTo - vFrom) * i / steps;
    const auto stable = stableInternalVoltages(params, vg);
    FEFET_REQUIRE(!stable.empty(), "no equilibrium during transfer sweep");
    // Continuation: stay on the branch nearest the previous state (a fold
    // annihilation makes the nearest surviving branch the jump target).
    double best = stable.front();
    for (double s : stable) {
      if (std::abs(s - psi) < std::abs(best - psi)) best = s;
    }
    psi = best;
    TransferPoint pt;
    pt.vgs = vg;
    pt.internalVoltage = psi;
    pt.drainCurrent = mos.idsAt(vds, psi, 0.0);
    pt.polarization = mos.gateChargeDensity(psi);
    out.push_back(pt);
  }
  return out;
}

}  // namespace fefet::core
