// Tests of the FEFET device-level behaviour (paper §2-§3, Figs. 2-4):
// hysteresis windows vs T_FE, non-volatility onset, distinguishability, the
// Fig. 4(a) load line, the quasi-static curve against a dense-grid oracle
// and a textbook memory-window oracle, and transient state retention in the
// circuit solver.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/stats.h"
#include "core/fefet.h"
#include "core/materials.h"
#include "core/variability.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "xtor/mosfet_model.h"

namespace fefet::core {
namespace {

using spice::Probe;
using spice::shapes::dc;
using spice::shapes::pulse;

FefetParams at(double thickness) {
  FefetParams p;
  p.feThickness = thickness;
  return p;
}

TEST(FefetWindows, OneNmIsMonostable) {
  // Paper Fig. 4(a): no hysteresis at T_FE = 1 nm.
  const auto w = analyzeHysteresis(at(1.0e-9));
  EXPECT_FALSE(w.hysteretic);
  EXPECT_FALSE(w.nonvolatile);
}

TEST(FefetWindows, OnePointNineNmHystereticButVolatile) {
  // Paper Fig. 3: hysteresis entirely at positive V_GS.
  const auto w = analyzeHysteresis(at(1.9e-9));
  EXPECT_TRUE(w.hysteretic);
  EXPECT_FALSE(w.nonvolatile);
  EXPECT_GT(w.downSwitchVoltage, 0.0);
  EXPECT_GT(w.upSwitchVoltage, w.downSwitchVoltage);
}

TEST(FefetWindows, DesignPointIsNonvolatileWithHalfVoltWindow) {
  // Paper Fig. 2 / §3: T_FE = 2.25 nm, hysteresis "around 500 mV"
  // spanning V_GS = 0.
  const auto w = analyzeHysteresis(at(2.25e-9));
  EXPECT_TRUE(w.nonvolatile);
  EXPECT_LT(w.downSwitchVoltage, -0.1);
  EXPECT_GT(w.upSwitchVoltage, 0.3);
  EXPECT_NEAR(w.width(), 0.55, 0.12);
}

TEST(FefetWindows, WiderFilmStaysWithinOneVolt) {
  // Paper Fig. 4(b): the 2.5 nm FEFET loop lies within +/-1 V while the
  // standalone capacitor's coercive voltage exceeds 2 V.
  const auto w = analyzeHysteresis(at(2.5e-9));
  EXPECT_TRUE(w.nonvolatile);
  EXPECT_GT(w.downSwitchVoltage, -1.0);
  EXPECT_LT(w.upSwitchVoltage, 1.0);
  const ferro::LandauKhalatnikov lk{at(2.5e-9).lk};
  EXPECT_GT(lk.coerciveField() * 2.5e-9, 2.0);
}

TEST(FefetWindows, SeriesConnectionReducesSwitchingVoltage) {
  // The NC voltage step-up: device-level switching voltages are far below
  // the bare film's coercive voltage at the same thickness.
  const auto w = analyzeHysteresis(at(2.25e-9));
  const ferro::LandauKhalatnikov lk{at(2.25e-9).lk};
  const double bareVc = lk.coerciveField() * 2.25e-9;  // ~2.8 V
  EXPECT_LT(w.upSwitchVoltage, 0.25 * bareVc);
  EXPECT_LT(std::abs(w.downSwitchVoltage), 0.25 * bareVc);
}

TEST(FefetWindows, NonvolatilityOnsetNearTwoNm) {
  // Paper §3: "T_FE > 1.9 nm is required to retain the polarization".
  const double t = minimumNonvolatileThickness(at(2.25e-9), 1.0e-9, 2.5e-9);
  EXPECT_GT(t, 1.9e-9);
  EXPECT_LT(t, 2.1e-9);
}

TEST(FefetWindows, NonvolatileThicknessBracketsValidated) {
  EXPECT_THROW(minimumNonvolatileThickness(at(2.25e-9), 2.2e-9, 2.5e-9),
               InvalidArgumentError);  // lower bracket already nonvolatile
  EXPECT_THROW(minimumNonvolatileThickness(at(2.25e-9), 0.5e-9, 1.0e-9),
               InvalidArgumentError);  // upper bracket not nonvolatile
}

TEST(FefetStates, TwoStableStatesAtZeroBias) {
  const auto stable = stableInternalVoltages(at(2.25e-9), 0.0);
  ASSERT_GE(stable.size(), 2u);
  // OFF near 0 V internal, ON boosted above 2 V (NC amplification).
  EXPECT_LT(std::abs(stable.front()), 0.2);
  EXPECT_GT(stable.back(), 2.0);
}

// The one bistable-state scan over seeded Monte Carlo devices: OFF and ON
// equal, bit for bit, the states derived from stableInternalVoltages, and
// the saddle agrees with the separate search it replaced (a 4,000-sample
// root scan between OFF and ON, written out here as the oracle).
TEST(FefetStates, BistableStatesMatchSeparateScans) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  FefetParams nominal;
  nominal.lk = fefetMaterial();
  const VariationSpec spec;
  stats::Rng rng(20260418);
  int compared = 0;
  for (int draw = 0; draw < 80; ++draw) {
    const FefetParams p = perturbDevice(nominal, spec, rng);
    const auto stable = stableInternalVoltages(p, 0.0);
    if (stable.size() < 2) {
      EXPECT_THROW(bistableStates(p), InvalidArgumentError);
      continue;
    }
    double psiOff = stable.front();
    for (double s : stable) {
      if (std::abs(s) < std::abs(psiOff)) psiOff = s;
    }
    const double psiOn = *std::max_element(stable.begin(), stable.end());
    const xtor::MosfetModel mos(p.mos, p.width);
    const ferro::LandauKhalatnikov lk(p.lk);
    const auto saddles = math::findAllRoots(
        [&](double psi) {
          return psi +
                 p.feThickness * lk.staticField(mos.gateChargeDensity(psi));
        },
        psiOff + 1e-6, psiOn - 1e-6, 4000);
    ASSERT_FALSE(saddles.empty()) << "draw " << draw;

    const BistableStates s = bistableStates(p);
    EXPECT_EQ(bits(s.psiOff), bits(psiOff)) << "draw " << draw;
    EXPECT_EQ(bits(s.psiOn), bits(psiOn)) << "draw " << draw;
    EXPECT_EQ(bits(s.pOff), bits(mos.gateChargeDensity(psiOff)));
    EXPECT_EQ(bits(s.pOn), bits(mos.gateChargeDensity(psiOn)));
    EXPECT_NEAR(s.pSaddle, mos.gateChargeDensity(saddles.front()), 1e-12)
        << "draw " << draw;
    EXPECT_GT(s.psiSaddle, s.psiOff);
    EXPECT_LT(s.psiSaddle, s.psiOn);
    ++compared;
  }
  EXPECT_GE(compared, 50);
}

TEST(FefetStates, VolatileDeviceHasNoBistableStates) {
  EXPECT_THROW(bistableStates(at(1.0e-9)), InvalidArgumentError);
  EXPECT_THROW(bistableStates(at(1.9e-9)), InvalidArgumentError);
}

TEST(FefetStates, DistinguishabilityIsAboutOneMillion) {
  // Paper: current ratio ~1e6 between the two states at V_GS = 0.
  const double ratio = distinguishability(at(2.25e-9), 0.4);
  EXPECT_GT(ratio, 3e5);
  EXPECT_LT(ratio, 5e7);
}

TEST(FefetStates, StateCurrentSelectsBasin) {
  const auto p = at(2.25e-9);
  const double iOn = stateCurrent(p, 0.0, 0.4, /*psiSeed=*/2.5);
  const double iOff = stateCurrent(p, 0.0, 0.4, /*psiSeed=*/0.0);
  EXPECT_GT(iOn, 1e-5);
  EXPECT_LT(iOff, 1e-9);
}

TEST(FefetStates, GateVoltageOfInternalConsistent) {
  const auto p = at(2.25e-9);
  const xtor::MosfetModel mos(p.mos, p.width);
  const ferro::LandauKhalatnikov lk(p.lk);
  const QuasiStaticCurve curve(p);
  for (const double psi : {-1.0, 0.0, 1.0, 2.5}) {
    const double expected =
        psi + p.feThickness * lk.staticField(mos.gateChargeDensity(psi));
    EXPECT_DOUBLE_EQ(curve.gateVoltage(psi), expected) << "psi " << psi;
  }
}

// ---------------------------------------------------------------------------
// Paper Fig. 4(a), the load line: at V_G the FE branch V_G - T_FE*E_s(Q)
// meets the MOS branch psi(Q) at each equilibrium of the quasi-static curve.

TEST(LoadLine, ThinFilmMonostable) {
  // T_FE = 1 nm has a single, stable intersection at V_G = 0.
  const auto eqs = QuasiStaticCurve(at(1e-9)).equilibria(0.0);
  ASSERT_EQ(eqs.size(), 1u);
  EXPECT_TRUE(eqs.front().stable);
}

TEST(LoadLine, ThickFilmBistable) {
  // T_FE = 2.25 nm: three intersections, the outer two stable.
  const auto eqs = QuasiStaticCurve(at(2.25e-9)).equilibria(0.0);
  ASSERT_EQ(eqs.size(), 3u);
  EXPECT_TRUE(eqs[0].stable);
  EXPECT_FALSE(eqs[1].stable);
  EXPECT_TRUE(eqs[2].stable);
}

TEST(LoadLine, EquilibriaSatisfyKirchhoff) {
  // Charge balance: the MOS and FE voltages at the shared charge add up to
  // V_G, written out here from the two models.
  const FefetParams p = at(2.25e-9);
  const xtor::MosfetModel mos(p.mos, p.width);
  const ferro::LandauKhalatnikov lk(p.lk);
  const QuasiStaticCurve curve(p);
  const double vg = 0.2;
  const auto eqs = curve.equilibria(vg);
  ASSERT_FALSE(eqs.empty());
  for (const auto& eq : eqs) {
    const double q = mos.gateChargeDensity(eq.internalVoltage);
    EXPECT_EQ(curve.chargeDensity(eq.internalVoltage), q);
    EXPECT_NEAR(eq.internalVoltage + p.feThickness * lk.staticField(q), vg,
                1e-12);
  }
}

TEST(LoadLine, CriticalThicknessNearTwoNm) {
  // Three intersections at V_G = 0 appear at the nonvolatility onset: the
  // intersection count and the fold classification agree on the threshold.
  const auto bistableAt = [](double t) {
    return QuasiStaticCurve(at(t)).equilibria(0.0).size() >= 3;
  };
  double lo = 1.0e-9, hi = 2.5e-9;
  ASSERT_FALSE(bistableAt(lo));
  ASSERT_TRUE(bistableAt(hi));
  while (hi - lo > 1e-13) {
    const double mid = 0.5 * (lo + hi);
    (bistableAt(mid) ? hi : lo) = mid;
  }
  EXPECT_GT(hi, 1.8e-9);
  EXPECT_LT(hi, 2.2e-9);
  EXPECT_NEAR(hi, minimumNonvolatileThickness(at(2.25e-9), 1.0e-9, 2.5e-9),
              1e-12);
}

// Property sweep: gate voltage shifts the equilibrium set monotonically
// (the largest equilibrium charge grows with V_G).
class LoadLineVsBias : public ::testing::TestWithParam<double> {};

TEST_P(LoadLineVsBias, LargestChargeGrowsWithGateVoltage) {
  const QuasiStaticCurve curve(at(2.25e-9));
  const double vg = GetParam();
  const auto lo = curve.equilibria(vg);
  const auto hi = curve.equilibria(vg + 0.2);
  ASSERT_FALSE(lo.empty());
  ASSERT_FALSE(hi.empty());
  EXPECT_GE(curve.chargeDensity(hi.back().internalVoltage),
            curve.chargeDensity(lo.back().internalVoltage) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GateBiases, LoadLineVsBias,
                         ::testing::Values(-0.4, -0.2, 0.0, 0.2, 0.4, 0.6));

// ---------------------------------------------------------------------------
// Grid oracle: V_G(psi) sampled on 16,000 uniform intervals of [-4, 4] V.
// Folds are the grid points where the sign of the sampled difference
// changes; equilibria are Brent-polished grid brackets of V_G - target.

struct GridScan {
  static constexpr double kPsiMin = -4.0;
  static constexpr double kPsiMax = 4.0;
  static constexpr int kSamples = 16000;

  explicit GridScan(const FefetParams& p)
      : mos(p.mos, p.width), lk(p.lk), t(p.feThickness) {
    for (int i = 0; i <= kSamples; ++i) vg.push_back(gateVoltage(psiAt(i)));
    double prevSign = 0.0;
    for (int i = 1; i <= kSamples; ++i) {
      const double sign = math::sign(vg[i] - vg[i - 1]);
      if (prevSign != 0.0 && sign != 0.0 && sign != prevSign) {
        folds.push_back({psiAt(i - 1), vg[i - 1], prevSign > 0.0});
      }
      if (sign != 0.0) prevSign = sign;
    }
    // The window pair: the last minimum and the last maximum below it.
    for (auto f = folds.rbegin(); f != folds.rend(); ++f) {
      if (!down && !f->isMaximum) {
        down = &*f;
      } else if (down && f->isMaximum) {
        up = &*f;
        break;
      }
    }
    nonvolatile = up && down && down->gateVoltage < 0.0 &&
                  up->gateVoltage > 0.0;
  }
  static double psiAt(int i) {
    return kPsiMin + (kPsiMax - kPsiMin) * i / kSamples;
  }
  double gateVoltage(double psi) const {
    return psi + t * lk.staticField(mos.gateChargeDensity(psi));
  }
  /// Roots of V_G = 0, ascending, flagged stable on a rising grid bracket.
  std::vector<std::pair<double, bool>> zeroBiasEquilibria() const {
    std::vector<std::pair<double, bool>> out;
    const auto f = [this](double psi) { return gateVoltage(psi); };
    for (int i = 1; i <= kSamples; ++i) {
      if (vg[i - 1] * vg[i] < 0.0) {
        out.emplace_back(math::brent(f, psiAt(i - 1), psiAt(i)),
                         vg[i] > vg[i - 1]);
      }
    }
    return out;
  }

  xtor::MosfetModel mos;
  ferro::LandauKhalatnikov lk;
  double t;
  std::vector<double> vg;
  std::vector<Fold> folds;
  const Fold* up = nullptr;
  const Fold* down = nullptr;
  bool nonvolatile = false;
};

/// Compares the curve's folds with the grid's: the same count, kind and
/// classification; V_G at a fold within 1e-6 V (the grid's error at a fold
/// is second order in its 0.5 mV spacing, and always on the inside of the
/// turning point) and psi within one grid interval.  Returns the smallest
/// psi distance between neighbouring folds.
double expectFoldsMatchGrid(const QuasiStaticCurve& curve,
                            const GridScan& grid) {
  const HysteresisWindow& w = curve.window();
  EXPECT_EQ(w.folds.size(), grid.folds.size());
  EXPECT_EQ(w.hysteretic, !grid.folds.empty());
  EXPECT_EQ(w.nonvolatile, grid.nonvolatile);
  if (w.folds.size() != grid.folds.size()) return 0.0;
  const double h = (GridScan::kPsiMax - GridScan::kPsiMin) / GridScan::kSamples;
  double closest = 1e9;
  for (std::size_t k = 0; k < w.folds.size(); ++k) {
    const Fold& exact = w.folds[k];
    const Fold& sampled = grid.folds[k];
    EXPECT_EQ(exact.isMaximum, sampled.isMaximum);
    EXPECT_NEAR(exact.gateVoltage, sampled.gateVoltage, 1e-6);
    EXPECT_GE((exact.gateVoltage - sampled.gateVoltage) *
                  (exact.isMaximum ? 1.0 : -1.0),
              -1e-12);
    EXPECT_NEAR(exact.internalVoltage, sampled.internalVoltage, h);
    if (k > 0) {
      closest = std::min(closest, exact.internalVoltage -
                                      w.folds[k - 1].internalVoltage);
    }
  }
  if (grid.nonvolatile) {
    EXPECT_NEAR(w.upSwitchVoltage, grid.up->gateVoltage, 1e-6);
    EXPECT_NEAR(w.downSwitchVoltage, grid.down->gateVoltage, 1e-6);
  }
  return closest;
}

/// bistableStates against the grid's equilibria at V_G = 0: the same
/// answer to "bistable?", and OFF, ON and saddle within 1e-12 V in psi.
void expectStatesMatchGrid(const QuasiStaticCurve& curve,
                           const GridScan& grid) {
  const auto eqs = grid.zeroBiasEquilibria();
  std::vector<double> stable;
  for (const auto& [psi, isStable] : eqs) {
    if (isStable) stable.push_back(psi);
  }
  if (stable.size() < 2) {
    EXPECT_THROW(curve.bistableStates(), InvalidArgumentError);
    return;
  }
  double psiOff = stable.front();
  for (double s : stable) {
    if (std::abs(s) < std::abs(psiOff)) psiOff = s;
  }
  const double psiOn = stable.back();
  const auto saddle = std::find_if(eqs.begin(), eqs.end(), [&](auto& eq) {
    return eq.first > psiOff && eq.first < psiOn;
  });
  ASSERT_NE(saddle, eqs.end());
  const BistableStates s = curve.bistableStates();
  EXPECT_NEAR(s.psiOff, psiOff, 1e-12);
  EXPECT_NEAR(s.psiOn, psiOn, 1e-12);
  EXPECT_NEAR(s.psiSaddle, saddle->first, 1e-12);
}

TEST(FefetCurve, FoldsMatchGridOracleAcrossThickness) {
  // 1.0-3.0 nm in 2 pm steps.  The curve finds folds from slope samples
  // 16 mV apart in psi; the closest fold pair here must keep a margin
  // above that spacing, or a pair could fall inside one slope interval.
  double closest = 1e9;
  int nonvolatile = 0;
  for (int i = 0; i <= 1000; ++i) {
    const FefetParams p = at(1.0e-9 + 2e-12 * i);
    SCOPED_TRACE("T_FE = " + std::to_string(p.feThickness * 1e9) + " nm");
    const QuasiStaticCurve curve(p);
    const GridScan grid(p);
    closest = std::min(closest, expectFoldsMatchGrid(curve, grid));
    expectStatesMatchGrid(curve, grid);
    nonvolatile += curve.window().nonvolatile ? 1 : 0;
  }
  EXPECT_GT(closest, 0.020);
  EXPECT_GT(nonvolatile, 400);
  EXPECT_LT(nonvolatile, 600);
}

TEST(FefetCurve, MatchesGridOracleOnPerturbedDevices) {
  const VariationSpec spec;
  stats::Rng rng(26);
  int devices = 0, nonvolatile = 0;
  for (double t : {1.85e-9, 1.9e-9, 1.95e-9, 2.0e-9, 2.05e-9, 2.25e-9,
                   2.5e-9}) {
    FefetParams nominal = at(t);
    nominal.lk = fefetMaterial();
    for (int draw = 0; draw < 430; ++draw, ++devices) {
      const FefetParams p = perturbDevice(nominal, spec, rng);
      SCOPED_TRACE("device " + std::to_string(devices));
      const QuasiStaticCurve curve(p);
      const GridScan grid(p);
      expectFoldsMatchGrid(curve, grid);
      expectStatesMatchGrid(curve, grid);
      nonvolatile += curve.window().nonvolatile ? 1 : 0;
    }
  }
  EXPECT_GE(devices, 3000);
  // Both classes are well represented around the 2.01 nm onset.
  EXPECT_GT(nonvolatile, 1000);
  EXPECT_LT(nonvolatile, devices - 500);
}

// ---------------------------------------------------------------------------
// Independent memory-window oracle.  The window edges are the turning
// points of V_G(Q) = T_FE*(alpha*Q + beta*Q^3 + gamma*Q^5) + V_MOS(Q), with
// V_MOS(Q) from the textbook regional charge-sheet MOS (Taur & Ning ch. 2)
// with a poly-gate depletion drop V_poly = Q^2/(2*q*eps_si*N_poly):
//  * depletion, 0 <= psi_s <= 2*phi_F: Q = sqrt(2*eps_si*q*N_A*psi_s) and
//    V_MOS = V_FB + psi_s + Q/C_ox + V_poly;
//  * strong inversion: psi_s pinned at 2*phi_F and
//    V_MOS = V_T + (Q - Q_dep)/C_ox + V_poly.
// It shares only C_ox, V_T and the quadratic gate stiffening kappa (read as
// N_poly = 1/(2*q*eps_si*kappa)) with the 45 nm card, and nothing of
// core/fefet or xtor.  V_G rises into the threshold kink at psi_s =
// 2*phi_F along depletion and falls out of it along inversion, so the up
// edge is the kink; the down edge is the minimum on the inversion branch,
// solved here by bisection on dV_G/dQ.
struct TextbookWindow {
  double up = 0.0, down = 0.0;
};

TextbookWindow textbookWindow(double feThickness) {
  constexpr double kQ = 1.602176634e-19;               // [C]
  constexpr double kEpsSi = 11.7 * 8.8541878128e-12;   // [F/m]
  constexpr double kPhiT = 1.380649e-23 * 300.0 / kQ;  // [V] at 300 K
  constexpr double kNi = 1.0e16;      // Si intrinsic density [m^-3]
  constexpr double kNa = 1.0e24;      // channel doping, 1e18 cm^-3
  constexpr double kCox = 1.0 / 9.2;  // [F/m^2], the card's
  constexpr double kVt = 0.40;        // [V], the card's
  constexpr double kKappa = 5.0;      // [V m^4/C^2], the card's
  constexpr double kAlpha = -7.0e9, kBeta = 3.3e10, kGamma = -0.2e10;
  const double phiF = kPhiT * std::log(kNa / kNi);
  const double qDep = std::sqrt(2.0 * kEpsSi * kQ * kNa * 2.0 * phiF);
  const auto inversionVg = [&](double q) {
    const double q2 = q * q;
    return kVt + (q - qDep) / kCox + kKappa * q2 +
           feThickness * q * (kAlpha + q2 * (kBeta + q2 * kGamma));
  };
  // dV_G/dQ; the same on both sides of the kink.
  const auto slope = [&](double q) {
    const double q2 = q * q;
    return 1.0 / kCox + 2.0 * kKappa * q +
           feThickness * (kAlpha + q2 * (3.0 * kBeta + q2 * 5.0 * kGamma));
  };
  // Rising into the kink: dV_G/dpsi_s = 1 + dV_G/dQ * C_dep > 0 there.
  const double cDep = std::sqrt(kEpsSi * kQ * kNa / (2.0 * 2.0 * phiF));
  EXPECT_GT(1.0 + slope(qDep) * cDep, 0.0);
  // The minimum lies between the kink and the FE's positive-stiffness end,
  // where E_s'(Q) = 0.
  double lo = qDep;
  double hi = std::sqrt((-3.0 * kBeta + std::sqrt(9.0 * kBeta * kBeta -
                                                  20.0 * kAlpha * kGamma)) /
                        (10.0 * kGamma));
  EXPECT_LT(slope(lo), 0.0);
  EXPECT_GT(slope(hi), 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (slope(mid) < 0.0 ? lo : hi) = mid;
  }
  return {inversionVg(qDep), inversionVg(0.5 * (lo + hi))};
}

TEST(FefetOracle, TextbookTurningPointsMatchWindowAndOnset) {
  // Tolerance: the textbook model carries a depletion charge Q_dep (5.6
  // mC/m^2 at 1e18 cm^-3) and switches abruptly from depletion to
  // inversion, where the compact model has an exponential subthreshold
  // tail and no depletion charge.  That moves both edges the same way, by
  // about Q_dep/C_ox = 52 mV, so each edge is held to 60 mV, the window
  // (their difference) to 5 %, and the onset (where the down edge crosses
  // 0 V) to 0.1 nm.
  const TextbookWindow oracle = textbookWindow(2.25e-9);
  const HysteresisWindow w = analyzeHysteresis(at(2.25e-9));
  ASSERT_TRUE(w.nonvolatile);
  EXPECT_NEAR(w.width(), 0.575, 0.0005);  // the simulated design window
  EXPECT_NEAR(w.upSwitchVoltage, oracle.up, 0.060);
  EXPECT_NEAR(w.downSwitchVoltage, oracle.down, 0.060);
  EXPECT_NEAR(w.width(), oracle.up - oracle.down, 0.05 * w.width());

  double lo = 1.5e-9, hi = 2.5e-9;
  while (hi - lo > 1e-13) {
    const double mid = 0.5 * (lo + hi);
    (textbookWindow(mid).down < 0.0 ? hi : lo) = mid;
  }
  const double onset =
      minimumNonvolatileThickness(at(2.25e-9), 1.0e-9, 2.5e-9);
  EXPECT_NEAR(onset, 2.01e-9, 0.005e-9);  // the simulated onset
  EXPECT_NEAR(onset, hi, 0.1e-9);
}

TEST(FefetTransient, WritePulseSetsStateAndHoldRetainsIt) {
  // Full circuit-level check: gate pulse writes '1'; removing all bias
  // retains it (Fig. 2(b) behaviour).
  spice::Netlist n;
  auto* vg = n.add<spice::VoltageSource>("Vg", n.node("g"), n.ground(),
                                         dc(0.0));
  n.add<spice::VoltageSource>("Vd", n.node("d"), n.ground(), dc(0.0));
  n.add<spice::VoltageSource>("Vs", n.node("s"), n.ground(), dc(0.0));
  auto inst = attachFefet(n, "x", "g", "d", "s", at(2.25e-9), 0.0);
  spice::Simulator sim(n);
  sim.initializeUic();

  vg->setShape(pulse(0.0, 0.68, 0.05e-9, 20e-12, 1.0e-9, 20e-12));
  spice::TransientOptions options;
  options.duration = 1.6e-9;
  sim.runTransient(options, {Probe::deviceState("x:fe", "P")});
  const double pAfterWrite = inst.polarization();
  EXPECT_GT(pAfterWrite, 0.1);

  vg->setShape(dc(0.0));
  options.duration = 20e-9;
  sim.runTransient(options, {Probe::deviceState("x:fe", "P")});
  EXPECT_NEAR(inst.polarization(), pAfterWrite, 0.25 * pAfterWrite);
  EXPECT_GT(inst.polarization(), 0.1);
}

TEST(FefetTransient, NegativePulseErases) {
  spice::Netlist n;
  auto* vg = n.add<spice::VoltageSource>("Vg", n.node("g"), n.ground(),
                                         dc(0.0));
  n.add<spice::VoltageSource>("Vd", n.node("d"), n.ground(), dc(0.0));
  n.add<spice::VoltageSource>("Vs", n.node("s"), n.ground(), dc(0.0));
  const auto params = at(2.25e-9);
  const auto stable = stableInternalVoltages(params, 0.0);
  const xtor::MosfetModel mos(params.mos, params.width);
  const double pOn = mos.gateChargeDensity(stable.back());
  auto inst = attachFefet(n, "x", "g", "d", "s", params, pOn);
  spice::Simulator sim(n);
  sim.setNodeVoltage("x:int", stable.back());
  sim.initializeUic();

  vg->setShape(pulse(0.0, -0.68, 0.05e-9, 20e-12, 1.0e-9, 20e-12));
  spice::TransientOptions options;
  options.duration = 2.0e-9;
  sim.runTransient(options, {Probe::deviceState("x:fe", "P")});
  EXPECT_LT(inst.polarization(), 0.05);
}

TEST(FefetTransient, SubWindowPulseDoesNotDisturb) {
  // A pulse inside the hysteresis window must not flip the OFF state.
  spice::Netlist n;
  auto* vg = n.add<spice::VoltageSource>("Vg", n.node("g"), n.ground(),
                                         dc(0.0));
  n.add<spice::VoltageSource>("Vd", n.node("d"), n.ground(), dc(0.0));
  n.add<spice::VoltageSource>("Vs", n.node("s"), n.ground(), dc(0.0));
  auto inst = attachFefet(n, "x", "g", "d", "s", at(2.25e-9), 0.0);
  spice::Simulator sim(n);
  sim.initializeUic();
  vg->setShape(pulse(0.0, 0.25, 0.05e-9, 20e-12, 2e-9, 20e-12));
  spice::TransientOptions options;
  options.duration = 3e-9;
  sim.runTransient(options, {Probe::deviceState("x:fe", "P")});
  EXPECT_LT(inst.polarization(), 0.05);
}

// Property sweep: window width grows monotonically with thickness past the
// hysteresis onset.
class WindowVsThickness : public ::testing::TestWithParam<double> {};

TEST_P(WindowVsThickness, WidthMonotoneInThickness) {
  const double t = GetParam();
  const auto w1 = analyzeHysteresis(at(t));
  const auto w2 = analyzeHysteresis(at(t + 0.15e-9));
  ASSERT_TRUE(w1.hysteretic);
  ASSERT_TRUE(w2.hysteretic);
  EXPECT_GT(w2.width(), w1.width());
}

INSTANTIATE_TEST_SUITE_P(Thicknesses, WindowVsThickness,
                         ::testing::Values(1.9e-9, 2.1e-9, 2.25e-9, 2.5e-9));

}  // namespace
}  // namespace fefet::core

// Circuit-level FEFET hysteresis from a slow transient gate sweep, checked
// against the quasi-static analysis.
namespace fefet::spice {
namespace {

using shapes::dc;

TEST(SlowTransientSweep, FefetHysteresisMatchesQuasiStaticAnalysis) {
  // A slow triangular gate sweep on a full circuit-level FEFET is the
  // curve-tracer measurement of the hysteresis: the internal node jumps
  // near the quasi-static fold voltages.  (Plain DC would instead find the
  // leakage-equilibrated state of the floating internal gate, not the
  // quasi-static memory curve.)
  core::FefetParams params;
  params.lk = core::fefetMaterial();
  Netlist n;
  auto* vg = n.add<VoltageSource>("Vg", n.node("g"), n.ground(), dc(0.0));
  n.add<VoltageSource>("Vd", n.node("d"), n.ground(), dc(0.05));
  n.add<VoltageSource>("Vs", n.node("s"), n.ground(), dc(0.0));
  core::attachFefet(n, "x", "g", "d", "s", params, 0.0);
  Simulator sim(n);
  sim.initializeUic();

  // 0 -> +1 V -> -1 V -> 0 triangle over 120 ns.
  vg->setShape(shapes::pwl(
      {{0.0, 0.0}, {30e-9, 1.0}, {90e-9, -1.0}, {120e-9, 0.0}}));
  TransientOptions options;
  options.duration = 120e-9;
  options.dtMax = 100e-12;
  const auto r = sim.runTransient(
      options, {Probe::v("g"), Probe::v("x:int")});

  // Up-switch: the internal node snaps up during the rising quarter.
  const auto t = r.waveform.time();
  const auto& vgCol = r.waveform.column("v(g)");
  const auto& vi = r.waveform.column("v(x:int)");
  double upJump = 0.0, downJump = 0.0, bestUp = 0.0, bestDown = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double dvi = vi[i] - vi[i - 1];
    if (t[i] < 30e-9 && dvi > bestUp) {
      bestUp = dvi;
      upJump = vgCol[i];
    }
    if (t[i] >= 30e-9 && t[i] < 90e-9 && -dvi > bestDown) {
      bestDown = -dvi;
      downJump = vgCol[i];
    }
  }
  const auto window = core::analyzeHysteresis(params);
  // Kinetics push the measured jumps slightly outward of the static folds.
  EXPECT_NEAR(upJump, window.upSwitchVoltage, 0.12);
  EXPECT_GE(upJump, window.upSwitchVoltage - 0.02);
  EXPECT_NEAR(downJump, window.downSwitchVoltage, 0.12);
  EXPECT_LE(downJump, window.downSwitchVoltage + 0.02);
  EXPECT_GT(upJump, downJump);  // hysteresis: branches differ
}

}  // namespace
}  // namespace fefet::spice
