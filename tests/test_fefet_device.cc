// Tests of the FEFET device-level behaviour (paper §2-§3, Figs. 2-4):
// hysteresis windows vs T_FE, non-volatility onset, distinguishability and
// transient state retention in the circuit solver.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>

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
    const auto saddles = math::findAllRoots(
        [&](double psi) { return gateVoltageOfInternal(p, psi); },
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
  const double psi = 1.0;
  const double expected =
      psi + p.feThickness * lk.staticField(mos.gateChargeDensity(psi));
  EXPECT_DOUBLE_EQ(gateVoltageOfInternal(p, psi), expected);
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
