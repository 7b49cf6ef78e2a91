// Stress tests of the solver numerics: Newton damping/limiting, gmin
// continuation, adaptive step control, stiff circuits and the damped
// trapezoidal integrator's ringing suppression.
#include <cmath>
#include <gtest/gtest.h>

#include "spice/assembler.h"
#include "spice/extras.h"
#include "spice/mosfet_device.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::spice {
namespace {

using shapes::dc;
using shapes::pulse;

TEST(Newton, ConvergesOnStackedExponentials) {
  // Two diodes in series with a resistor: nested exponentials are the
  // classic Newton-overshoot trap; damping must keep it on track.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(2.0));
  n.add<Resistor>("R", n.node("in"), n.node("a"), 1e3);
  n.add<Diode>("D1", n.node("a"), n.node("b"));
  n.add<Diode>("D2", n.node("b"), n.ground());
  Simulator sim(n);
  const auto stats = sim.solveDc();
  EXPECT_TRUE(stats.converged);
  const double va = sim.nodeVoltage("a");
  const double vb = sim.nodeVoltage("b");
  EXPECT_GT(va, vb);
  EXPECT_NEAR(va - vb, vb, 0.05);  // identical diodes share the drop
  EXPECT_NEAR((2.0 - va) / 1e3,
              1e-14 * (std::exp(vb / 0.02585) - 1.0),
              (2.0 - va) / 1e3 * 0.2);
}

TEST(Newton, ColdStartFarFromSolution) {
  // Seed every node at a hostile initial point; the solve must recover.
  Netlist n;
  n.add<VoltageSource>("Vdd", n.node("vdd"), n.ground(), dc(0.68));
  n.add<VoltageSource>("Vin", n.node("in"), n.ground(), dc(0.34));
  n.add<MosfetDevice>("MP", n.node("out"), n.node("in"), n.node("vdd"),
                      xtor::pmos45(), 260e-9);
  n.add<MosfetDevice>("MN", n.node("out"), n.node("in"), n.ground(),
                      xtor::nmos45(), 130e-9);
  Simulator sim(n);
  sim.setNodeVoltage("out", -5.0);
  sim.setNodeVoltage("vdd", 5.0);
  const auto stats = sim.solveDc();
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(sim.nodeVoltage("out"), 0.05);
  EXPECT_LT(sim.nodeVoltage("out"), 0.63);
}

TEST(Transient, StiffTwoTimeConstantCircuit) {
  // tau1 = 1 ps, tau2 = 10 ns: four decades of stiffness.  The adaptive
  // controller must resolve the fast pole without crawling through the
  // slow one (bounded step count).
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.0, 1e-12, 1.0, 1e-12));
  n.add<Resistor>("R1", n.node("in"), n.node("f"), 10.0);    // 1 ps
  n.add<Capacitor>("C1", n.node("f"), n.ground(), 0.1e-12);
  n.add<Resistor>("R2", n.node("f"), n.node("s"), 10e3);     // 10 ns
  n.add<Capacitor>("C2", n.node("s"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 50e-9;
  const auto r = sim.runTransient(options, {Probe::v("f"), Probe::v("s")});
  EXPECT_NEAR(r.waveform.finalValue("v(f)"), 1.0, 0.01);
  EXPECT_NEAR(r.waveform.finalValue("v(s)"), 1.0, 0.02);
  // Analytic slow response at t = 10 ns: 1 - e^-1.
  EXPECT_NEAR(r.waveform.valueAt("v(s)", 10.06e-9), 1.0 - std::exp(-1.0),
              0.03);
  EXPECT_LT(r.stats.steps, 2000);
}

TEST(Transient, StepRejectionRecovers) {
  // A brutal edge (1 fs rise) forces step rejections; the run must still
  // complete and land on the right value.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 1e-9, 1e-15, 1.0, 1e-15));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 100.0);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 3e-9;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  EXPECT_NEAR(r.waveform.finalValue("v(out)"), 1.0, 0.02);
}

TEST(Transient, DampedTrapSuppressesBranchRinging) {
  // A capacitor hard across a pulsing ideal source: the branch current
  // after the edge must decay to ~0 instead of ringing at +/-C dV/dt.
  Netlist n;
  auto* v = n.add<VoltageSource>("V1", n.node("a"), n.ground(),
                                 pulse(0.0, 1.0, 0.1e-9, 20e-12, 1.0,
                                       20e-12));
  n.add<Capacitor>("C", n.node("a"), n.ground(), 10e-15);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 2e-9;
  options.dtMax = 10e-12;
  const auto r = sim.runTransient(options, {Probe::i("V1")});
  // Well after the edge, the current must have decayed by >100x.
  const auto t = r.waveform.time();
  const auto& i = r.waveform.column("i(V1)");
  double late = 0.0;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k] > 1.5e-9) late = std::max(late, std::abs(i[k]));
  }
  const double peak = std::max(std::abs(r.waveform.maximum("i(V1)")),
                               std::abs(r.waveform.minimum("i(V1)")));
  EXPECT_LT(late, peak / 100.0);
  (void)v;
}

TEST(Transient, ThrowsOnImpossibleCircuitInsteadOfHanging) {
  // Shorted opposing ideal sources: the Jacobian is structurally singular;
  // the run must fail fast with a NumericalError, not loop.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<VoltageSource>("V2", n.node("a"), n.ground(), dc(2.0));
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1e-9;
  EXPECT_THROW(sim.runTransient(options, {Probe::v("a")}), NumericalError);
}

TEST(Transient, AdaptiveStepGrowsAfterTheEdge) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.0, 10e-12, 1.0, 10e-12));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 1e3);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 0.1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 100e-9;
  options.dtInitial = 1e-13;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  // 100 ns at the initial 0.1 ps step would be 1e6 steps; growth must cut
  // that by orders of magnitude.
  EXPECT_LT(r.stats.steps, 5000);
  EXPECT_NEAR(r.waveform.finalValue("v(out)"), 1.0, 0.01);
}

TEST(Transient, StatsSurfaceTheRetryHistory) {
  // A clean run reports its effort: steps, Newton iterations and the
  // smallest dt attempted — and no rescues.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.0, 10e-12, 1.0, 10e-12));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 1e3);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 0.1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 10e-9;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  EXPECT_GT(r.stats.steps, 0);
  EXPECT_GT(r.stats.newtonIterations, 0);
  EXPECT_GT(r.stats.smallestDt, 0.0);
  EXPECT_LE(r.stats.smallestDt, options.dtInitial);
  EXPECT_EQ(r.stats.gminEscalations, 0);
}

TEST(Transient, StepBudgetAbortsWithDiagnostics) {
  // A pathological budget: the run must terminate within it and the
  // NumericalError must carry the retry history, not just a message.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.0, 1e-12, 1.0, 1e-12));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 10.0);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1.0;  // absurd: ~1e11 steps at dtMax
  options.maxSteps = 50;
  try {
    sim.runTransient(options, {Probe::v("out")});
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    ASSERT_TRUE(e.hasDiagnostics());
    const auto& d = e.diagnostics();
    EXPECT_GE(d.steps, 1);
    EXPECT_LE(d.steps, 50);
    EXPECT_GT(d.newtonIterations, 0);
    EXPECT_GT(d.smallestDt, 0.0);
    EXPECT_GE(d.time, 0.0);
    // The rendered what() embeds the same history.
    EXPECT_NE(std::string(e.what()).find("dt"), std::string::npos);
  }
}

TEST(Transient, UnderflowNamesTheTimePoint) {
  // The singular two-source deck again, but checking the failure CONTENT:
  // the error must name the time point and the smallest dt attempted.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<VoltageSource>("V2", n.node("a"), n.ground(), dc(2.0));
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1e-9;
  try {
    sim.runTransient(options, {Probe::v("a")});
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    ASSERT_TRUE(e.hasDiagnostics());
    const auto& d = e.diagnostics();
    EXPECT_GE(d.time, 0.0);
    EXPECT_GT(d.dtCuts, 0);
    EXPECT_GT(d.smallestDt, 0.0);
    const std::string what = e.what();
    EXPECT_NE(what.find("underflow"), std::string::npos) << what;
    EXPECT_NE(what.find("smallest dt"), std::string::npos) << what;
  }
}

TEST(Transient, RejectsBadBackoffFactor) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<Resistor>("R", n.node("a"), n.ground(), 1e3);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1e-9;
  options.dtCutFactor = 1.0;
  EXPECT_THROW(sim.runTransient(options, {Probe::v("a")}),
               InvalidArgumentError);
  options.dtCutFactor = 0.0;
  EXPECT_THROW(sim.runTransient(options, {Probe::v("a")}),
               InvalidArgumentError);
}

TEST(Mna, AddGminFeedsTheRowScale) {
  // Regression: gmin used to be written into the residual directly,
  // bypassing the per-row |contribution| accumulation — so the relative
  // convergence test divided by a scale that ignored the gmin current
  // entirely.  Conductances, voltages and gmin are powers of two so every
  // sum below is exact and the gmin share can be compared with ==.
  Netlist n;
  n.add<Resistor>("R1", n.node("a"), n.node("b"), 0.5);
  n.add<Resistor>("R2", n.node("b"), n.ground(), 0.25);
  ASSERT_EQ(n.freeze(), 2);
  Assembler assembler(n.stampPattern(), /*useSparse=*/false);
  const std::vector<double> x = {2.0, -1.0};
  const SystemView view(x, n.nodeCount());
  struct Rows {
    std::vector<double> residual, rowScale;
  };
  const auto assemble = [&](double gmin) {
    assembler.assemble(n, view, /*dc=*/true, 0.0, 0.0,
                       IntegrationMethod::kBackwardEuler, gmin);
    const auto residual = assembler.residual();
    const auto rowScale = assembler.rowScale();
    return Rows{{residual.begin(), residual.end()},
                {rowScale.begin(), rowScale.end()}};
  };
  const Rows without = assemble(0.0);
  const double gmin = 0x1p-20;
  const Rows with = assemble(gmin);
  for (int row = 0; row < n.nodeCount(); ++row) {
    const auto r = static_cast<std::size_t>(row);
    EXPECT_GT(without.rowScale[r], 0.0) << "row " << row;
    EXPECT_EQ(with.residual[r] - without.residual[r], gmin * x[r])
        << "row " << row;
    EXPECT_EQ(with.rowScale[r] - without.rowScale[r], std::abs(gmin * x[r]))
        << "row " << row;
  }
}

TEST(Dc, GminContinuationRescuesHardStart) {
  // A floating high-impedance divider string of diodes; the direct solve
  // from zero may wander, the continuation must land it.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("top"), n.ground(), dc(3.0));
  n.add<Diode>("D1", n.node("top"), n.node("m1"));
  n.add<Diode>("D2", n.node("m1"), n.node("m2"));
  n.add<Diode>("D3", n.node("m2"), n.node("m3"));
  n.add<Diode>("D4", n.node("m3"), n.ground());
  n.add<Resistor>("Rload", n.node("m3"), n.ground(), 1e6);
  Simulator sim(n);
  const auto stats = sim.solveDc();
  EXPECT_TRUE(stats.converged);
  // All drops positive and ordered.
  const double m1 = sim.nodeVoltage("m1");
  const double m2 = sim.nodeVoltage("m2");
  const double m3 = sim.nodeVoltage("m3");
  EXPECT_GT(3.0, m1);
  EXPECT_GT(m1, m2);
  EXPECT_GT(m2, m3);
  EXPECT_GT(m3, 0.0);
}

}  // namespace
}  // namespace fefet::spice
