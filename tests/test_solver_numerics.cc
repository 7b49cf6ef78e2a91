// Stress tests of the solver numerics: Newton damping/limiting, gmin
// continuation, adaptive step control, stiff circuits and the damped
// trapezoidal integrator's ringing suppression; and the solver telemetry
// those runs land in the metrics registry.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>

#include "core/cell2t.h"
#include "obs/metrics.h"
#include "spice/assembler.h"
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
  const auto r = sim.runTransient(options, {Probe::v("out")});
  // 100 ns at the initial 1 ps step would be 1e5 steps; growth must cut
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
  EXPECT_LE(r.stats.smallestDt, 1e-12);  // the first step
  EXPECT_EQ(r.stats.gminEscalations, 0);
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
  Assembler assembler(n.stampPattern());
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

// ---------------------------------------------------------------------------
// Solver telemetry: Newton and the assembler tally in plain members and the
// Simulator lands the tallies once per run, so the registry must agree with
// the transient's own statistics after every run, returned or thrown.

/// The registry values the checks below compare, read from one snapshot.
struct SolverCounts {
  std::uint64_t runs, failedRuns, steps, transientIterations;
  std::uint64_t solves, iterations, nonconverged, assemblies;
  std::uint64_t converged, stagnated, diverged, perSolveCount;

  static SolverCounts read() {
    const obs::MetricsSnapshot snap = obs::Metrics::snapshot();
    SolverCounts c{};
    c.runs = snap.counterValue("fefet.transient.runs");
    c.failedRuns = snap.counterValue("fefet.transient.failed_runs");
    c.steps = snap.counterValue("fefet.transient.steps");
    c.transientIterations =
        snap.counterValue("fefet.transient.newton_iterations");
    c.solves = snap.counterValue("fefet.newton.solves.compiled");
    c.iterations = snap.counterValue("fefet.newton.iterations.compiled");
    c.nonconverged = snap.counterValue("fefet.newton.nonconverged.compiled");
    c.assemblies = snap.counterValue("fefet.assembler.assemblies");
    c.converged = snap.counterValue("fefet.newton.outcome.converged");
    c.stagnated = snap.counterValue("fefet.newton.outcome.stagnated");
    c.diverged = snap.counterValue("fefet.newton.outcome.diverged");
    for (const auto& h : snap.histograms) {
      if (h.name == "fefet.newton.iterations_per_solve") {
        c.perSolveCount = h.count;
      }
    }
    return c;
  }

  SolverCounts operator-(const SolverCounts& o) const {
    return {runs - o.runs,
            failedRuns - o.failedRuns,
            steps - o.steps,
            transientIterations - o.transientIterations,
            solves - o.solves,
            iterations - o.iterations,
            nonconverged - o.nonconverged,
            assemblies - o.assemblies,
            converged - o.converged,
            stagnated - o.stagnated,
            diverged - o.diverged,
            perSolveCount - o.perSolveCount};
  }
};

/// Turns metrics on for one test and restores the previous gate.
class MetricsOn {
 public:
  MetricsOn() : was_(obs::Metrics::enabled()) { obs::Metrics::setEnabled(true); }
  ~MetricsOn() { obs::Metrics::setEnabled(was_); }

 private:
  bool was_;
};

TEST(SolverTelemetry, Cell2TOpsLandEveryIterationOnce) {
  const MetricsOn metrics;
  core::Cell2T cell(core::Cell2TConfig{});
  cell.setStoredBit(false);
  for (int op = 0; op < 3; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const SolverCounts before = SolverCounts::read();
    if (op == 0) {
      EXPECT_TRUE(cell.write(true, 550e-12).bitAfter);
    } else if (op == 1) {
      EXPECT_TRUE(cell.read().bitAfter);
    } else {
      cell.hold(1e-9);
    }
    const SolverCounts d = SolverCounts::read() - before;
    EXPECT_EQ(d.runs, 1u);
    EXPECT_EQ(d.failedRuns, 0u);
    EXPECT_GT(d.steps, 0u);
    EXPECT_GT(d.iterations, 0u);
    EXPECT_EQ(d.iterations, d.transientIterations);
    EXPECT_EQ(d.assemblies, d.iterations);
    EXPECT_GE(d.solves, d.steps);
    EXPECT_EQ(d.perSolveCount, d.solves);
    EXPECT_EQ(d.converged + d.stagnated + d.diverged, d.solves);
    EXPECT_EQ(d.solves - d.converged, d.nonconverged);
  }
}

// Only the Newton laps are sampled: one metered solve in sixteen on the
// thread is timed and adds each lap sixteen times, so the two lap counters
// are multiples of 16 backed by ~solves/16 timed solves, and every count
// stays exact.  The thread's phase is arbitrary, hence the bound below.
TEST(SolverTelemetry, NewtonLapsAreTimedOnOneSolveInSixteen) {
  constexpr std::uint64_t kStride = 16;
  const MetricsOn metrics;
  const auto runOps = [] {
    core::Cell2T cell(core::Cell2TConfig{});
    cell.setStoredBit(false);
    EXPECT_TRUE(cell.write(true, 550e-12).bitAfter);
    EXPECT_TRUE(cell.read().bitAfter);
    cell.hold(1e-9);
  };
  const auto counter = [](const char* name) {
    return obs::Metrics::snapshot().counterValue(name);
  };

  obs::Metrics::setEnabled(false);
  obs::Metrics::reset();
  runOps();
  EXPECT_EQ(counter("fefet.newton.timed_solves.compiled"), 0u);
  EXPECT_EQ(counter("fefet.newton.assemble_ns.compiled"), 0u);
  EXPECT_EQ(counter("fefet.newton.solve_ns.compiled"), 0u);
  EXPECT_EQ(counter("fefet.newton.solves.compiled"), 0u);

  obs::Metrics::setEnabled(true);
  obs::Metrics::reset();
  runOps();
  const SolverCounts d = SolverCounts::read();
  const std::uint64_t timed = counter("fefet.newton.timed_solves.compiled");
  const std::uint64_t assembleNs =
      counter("fefet.newton.assemble_ns.compiled");
  const std::uint64_t solveNs = counter("fefet.newton.solve_ns.compiled");
  EXPECT_GT(timed, 0u);
  EXPECT_LT(std::max(kStride * timed, d.solves) -
                std::min(kStride * timed, d.solves),
            kStride);
  EXPECT_GT(assembleNs, 0u);
  EXPECT_GT(solveNs, 0u);
  EXPECT_EQ(assembleNs % kStride, 0u);
  EXPECT_EQ(solveNs % kStride, 0u);
  EXPECT_EQ(d.runs, 3u);
  EXPECT_EQ(d.failedRuns, 0u);
  EXPECT_GE(d.solves, d.steps);
  EXPECT_EQ(d.iterations, d.transientIterations);
  EXPECT_EQ(d.assemblies, d.iterations);
  EXPECT_EQ(d.perSolveCount, d.solves);
  EXPECT_EQ(d.converged + d.stagnated + d.diverged, d.solves);
  EXPECT_EQ(d.solves - d.converged, d.nonconverged);
}

TEST(SolverTelemetry, ThrowingTransientStillLandsItsCounts) {
  // The structurally singular two-source deck: every Newton solve exits on
  // a singular Jacobian until the run aborts on step underflow.
  const MetricsOn metrics;
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<VoltageSource>("V2", n.node("a"), n.ground(), dc(2.0));
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1e-9;
  const SolverCounts before = SolverCounts::read();
  int iterations = -1;
  try {
    sim.runTransient(options, {Probe::v("a")});
    ADD_FAILURE() << "expected NumericalError";
  } catch (const NumericalError& e) {
    ASSERT_TRUE(e.hasDiagnostics());
    iterations = e.diagnostics().newtonIterations;
  }
  const SolverCounts d = SolverCounts::read() - before;
  EXPECT_EQ(d.runs, 1u);
  EXPECT_EQ(d.failedRuns, 1u);
  EXPECT_EQ(d.steps, 0u);
  EXPECT_GT(d.solves, 0u);
  EXPECT_EQ(d.iterations, static_cast<std::uint64_t>(iterations));
  EXPECT_EQ(d.iterations, d.transientIterations);
  EXPECT_EQ(d.nonconverged, d.solves);
  EXPECT_EQ(d.diverged, d.solves);
  EXPECT_EQ(d.perSolveCount, d.solves);
}

}  // namespace
}  // namespace fefet::spice
