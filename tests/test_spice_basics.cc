// Tests of the MNA circuit solver substrate: DC solves, linear transients
// against closed-form solutions, sources, switches and energy accounting.
#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "spice/waveform.h"

namespace fefet::spice {
namespace {

using shapes::dc;
using shapes::pulse;
using shapes::pwl;
using shapes::sine;

TEST(Shapes, PulseEnvelope) {
  const auto p = pulse(0.0, 1.0, 1e-9, 0.1e-9, 2e-9, 0.1e-9);
  EXPECT_DOUBLE_EQ(p(0.0), 0.0);
  EXPECT_NEAR(p(1.05e-9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p(2e-9), 1.0);
  EXPECT_DOUBLE_EQ(p(5e-9), 0.0);
}

TEST(Shapes, PulsePeriodicRepeats) {
  const auto p = pulse(0.0, 1.0, 0.0, 0.1e-9, 0.4e-9, 0.1e-9, 2e-9);
  EXPECT_DOUBLE_EQ(p(0.3e-9), 1.0);
  EXPECT_DOUBLE_EQ(p(2.3e-9), 1.0);
  EXPECT_DOUBLE_EQ(p(1.5e-9), 0.0);
}

TEST(Shapes, PwlInterpolatesAndClamps) {
  const auto p = pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, -2.0}});
  EXPECT_DOUBLE_EQ(p(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(p(0.5), 1.0);
  EXPECT_DOUBLE_EQ(p(2.0), 0.0);
  EXPECT_DOUBLE_EQ(p(10.0), -2.0);
}

TEST(Shapes, SineValue) {
  const auto s = sine(0.5, 1.0, 1e9);
  EXPECT_NEAR(s(0.25e-9), 1.5, 1e-9);
}

TEST(Dc, VoltageDivider) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(2.0));
  n.add<Resistor>("R1", n.node("in"), n.node("mid"), 1000.0);
  n.add<Resistor>("R2", n.node("mid"), n.ground(), 3000.0);
  Simulator sim(n);
  sim.solveDc();
  EXPECT_NEAR(sim.nodeVoltage("mid"), 1.5, 1e-7);  // gmin loading
  EXPECT_NEAR(sim.nodeVoltage("in"), 2.0, 1e-12);
}

TEST(Dc, SourceCurrentThroughLoad) {
  Netlist n;
  auto* v = n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<Resistor>("R", n.node("a"), n.ground(), 500.0);
  Simulator sim(n);
  sim.solveDc();
  SystemView view(sim.solution(), n.nodeCount());
  EXPECT_NEAR(v->current(view), 1.0 / 500.0, 1e-12);
}

TEST(Dc, CurrentSourceIntoResistor) {
  Netlist n;
  n.add<CurrentSource>("I1", n.ground(), n.node("x"), dc(1e-3));
  n.add<Resistor>("R", n.node("x"), n.ground(), 2000.0);
  Simulator sim(n);
  sim.solveDc();
  EXPECT_NEAR(sim.nodeVoltage("x"), 2.0, 1e-7);  // gmin loading
}

TEST(Transient, RcChargingMatchesAnalytic) {
  // 1V step into R=1k, C=1pF: v(t) = 1 - exp(-t/RC), tau = 1 ns.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.0, 1e-12, 1.0, 1e-12));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 1000.0);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 5e-9;
  options.dtMax = 10e-12;
  const auto result = sim.runTransient(options, {Probe::v("out")});
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(result.waveform.valueAt("v(out)", t), expected, 0.01);
  }
}

TEST(Transient, EnergyConservationInRc) {
  // Charge C through R to V: source delivers C V^2; half stored, half
  // dissipated.  Check the source-side accounting.
  Netlist n;
  auto* v = n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                                 pulse(0.0, 1.0, 0.0, 1e-12, 1.0, 1e-12));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 1000.0);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 20e-9;  // >> tau: fully charged
  options.dtMax = 20e-12;
  sim.runTransient(options, {Probe::v("out")});
  EXPECT_NEAR(v->energyDelivered(), 1e-12, 0.05e-12);
}

TEST(Transient, CapacitorDividerStep) {
  // Series caps divide a step by the capacitance ratio.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       pulse(0.0, 1.0, 0.1e-9, 10e-12, 1.0, 10e-12));
  n.add<Capacitor>("C1", n.node("in"), n.node("mid"), 1e-15);
  n.add<Capacitor>("C2", n.node("mid"), n.ground(), 3e-15);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1e-9;
  const auto result = sim.runTransient(options, {Probe::v("mid")});
  EXPECT_NEAR(result.waveform.finalValue("v(mid)"), 0.25, 0.01);
}

TEST(Transient, TimedSwitchConnectsAndFloats) {
  // Charge a cap through a closed switch, open it, verify it holds.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("src"), n.ground(), dc(1.0));
  n.add<TimedSwitch>("S", n.node("src"), n.node("cap"),
                     pulse(1.0, 0.0, 2e-9, 1e-12, 1.0, 1e-12), 100.0);
  n.add<Capacitor>("C", n.node("cap"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 5e-9;
  options.dtMax = 10e-12;
  const auto result = sim.runTransient(options, {Probe::v("cap")});
  EXPECT_NEAR(result.waveform.valueAt("v(cap)", 1.9e-9), 1.0, 0.01);
  EXPECT_NEAR(result.waveform.finalValue("v(cap)"), 1.0, 0.02);
}

TEST(Transient, StatePersistsAcrossRuns) {
  Netlist n;
  auto* v = n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(1.0));
  n.add<Resistor>("R", n.node("in"), n.node("out"), 1000.0);
  n.add<Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 10e-9;
  sim.runTransient(options, {Probe::v("out")});
  EXPECT_NEAR(sim.nodeVoltage("out"), 1.0, 0.01);
  // Second run with the source at 0: discharge from the held state.
  v->setShape(dc(0.0));
  const auto r2 = sim.runTransient(options, {Probe::v("out")});
  EXPECT_NEAR(r2.waveform.column("v(out)").front(), 1.0, 0.02);
  EXPECT_NEAR(r2.waveform.finalValue("v(out)"), 0.0, 0.01);
}

TEST(Netlist, NodeAndDeviceManagement) {
  Netlist n;
  const NodeId a = n.node("a");
  EXPECT_EQ(n.node("a"), a);
  EXPECT_EQ(n.node("gnd"), kGround);
  EXPECT_EQ(n.findNode("a"), a);
  EXPECT_EQ(n.findNode("gnd"), kGround);
  EXPECT_THROW(n.findNode("zzz"), InvalidArgumentError);
  n.add<Resistor>("R1", a, n.ground(), 1.0);
  EXPECT_NE(n.find("R1"), nullptr);
  EXPECT_EQ(n.find("R2"), nullptr);
  EXPECT_THROW(n.add<Resistor>("R1", a, n.ground(), 1.0),
               InvalidArgumentError);
  n.freeze();
  EXPECT_THROW(n.node("new-node"), InvalidArgumentError);
}

// Probes are resolved before the first step: a missing node, device or
// device state fails the run with a message naming it, and the state has
// not advanced; a run with valid probes then still works.
TEST(Simulator, UnresolvableProbeFailsBeforeTheFirstStep) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(1.0));
  n.add<Resistor>("R1", n.node("in"), n.node("out"), 1e3);
  n.add<Capacitor>("C1", n.node("out"), n.ground(), 1e-12);
  Simulator sim(n);
  sim.initializeUic();
  const std::vector<double> before = sim.solution();
  TransientOptions options;
  options.duration = 1e-9;
  const auto failure = [&](const Probe& probe) -> std::string {
    try {
      sim.runTransient(options, {Probe::v("out"), probe});
    } catch (const InvalidArgumentError& e) {
      return e.what();
    }
    return "no error";
  };
  const auto contains = [](const std::string& text, const std::string& part) {
    return text.find(part) != std::string::npos;
  };
  EXPECT_TRUE(contains(failure(Probe::v("nowhere")), "no such node: nowhere"));
  EXPECT_TRUE(
      contains(failure(Probe::i("Vmissing")), "no such device: Vmissing"));
  EXPECT_TRUE(contains(failure(Probe::deviceState("C1", "P")),
                       "device C1 has no state 'P'"));
  EXPECT_EQ(sim.solution(), before);

  std::string nodeFailure;
  try {
    sim.nodeVoltage("nowhere");
  } catch (const InvalidArgumentError& e) {
    nodeFailure = e.what();
  }
  EXPECT_TRUE(contains(nodeFailure, "no such node: nowhere"));
  EXPECT_THROW(sim.measure(Probe::v("nowhere")), InvalidArgumentError);
  EXPECT_THROW(sim.setNodeVoltage("nowhere", 1.0), InvalidArgumentError);

  const auto r = sim.runTransient(
      options, {Probe::v("out"), Probe::deviceState("C1", "q")});
  EXPECT_GT(r.waveform.finalValue("v(out)"), 0.5);
  EXPECT_EQ(r.waveform.finalValue("q(C1)"),
            1e-12 * r.waveform.finalValue("v(out)"));
}

TEST(Netlist, AuxLabelsAssigned) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), dc(1.0));
  n.add<VoltageSource>("V2", n.node("b"), n.ground(), dc(2.0));
  n.freeze();
  EXPECT_EQ(n.unknownCount(), 4);  // 2 nodes + 2 branch currents
  ASSERT_EQ(n.auxLabels().size(), 2u);
  EXPECT_EQ(n.auxLabels()[0], "i(V1)");
}

TEST(Waveform, CsvAndMeasurements) {
  Waveform w;
  w.addColumn("x");
  w.appendSample(0.0, {0.0});
  w.appendSample(1.0, {2.0});
  EXPECT_EQ(w.sampleCount(), 2u);
  EXPECT_DOUBLE_EQ(w.valueAt("x", 0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.maximum("x"), 2.0);
  EXPECT_DOUBLE_EQ(w.integral("x"), 1.0);
  EXPECT_NEAR(w.firstCrossing("x", 1.0, true), 0.5, 1e-12);
  std::ostringstream os;
  w.writeCsv(os);
  EXPECT_NE(os.str().find("time,x"), std::string::npos);
  EXPECT_THROW(w.column("nope"), InvalidArgumentError);
}

TEST(Waveform, EmptyColumnReducersThrowClearly) {
  Waveform w;
  w.addColumn("x");
  // No samples yet (a probe evaluated before any accepted timestep): every
  // reducer must throw rather than read col.front()/col.back().
  EXPECT_THROW(w.finalValue("x"), InvalidArgumentError);
  EXPECT_THROW(w.valueAt("x", 0.0), InvalidArgumentError);
  EXPECT_THROW(w.minimum("x"), InvalidArgumentError);
  EXPECT_THROW(w.maximum("x"), InvalidArgumentError);
  EXPECT_THROW(w.integral("x"), InvalidArgumentError);
  EXPECT_THROW(w.firstCrossing("x", 0.5, true), InvalidArgumentError);
  try {
    w.finalValue("x");
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos)
        << "error should name the offending column";
  }
}

TEST(Waveform, ValueAtClampsAtBothEndsAndOnSingleSamples) {
  Waveform w;
  w.addColumn("x");
  w.appendSample(1.0, {10.0});
  // One sample: any query time returns that sample (clamp semantics).
  EXPECT_DOUBLE_EQ(w.valueAt("x", -5.0), 10.0);
  EXPECT_DOUBLE_EQ(w.valueAt("x", 1.0), 10.0);
  EXPECT_DOUBLE_EQ(w.valueAt("x", 99.0), 10.0);

  w.appendSample(2.0, {20.0});
  // Queries outside [t0, t1] clamp to the boundary samples — never
  // extrapolate the edge slope.
  EXPECT_DOUBLE_EQ(w.valueAt("x", 0.0), 10.0);
  EXPECT_DOUBLE_EQ(w.valueAt("x", 1.5), 15.0);
  EXPECT_DOUBLE_EQ(w.valueAt("x", 3.0), 20.0);
}

// Property: a long RC ladder solves identically via the dense and sparse
// paths (the solver switches representation at ~160 unknowns).
class LadderSize : public ::testing::TestWithParam<int> {};

TEST_P(LadderSize, DcLadderHasLinearVoltageProfile) {
  const int stages = GetParam();
  Netlist n;
  n.add<VoltageSource>("V1", n.node("n0"), n.ground(), dc(1.0));
  for (int i = 0; i < stages; ++i) {
    n.add<Resistor>("R" + std::to_string(i),
                    n.node("n" + std::to_string(i)),
                    n.node("n" + std::to_string(i + 1)), 100.0);
  }
  n.add<Resistor>("Rend", n.node("n" + std::to_string(stages)), n.ground(),
                  100.0);
  Simulator sim(n);
  sim.solveDc();
  // Node k of the uniform ladder: v = (stages + 1 - k) / (stages + 1).
  for (int k = 0; k <= stages; k += std::max(1, stages / 7)) {
    const double expected =
        static_cast<double>(stages + 1 - k) / (stages + 1);
    EXPECT_NEAR(sim.nodeVoltage("n" + std::to_string(k)), expected, 5e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LadderSize,
                         ::testing::Values(3, 20, 100, 200, 400));

}  // namespace
}  // namespace fefet::spice
