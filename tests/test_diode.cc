// Tests of the junction diode.
#include <gtest/gtest.h>

#include <limits>

#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::spice {
namespace {

using shapes::dc;
using shapes::sine;

TEST(Diode, ForwardDropNearSixHundredMillivolts) {
  // 1 V through 1 kOhm into a diode: drop ~0.6 V, current ~0.4 mA.
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(1.0));
  n.add<Resistor>("R", n.node("in"), n.node("d"), 1000.0);
  n.add<Diode>("D", n.node("d"), n.ground());
  Simulator sim(n);
  sim.solveDc();
  const double vd = sim.nodeVoltage("d");
  EXPECT_GT(vd, 0.45);
  EXPECT_LT(vd, 0.75);
  EXPECT_NEAR((1.0 - vd) / 1000.0, 4e-4, 1.5e-4);
}

TEST(Diode, ReverseBlocksCurrent) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(), dc(-1.0));
  n.add<Resistor>("R", n.node("in"), n.node("d"), 1000.0);
  n.add<Diode>("D", n.node("d"), n.ground());
  Simulator sim(n);
  sim.solveDc();
  // Reverse leakage is ~Is: the node follows the source.
  EXPECT_NEAR(sim.nodeVoltage("d"), -1.0, 1e-3);
}

TEST(Diode, HalfWaveRectifier) {
  Netlist n;
  n.add<VoltageSource>("V1", n.node("in"), n.ground(),
                       sine(0.0, 1.5, 100e6));
  n.add<Diode>("D", n.node("in"), n.node("out"));
  n.add<Resistor>("RL", n.node("out"), n.ground(), 10e3);
  n.add<Capacitor>("CL", n.node("out"), n.ground(), 10e-12);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 50e-9;
  options.dtMax = 0.2e-9;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  // Peak-detects to roughly amplitude minus a diode drop; never negative.
  EXPECT_GT(r.waveform.maximum("v(out)"), 0.6);
  EXPECT_GT(r.waveform.minimum("v(out)"), -0.05);
}

TEST(Diode, RejectsBadParameters) {
  Netlist n;
  Diode::Params bad;
  bad.saturationCurrent = 0.0;
  EXPECT_THROW(
      n.add<Diode>("D", n.node("a"), n.ground(), bad),
      InvalidArgumentError);
  // v_T = k T / q n must be finite and positive, or every stamp is inf/NaN.
  for (const double t : {0.0, -300.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    Diode::Params cold;
    cold.temperature = t;
    EXPECT_THROW(n.add<Diode>("D", n.node("a"), n.ground(), cold),
                 InvalidArgumentError)
        << "temperature " << t;
  }
  // An infinite Is makes every stamp NaN, an infinite n a silent open
  // circuit (v_T = inf gives i = g = 0).
  const double inf = std::numeric_limits<double>::infinity();
  Diode::Params hugeIs;
  hugeIs.saturationCurrent = inf;
  EXPECT_THROW(n.add<Diode>("D", n.node("a"), n.ground(), hugeIs),
               InvalidArgumentError);
  Diode::Params hugeN;
  hugeN.idealityFactor = inf;
  EXPECT_THROW(n.add<Diode>("D", n.node("a"), n.ground(), hugeN),
               InvalidArgumentError);
}

}  // namespace
}  // namespace fefet::spice
