// Tests of the waveform measurement utilities.
#include <cmath>
#include <gtest/gtest.h>

#include "spice/measure.h"
#include "spice/netlist.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet {
namespace {

using spice::Probe;
using spice::Waveform;
using spice::shapes::pulse;

Waveform syntheticEdge() {
  Waveform w;
  w.addColumn("v");
  // A linear 0->1 ramp between t=1 and t=2, flat elsewhere.
  w.appendSample(0.0, {0.0});
  w.appendSample(1.0, {0.0});
  w.appendSample(2.0, {1.0});
  w.appendSample(3.0, {1.0});
  return w;
}

TEST(Measure, RiseTimeOfLinearRamp) {
  // 10%..90% of a linear 1 s ramp = 0.8 s.
  EXPECT_NEAR(spice::measure::riseTime(syntheticEdge(), "v", 0.0, 1.0), 0.8,
              1e-9);
}

TEST(Measure, FallTimeOfLinearRamp) {
  Waveform w;
  w.addColumn("v");
  w.appendSample(0.0, {1.0});
  w.appendSample(1.0, {1.0});
  w.appendSample(3.0, {0.0});
  w.appendSample(4.0, {0.0});
  EXPECT_NEAR(spice::measure::fallTime(w, "v", 1.0, 0.0), 1.6, 1e-9);
}

TEST(Measure, DelayBetweenColumns) {
  Waveform w;
  w.addColumn("a");
  w.addColumn("b");
  w.appendSample(0.0, {0.0, 1.0});
  w.appendSample(1.0, {1.0, 1.0});
  w.appendSample(2.0, {1.0, 0.0});
  EXPECT_NEAR(
      spice::measure::delay(w, "a", 0.5, true, "b", 0.5, false), 1.0, 1e-9);
}

TEST(Measure, SettlingTimeAndOvershoot) {
  Waveform w;
  w.addColumn("v");
  w.appendSample(0.0, {0.0});
  w.appendSample(1.0, {1.3});   // overshoot
  w.appendSample(2.0, {0.95});
  w.appendSample(3.0, {1.01});
  w.appendSample(4.0, {1.0});
  EXPECT_NEAR(spice::measure::overshoot(w, "v", 1.0), 0.3, 1e-12);
  EXPECT_NEAR(spice::measure::settlingTime(w, "v", 1.0, 0.06), 2.0, 1e-9);
  EXPECT_THROW(spice::measure::settlingTime(w, "v", 2.0, 0.01),
               InvalidArgumentError);
}

TEST(Measure, AverageAndRms) {
  Waveform w;
  w.addColumn("v");
  w.appendSample(0.0, {0.0});
  w.appendSample(1.0, {2.0});
  w.appendSample(2.0, {2.0});
  // Over [0,2]: mean of ramp(0..2)+flat(2) = (1 + 2)/2 = 1.5.
  EXPECT_NEAR(spice::measure::average(w, "v", 0.0, 2.0), 1.5, 1e-9);
  EXPECT_GT(spice::measure::rms(w, "v", 0.0, 2.0),
            spice::measure::average(w, "v", 0.0, 2.0) - 1e-12);
}

TEST(Measure, OnRealRcWaveform) {
  spice::Netlist n;
  n.add<spice::VoltageSource>("V1", n.node("in"), n.ground(),
                              pulse(0.0, 1.0, 0.1e-9, 10e-12, 1.0, 10e-12));
  n.add<spice::Resistor>("R", n.node("in"), n.node("out"), 1000.0);
  n.add<spice::Capacitor>("C", n.node("out"), n.ground(), 1e-12);
  spice::Simulator sim(n);
  sim.initializeUic();
  spice::TransientOptions options;
  options.duration = 10e-9;
  options.dtMax = 10e-12;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  // RC 10-90 rise time = tau * ln(9) = 2.197 ns.
  EXPECT_NEAR(spice::measure::riseTime(r.waveform, "v(out)", 0.0, 1.0),
              2.197e-9, 0.1e-9);
  EXPECT_NEAR(spice::measure::settlingTime(r.waveform, "v(out)", 1.0, 0.02),
              0.1e-9 + 3.9e-9, 0.5e-9);  // ~ln(50) tau after the edge
}

}  // namespace
}  // namespace fefet
