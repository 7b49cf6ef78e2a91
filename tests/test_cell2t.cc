// Tests of the 2T FEFET memory cell (paper §4, Figs. 5-6): write, read,
// hold, non-destructive reads, the 550 ps / 0.68 V anchor and energies.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "core/cell2t.h"
#include "core/materials.h"
#include "core/write_pulse.h"

namespace fefet::core {
namespace {

Cell2TConfig defaultConfig() {
  Cell2TConfig cfg;
  cfg.fefet.lk = fefetMaterial();
  return cfg;
}

TEST(Cell2T, StateTargetsAreSeparated) {
  Cell2T cell(defaultConfig());
  EXPECT_GT(cell.onPolarization(), 0.15);
  EXPECT_LT(std::abs(cell.offPolarization()), 0.01);
}

// Every recorded probe sample is the value read directly from the state it
// names, without the probe path: node rows of the solution, the FE
// capacitor's committed polarization, the exact MOS drain current at the
// final node voltages of a read (the one op that records it), and a
// source's negated aux row.
TEST(Cell2T, ProbeSamplesEqualDirectReads) {
  Cell2T cell(defaultConfig());
  const auto w = cell.write(true, 550e-12).waveform;
  spice::Simulator& sim = cell.simulator();
  const spice::Netlist& net = sim.netlist();
  const auto row = [&](const std::string& node) {
    return sim.solution()[static_cast<std::size_t>(net.findNode(node) - 1)];
  };
  for (const std::string node : {"wbl", "ws", "rs", "sl", "g", "cell:int"}) {
    EXPECT_EQ(w.finalValue("v(" + node + ")"), row(node)) << node;
  }
  const FefetInstance& fefet = cell.fefetInstance();
  EXPECT_EQ(w.finalValue("P(cell:fe)"), fefet.fe->polarization());
  // Only a read records the drain current.
  const auto names = w.columnNames();
  EXPECT_EQ(std::find(names.begin(), names.end(), "id(cell:mos)"),
            names.end());
  const auto rd = cell.read().waveform;
  EXPECT_EQ(rd.finalValue("id(cell:mos)"),
            fefet.mos->model().idsAt(row("rs"), row("cell:int"), row("sl")));

  // Source currents, on a transient the cell's own probe list leaves out.
  spice::TransientOptions options;
  options.duration = 100e-12;
  const auto r = sim.runTransient(
      options, {spice::Probe::i("Vwbl"), spice::Probe::i("Vws")});
  for (const std::string name : {"Vwbl", "Vws"}) {
    const auto* source = net.get<spice::VoltageSource>(name);
    const double aux =
        sim.solution()[static_cast<std::size_t>(source->auxRow())];
    EXPECT_EQ(r.waveform.finalValue("i(" + name + ")"), -aux) << name;
    EXPECT_EQ(sim.measure(spice::Probe::i(name)), -aux) << name;
  }
}

TEST(Cell2T, SetStoredBitRoundTrip) {
  Cell2T cell(defaultConfig());
  cell.setStoredBit(true);
  EXPECT_TRUE(cell.storedBit());
  cell.setStoredBit(false);
  EXPECT_FALSE(cell.storedBit());
}

TEST(Cell2T, WriteOneAtPaperAnchor) {
  Cell2T cell(defaultConfig());
  cell.setStoredBit(false);
  const auto r = cell.write(true, 550e-12);
  EXPECT_TRUE(r.bitAfter);
  EXPECT_GT(r.finalPolarization, 0.1);
  EXPECT_GE(r.writeLatency, 0.0);
  EXPECT_LT(r.writeLatency, 700e-12);
  EXPECT_GT(r.totalEnergy, 0.0);
}

TEST(Cell2T, WriteZeroAtPaperAnchor) {
  Cell2T cell(defaultConfig());
  cell.setStoredBit(true);
  const auto r = cell.write(false, 550e-12);
  EXPECT_FALSE(r.bitAfter);
  // A minimum-width erase lands just inside the OFF basin; the next
  // gate-grounded cycle (here: a read) completes the relaxation.
  EXPECT_LT(r.finalPolarization, 0.09);
  const auto read = cell.read();
  EXPECT_FALSE(read.bitAfter);
  EXPECT_LT(cell.polarization(), 0.02);
}

TEST(Cell2T, MinimumWritePulseMatchesCalibration) {
  // The calibrated material writes (worst polarity) in ~550 ps at 0.68 V.
  Cell2T cell(defaultConfig());
  const double t1 = minimumWritePulse(cell, true, 0.68);
  const double t0 = minimumWritePulse(cell, false, 0.68);
  ASSERT_GT(t1, 0.0);
  ASSERT_GT(t0, 0.0);
  EXPECT_NEAR(std::max(t1, t0), 550e-12, 40e-12);
}

TEST(Cell2T, WriteFasterAtHigherVoltage) {
  Cell2T cell(defaultConfig());
  const double tLow = minimumWritePulse(cell, true, 0.6);
  const double tHigh = minimumWritePulse(cell, true, 0.9);
  ASSERT_GT(tLow, 0.0);
  ASSERT_GT(tHigh, 0.0);
  EXPECT_LT(tHigh, tLow);
}

TEST(Cell2T, WriteFailsInsideHysteresisWindow) {
  // 0.30 V is inside the window: no pulse length can flip the cell.
  Cell2T cell(defaultConfig());
  EXPECT_LT(minimumWritePulse(cell, true, 0.30, 2e-9), 0.0);
}

TEST(Cell2T, ReadDistinguishesStates) {
  Cell2T cell(defaultConfig());
  cell.setStoredBit(true);
  const auto r1 = cell.read();
  cell.setStoredBit(false);
  const auto r0 = cell.read();
  EXPECT_GT(r1.readCurrent, 1e-5);
  EXPECT_LT(r0.readCurrent, 1e-8);
  EXPECT_GT(r1.readCurrent / std::max(r0.readCurrent, 1e-15), 1e4);
}

TEST(Cell2T, ReadIsNonDestructive) {
  // Paper §6.2.1: read-disturb-free operation.  Five consecutive reads of
  // each state leave the polarization unchanged.
  Cell2T cell(defaultConfig());
  for (bool bit : {true, false}) {
    cell.setStoredBit(bit);
    const double p0 = cell.polarization();
    for (int i = 0; i < 5; ++i) {
      const auto r = cell.read();
      EXPECT_EQ(r.bitAfter, bit) << "read " << i;
    }
    EXPECT_NEAR(cell.polarization(), p0, 0.05 * std::abs(cell.onPolarization()));
  }
}

TEST(Cell2T, HoldRetainsBothStates) {
  Cell2T cell(defaultConfig());
  for (bool bit : {true, false}) {
    cell.setStoredBit(bit);
    const auto r = cell.hold(50e-9);
    EXPECT_EQ(r.bitAfter, bit);
  }
}

TEST(Cell2T, WriteEnergySmallerThanFemtojouleScale) {
  // Cell-level write energy is fJ-class (the pJ numbers of Table 3 are
  // macro-level with wires and drivers).
  Cell2T cell(defaultConfig());
  cell.setStoredBit(false);
  const auto r = cell.write(true, 550e-12);
  EXPECT_GT(r.totalEnergy, 1e-17);
  EXPECT_LT(r.totalEnergy, 50e-15);
}

TEST(Cell2T, EnergyBookkeepingSumsSources) {
  Cell2T cell(defaultConfig());
  cell.setStoredBit(false);
  const auto r = cell.write(true, 550e-12);
  double sum = 0.0;
  for (const auto& [name, e] : r.sourceEnergy) sum += e;
  EXPECT_NEAR(sum, r.totalEnergy, 1e-18);
  EXPECT_EQ(r.sourceEnergy.count("Vws"), 1u);
  EXPECT_EQ(r.sourceEnergy.count("Vwbl"), 1u);
}

TEST(Cell2T, OverwriteCycles) {
  // Endurance-style toggling: 1,0,1,0... always lands in the right state.
  Cell2T cell(defaultConfig());
  bool bit = false;
  for (int i = 0; i < 6; ++i) {
    bit = !bit;
    const auto r = cell.write(bit, 700e-12);
    EXPECT_EQ(r.bitAfter, bit) << "cycle " << i;
  }
}

TEST(Cell2T, RequiresNonvolatileDevice) {
  Cell2TConfig cfg = defaultConfig();
  cfg.fefet.feThickness = 1.0e-9;  // monostable device
  EXPECT_THROW(Cell2T{cfg}, InvalidArgumentError);
}

// Property sweep: both polarities across write voltages succeed above the
// wall and the latency decreases with voltage.
struct WriteCase {
  bool one;
  double voltage;
};
// gtest names each case by its raw bytes; print them with the padding after
// `one` zeroed so the names do not pick up indeterminate stack bytes.
void PrintTo(const WriteCase& c, std::ostream* os) {
  WriteCase clean;
  std::memset(&clean, 0, sizeof clean);
  clean.one = c.one;
  clean.voltage = c.voltage;
  ::testing::internal::PrintBytesInObjectTo(
      reinterpret_cast<const unsigned char*>(&clean), sizeof clean, os);
}
class WriteMatrix : public ::testing::TestWithParam<WriteCase> {};

TEST_P(WriteMatrix, CompletesWithinTwoNanoseconds) {
  Cell2T cell(defaultConfig());
  const auto [one, voltage] = GetParam();
  cell.setStoredBit(!one);
  const auto r = cell.write(one, 2e-9, voltage);
  EXPECT_EQ(r.bitAfter, one) << (one ? "+" : "-") << voltage;
}

INSTANTIATE_TEST_SUITE_P(Voltages, WriteMatrix,
                         ::testing::Values(WriteCase{true, 0.60},
                                           WriteCase{true, 0.68},
                                           WriteCase{true, 0.80},
                                           WriteCase{true, 1.00},
                                           WriteCase{false, 0.60},
                                           WriteCase{false, 0.68},
                                           WriteCase{false, 0.80},
                                           WriteCase{false, 1.00}));

}  // namespace
}  // namespace fefet::core
