// Tests of the 1T-1C FERAM baseline (paper §6.1, Fig. 9): writes, the
// destructive read with write-back, and the 550 ps / 1.64 V anchor.
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "core/feram_cell.h"
#include "core/materials.h"
#include "core/write_pulse.h"

namespace fefet::core {
namespace {

FeRamConfig defaultConfig() {
  FeRamConfig cfg;
  cfg.lk = feramMaterial();
  return cfg;
}

TEST(FeRam, WriteOneAtPaperAnchor) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(false);
  const auto r = cell.write(true, 600e-12);
  EXPECT_TRUE(r.bitAfter);
  EXPECT_GT(r.finalPolarization, 0.3);
}

TEST(FeRam, WriteZeroAtPaperAnchor) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(true);
  const auto r = cell.write(false, 600e-12);
  EXPECT_FALSE(r.bitAfter);
  EXPECT_LT(r.finalPolarization, -0.3);
}

TEST(FeRam, MinimumWritePulseMatchesCalibration) {
  FeRamCell cell(defaultConfig());
  const double t1 = minimumWritePulse(cell, true, 1.64);
  const double t0 = minimumWritePulse(cell, false, 1.64);
  ASSERT_GT(t1, 0.0);
  ASSERT_GT(t0, 0.0);
  EXPECT_NEAR(std::max(t1, t0), 550e-12, 40e-12);
}

TEST(FeRam, SubCoerciveWriteFails) {
  FeRamCell cell(defaultConfig());
  // 1.0 V is below the 1.24 V film coercive voltage: no flip, ever.
  EXPECT_LT(minimumWritePulse(cell, true, 1.0, 2e-9), 0.0);
}

TEST(FeRam, ReadSensesOne) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(true);
  const auto r = cell.read();
  EXPECT_TRUE(r.bitRead);
  EXPECT_GT(r.bitLineSwing, cell.config().senseThreshold);
}

TEST(FeRam, ReadSensesZero) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(false);
  const auto r = cell.read();
  EXPECT_FALSE(r.bitRead);
  EXPECT_LT(r.bitLineSwing, cell.config().senseThreshold);
}

TEST(FeRam, ReadIsDestructiveButRestored) {
  // The plate pulse flips a stored '1' (that is what develops the bit-line
  // signal); the automatic write-back restores it.
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(true);
  const double p0 = cell.polarization();
  ASSERT_GT(p0, 0.0);
  const auto r = cell.read();
  // During the sense phase the polarization must have swung negative: the
  // final waveform of the sense phase ends pre-restore.
  const auto pTrace = r.waveform.column("P(cell:fe)");
  double pMin = p0;
  for (double p : pTrace) pMin = std::min(pMin, p);
  EXPECT_LT(pMin, 0.0) << "read did not disturb the cell: not destructive?";
  // ...and the write-back brought it home.
  EXPECT_TRUE(r.bitAfter);
  EXPECT_NEAR(cell.polarization(), p0, 0.15 * std::abs(p0));
}

TEST(FeRam, ReadCostsMoreForOneThanZero) {
  // '1' reads switch the cell twice (sense + restore): more energy.
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(true);
  const double e1 = cell.read().totalEnergy;
  cell.setStoredBit(false);
  const double e0 = cell.read().totalEnergy;
  EXPECT_GT(e1, e0);
}

TEST(FeRam, SenseMarginBetweenStates) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(true);
  const double swing1 = cell.read().bitLineSwing;
  cell.setStoredBit(false);
  const double swing0 = cell.read().bitLineSwing;
  EXPECT_GT(swing1 - swing0, 0.2);  // healthy margin around the threshold
}

TEST(FeRam, HoldRetainsBothStates) {
  FeRamCell cell(defaultConfig());
  for (bool bit : {true, false}) {
    cell.setStoredBit(bit);
    const auto r = cell.hold(50e-9);
    EXPECT_EQ(r.bitAfter, bit);
  }
}

TEST(FeRam, WriteEnergyScalesWithVoltage) {
  FeRamCell cell(defaultConfig());
  cell.setStoredBit(false);
  const double eLow = cell.write(true, 1.2e-9, 1.64).totalEnergy;
  cell.setStoredBit(false);
  const double eHigh = cell.write(true, 1.2e-9, 2.0).totalEnergy;
  EXPECT_GT(eHigh, eLow);
}

TEST(FeRam, OverwriteCycles) {
  FeRamCell cell(defaultConfig());
  bool bit = false;
  for (int i = 0; i < 6; ++i) {
    bit = !bit;
    const auto r = cell.write(bit, 800e-12);
    EXPECT_EQ(r.bitAfter, bit) << "cycle " << i;
  }
}

// Property sweep: read-after-write correctness over both data values and
// several write voltages.
struct Case {
  bool one;
  double voltage;
};
// gtest names each case by its raw bytes; print them with the padding after
// `one` zeroed so the names do not pick up indeterminate stack bytes.
void PrintTo(const Case& c, std::ostream* os) {
  Case clean;
  std::memset(&clean, 0, sizeof clean);
  clean.one = c.one;
  clean.voltage = c.voltage;
  ::testing::internal::PrintBytesInObjectTo(
      reinterpret_cast<const unsigned char*>(&clean), sizeof clean, os);
}
class ReadAfterWrite : public ::testing::TestWithParam<Case> {};

TEST_P(ReadAfterWrite, SensedValueMatchesWritten) {
  FeRamCell cell(defaultConfig());
  const auto [one, voltage] = GetParam();
  cell.setStoredBit(!one);
  const auto w = cell.write(one, 1.5e-9, voltage);
  ASSERT_EQ(w.bitAfter, one);
  const auto r = cell.read();
  EXPECT_EQ(r.bitRead, one);
  EXPECT_EQ(r.bitAfter, one);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ReadAfterWrite,
                         ::testing::Values(Case{true, 1.64}, Case{true, 2.0},
                                           Case{false, 1.64},
                                           Case{false, 2.0}));

}  // namespace
}  // namespace fefet::core
