// Cross-module integration tests: the full pipeline from device physics
// through cells, arrays, macro energies and the NVP system model — the
// paper's storyline end to end.
#include <cmath>
#include <gtest/gtest.h>

#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "core/design_space.h"
#include "core/feram_cell.h"
#include "core/macro_energy.h"
#include "core/materials.h"
#include "core/sense_amp.h"
#include "ferro/calibrate.h"
#include "nvp/nv_processor.h"

namespace fefet {
namespace {

TEST(Integration, RhoCalibrationReproducesShippedConstants) {
  // The constants in materials.cc are the cached results of the
  // calibration routines; re-run them and verify (the paper anchor:
  // 550 ps at 0.68 V / 1.64 V).
  const double fefetRho = core::calibrateFefetRho();
  EXPECT_NEAR(fefetRho, core::fefetMaterial().rho,
              0.03 * core::fefetMaterial().rho);
  const double feramRho = core::calibrateFeramRho();
  EXPECT_NEAR(feramRho, core::feramMaterial().rho,
              0.03 * core::feramMaterial().rho);
}

TEST(Integration, DeviceWindowPredictsCellBehaviour) {
  // The quasi-static fold voltages bound the dynamic write wall.
  core::FefetParams params;
  params.lk = core::fefetMaterial();
  const auto window = core::analyzeHysteresis(params);
  core::Cell2TConfig cfg;
  cfg.fefet = params;
  core::Cell2T cell(cfg);
  // Writing just above the up-fold succeeds given enough time.
  cell.setStoredBit(false);
  EXPECT_TRUE(cell.write(true, 3e-9, window.upSwitchVoltage + 0.1).bitAfter);
  // Writing well below the fold never succeeds.
  cell.setStoredBit(false);
  EXPECT_FALSE(
      cell.write(true, 3e-9, window.upSwitchVoltage - 0.15).bitAfter);
}

TEST(Integration, CellAndArrayAgreeOnReadCurrents) {
  core::Cell2TConfig cellCfg;
  core::Cell2T cell(cellCfg);
  cell.setStoredBit(true);
  const double iCell = cell.read().readCurrent;

  core::ArrayNetlistConfig arrCfg;
  arrCfg.rows = 2;
  arrCfg.cols = 3;
  core::ArrayNetlist arr(arrCfg);
  arr.setPattern({{true, false, false}, {false, false, false}});
  const double iArray = arr.readBit(0, 0).readCurrent;
  EXPECT_NEAR(iArray, iCell, 0.2 * iCell);
}

TEST(Integration, FullMemoryLifecycle) {
  // write -> hold -> read -> overwrite -> read, with energy accounting at
  // each step, on both technologies.
  core::Cell2TConfig fefetCfg;
  core::Cell2T fefet(fefetCfg);
  fefet.setStoredBit(false);
  ASSERT_TRUE(fefet.write(true, 700e-12).bitAfter);
  ASSERT_TRUE(fefet.hold(20e-9).bitAfter);
  auto read = fefet.read();
  ASSERT_TRUE(read.bitAfter);
  EXPECT_GT(read.readCurrent, 1e-5);
  ASSERT_FALSE(fefet.write(false, 900e-12).bitAfter);
  EXPECT_LT(fefet.read().readCurrent, 1e-7);

  core::FeRamConfig feramCfg;
  core::FeRamCell feram(feramCfg);
  feram.setStoredBit(false);
  ASSERT_TRUE(feram.write(true, 800e-12).bitAfter);
  ASSERT_TRUE(feram.hold(20e-9).bitAfter);
  const auto feramRead = feram.read();
  EXPECT_TRUE(feramRead.bitRead);
  EXPECT_TRUE(feramRead.bitAfter);  // restored after destructive read
}

TEST(Integration, PaperHeadlineClaims) {
  // The abstract in one test: iso-write 550 ps, 58.5% lower write voltage,
  // ~67.7% lower write energy, 2.4x area, ~27% forward progress.
  core::MacroEnergyModel macro;
  EXPECT_NEAR(macro.writeVoltageReduction(), 0.585, 0.01);
  EXPECT_NEAR(macro.writeEnergySavings(), 0.677, 0.05);
  EXPECT_NEAR(layout::cellAreaRatio(layout::DesignRules{}, 65e-9), 2.4, 0.1);

  const auto trace = nvp::standardTraceSet()[2].trace;
  double gain = 0.0;
  for (const auto& w : nvp::mibenchSuite()) {
    gain += nvp::forwardProgressGain(trace, w, nvp::fefetNvm(),
                                     nvp::feramNvm());
  }
  EXPECT_NEAR(gain / 8.0, 0.27, 0.06);
}

TEST(Integration, SenseAmpReadsArrayStateCorrectly) {
  // The transistor-level sensing chain digitizes the same device states
  // the array stores.
  core::SenseAmpConfig saCfg;
  core::SenseAmpCircuit sa(saCfg);
  EXPECT_TRUE(sa.simulateRead(true).bitRead);
  EXPECT_FALSE(sa.simulateRead(false).bitRead);
}

TEST(Integration, RetentionTradeoffNarrative) {
  // Lower coercive voltage -> faster, lower-power writes but shorter
  // retention; the width knob restores it (paper §6.2.4).
  core::FefetParams params;
  params.lk = core::fefetMaterial();
  const auto cmp = core::compareRetention(params, 1.244, 65e-9 * 45e-9);
  EXPECT_LT(cmp.fefetLog10Seconds, cmp.feramLog10Seconds);
  core::FefetParams wide = params;
  wide.width = cmp.fefetWidthForParity;
  const auto window = core::analyzeHysteresis(wide);
  EXPECT_TRUE(window.nonvolatile);  // the widened device still works
}

TEST(Integration, EnduranceSmoke) {
  // 20 full write/read cycles on the 2T cell: state always correct and
  // read currents stay separated (no drift accumulation).
  core::Cell2TConfig cfg;
  core::Cell2T cell(cfg);
  double iOnMin = 1e9, iOffMax = 0.0;
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(cell.write(true, 800e-12).bitAfter) << k;
    iOnMin = std::min(iOnMin, cell.read().readCurrent);
    ASSERT_FALSE(cell.write(false, 900e-12).bitAfter) << k;
    iOffMax = std::max(iOffMax, cell.read().readCurrent);
  }
  EXPECT_GT(iOnMin / std::max(iOffMax, 1e-15), 1e3);
}

}  // namespace
}  // namespace fefet
