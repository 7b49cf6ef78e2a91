// Tests of the NVP substrate (paper §7, Figs. 12-13): power traces,
// workloads and the ODAB forward-progress model.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "nvp/nv_processor.h"
#include "nvp/power_trace.h"
#include "nvp/workload.h"

namespace fefet::nvp {
namespace {

TEST(PowerTrace, SegmentsAndMetrics) {
  PowerTrace t;
  t.addSegment(1.0, 10e-6);
  t.addSegment(1.0, 0.0);
  EXPECT_DOUBLE_EQ(t.totalDuration(), 2.0);
  EXPECT_DOUBLE_EQ(t.meanPower(), 5e-6);
  EXPECT_DOUBLE_EQ(t.dutyCycle(), 0.5);
  EXPECT_DOUBLE_EQ(t.interruptionRate(), 0.5);
}

TEST(PowerTrace, ScaleToMeanPower) {
  PowerTrace t;
  t.addSegment(1.0, 10e-6);
  t.addSegment(3.0, 0.0);
  t.scaleToMeanPower(20e-6);
  EXPECT_NEAR(t.meanPower(), 20e-6, 1e-12);
}

TEST(PowerTrace, WifiTraceHasRequestedStatistics) {
  WifiTraceParams params;
  params.meanPower = 12e-6;
  params.duration = 0.5;
  const auto trace = makeWifiTrace(params);
  EXPECT_NEAR(trace.meanPower(), 12e-6, 1e-10);
  EXPECT_NEAR(trace.totalDuration(), 0.5, 1e-6);
  EXPECT_GT(trace.interruptionRate(), 100.0);
  EXPECT_GT(trace.dutyCycle(), 0.1);
  EXPECT_LT(trace.dutyCycle(), 0.9);
}

TEST(PowerTrace, DeterministicPerSeed) {
  WifiTraceParams params;
  const auto a = makeWifiTrace(params);
  const auto b = makeWifiTrace(params);
  params.seed = 99;
  const auto c = makeWifiTrace(params);
  ASSERT_EQ(a.segmentCount(), b.segmentCount());
  EXPECT_DOUBLE_EQ(a.segmentPower(3), b.segmentPower(3));
  EXPECT_NE(a.segmentCount(), c.segmentCount());
}

TEST(PowerTrace, StandardSetOrderedByPower) {
  const auto set = standardTraceSet();
  ASSERT_EQ(set.size(), 5u);
  for (std::size_t i = 1; i < set.size(); ++i) {
    EXPECT_GT(set[i].trace.meanPower(), set[i - 1].trace.meanPower());
  }
  // Lower power = more frequently interrupted (per-second outages scale
  // with shorter bursts/longer outages at similar rate, so check duty).
  EXPECT_LT(set.front().trace.dutyCycle(), set.back().trace.dutyCycle());
}

TEST(Workloads, SuiteHasEightMiBenchProfiles) {
  const auto suite = mibenchSuite();
  ASSERT_EQ(suite.size(), 8u);
  for (const auto& w : suite) {
    EXPECT_GT(w.activePower, 0.0);
    EXPECT_GT(w.backupWords, 0);
  }
  EXPECT_EQ(suite.front().name, "bitcount");
}

TEST(NvmParams, Table3Values) {
  const auto fefet = fefetNvm();
  const auto feram = feramNvm();
  EXPECT_NEAR(fefet.writeEnergyPerWord * 32.0, 4.82e-12, 1e-15);
  EXPECT_NEAR(fefet.readEnergyPerWord * 32.0, 0.28e-12, 1e-15);
  EXPECT_NEAR(feram.writeEnergyPerWord * 32.0, 15.0e-12, 1e-15);
  EXPECT_NEAR(feram.readEnergyPerWord * 32.0, 15.5e-12, 1e-15);
}

TEST(NvProcessor, ForwardProgressBounds) {
  const auto trace = standardTraceSet()[2].trace;
  const auto w = mibenchSuite()[0];
  const auto r = simulateNvp(trace, w, fefetNvm());
  EXPECT_GE(r.forwardProgress, 0.0);
  EXPECT_LE(r.forwardProgress, 1.0);
  EXPECT_GT(r.powerCycles, 0);
  EXPECT_GT(r.backupEnergy, 0.0);
  EXPECT_GT(r.restoreEnergy, 0.0);
}

TEST(NvProcessor, NoPowerNoProgress) {
  PowerTrace dead;
  dead.addSegment(0.1, 0.0);
  const auto r = simulateNvp(dead, mibenchSuite()[0], fefetNvm());
  EXPECT_DOUBLE_EQ(r.forwardProgress, 0.0);
}

TEST(NvProcessor, AbundantPowerNearFullProgress) {
  PowerTrace rich;
  rich.addSegment(0.2, 500e-6);
  const auto r = simulateNvp(rich, mibenchSuite()[0], fefetNvm());
  EXPECT_GT(r.forwardProgress, 0.95);
}

TEST(NvProcessor, FefetBeatsFeramOnEveryWorkload) {
  const auto trace = standardTraceSet()[2].trace;  // the paper point
  for (const auto& w : mibenchSuite()) {
    const double gain = forwardProgressGain(trace, w, fefetNvm(), feramNvm());
    EXPECT_GT(gain, 0.0) << w.name;
  }
}

TEST(NvProcessor, PaperPointGainsInTwentyToFortyPercentBand) {
  // Paper Fig. 13: 22-38% more forward progress, average 27%.
  const auto trace = standardTraceSet()[2].trace;
  double sum = 0.0;
  for (const auto& w : mibenchSuite()) {
    const double gain = forwardProgressGain(trace, w, fefetNvm(), feramNvm());
    EXPECT_GT(gain, 0.15) << w.name;
    EXPECT_LT(gain, 0.45) << w.name;
    sum += gain;
  }
  EXPECT_NEAR(sum / 8.0, 0.27, 0.06);
}

TEST(NvProcessor, GainsGrowAsPowerShrinks) {
  // Paper: "gains are the largest for the lowest power and most
  // frequently interrupted power traces".
  const auto set = standardTraceSet();
  const auto w = mibenchSuite()[3];  // fft
  double prev = 1e9;
  for (const auto& nt : set) {
    const double gain = forwardProgressGain(nt.trace, w, fefetNvm(),
                                            feramNvm());
    EXPECT_LT(gain, prev) << nt.name;
    prev = gain;
  }
}

TEST(NvProcessor, BackupEnergyRatioTracksNvmParams) {
  const auto trace = standardTraceSet()[2].trace;
  const auto w = mibenchSuite()[0];
  const auto fef = simulateNvp(trace, w, fefetNvm());
  const auto fer = simulateNvp(trace, w, feramNvm());
  // Per-cycle backup energy ratio = write-energy ratio (~3.1x).
  const double perCycleFef = fef.backupEnergy / fef.powerCycles;
  const double perCycleFer = fer.backupEnergy / fer.powerCycles;
  EXPECT_NEAR(perCycleFer / perCycleFef, 15.0 / 4.82, 0.4);
}

// Property: forward progress is monotone in mean power for both NVMs.
class FpVsPower : public ::testing::TestWithParam<int> {};

TEST_P(FpVsPower, MonotoneInMeanPower) {
  const auto set = standardTraceSet();
  const auto w = mibenchSuite()[static_cast<std::size_t>(GetParam())];
  double prevFef = -1.0, prevFer = -1.0;
  for (const auto& nt : set) {
    const double fef = simulateNvp(nt.trace, w, fefetNvm()).forwardProgress;
    const double fer = simulateNvp(nt.trace, w, feramNvm()).forwardProgress;
    EXPECT_GT(fef, prevFef) << nt.name;
    EXPECT_GT(fer, prevFer) << nt.name;
    prevFef = fef;
    prevFer = fer;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FpVsPower, ::testing::Values(0, 3, 7));

}  // namespace
}  // namespace fefet::nvp
