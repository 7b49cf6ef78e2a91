// Tests of the NVP substrate (paper §7, Figs. 12-13): power traces,
// workloads and the ODAB forward-progress model.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/nvm_macro.h"
#include "nvp/checkpoint.h"
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

// --- crash-consistent checkpointing on the NVM macro ---------------------

core::NvmMacro checkpointMacro() {
  core::MacroConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.wordBits = 32;
  return core::NvmMacro(core::MacroTechnology::kFefet, cfg);
}

std::vector<std::uint32_t> sampleState(int words, std::uint32_t salt) {
  std::vector<std::uint32_t> s;
  for (int i = 0; i < words; ++i) {
    s.push_back(0x85EBCA6Bu * (static_cast<std::uint32_t>(i) + salt + 1));
  }
  return s;
}

TEST(Checkpoint, FirstBootHasNothingToRestore) {
  auto macro = checkpointMacro();
  CheckpointManager mgr(macro, 16);
  EXPECT_EQ(mgr.epoch(), 0u);
  EXPECT_FALSE(mgr.restore().has_value());
}

TEST(Checkpoint, BackupRestoreRoundTrip) {
  auto macro = checkpointMacro();
  CheckpointManager mgr(macro, 16);
  const auto state = sampleState(16, 7);
  const auto r = mgr.backup(state);
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.wordsWritten, 18);  // state + checksum + epoch
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GT(r.latency, 0.0);
  EXPECT_EQ(mgr.epoch(), 1u);
  const auto back = mgr.restore();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, state);
}

TEST(Checkpoint, PowerFailureAtEveryTruncationPointLosesOnlyTheNewest) {
  // Commit state A, then inject a power failure at every possible word
  // boundary of the backup of state B: restore must always return A
  // intact — the torn B image must never win.
  auto macro = checkpointMacro();
  CheckpointManager mgr(macro, 8);
  const auto stateA = sampleState(8, 1);
  ASSERT_TRUE(mgr.backup(stateA).committed);
  for (int failAt = 0; failAt <= 9; ++failAt) {
    const auto stateB = sampleState(8, 100 + failAt);
    const auto r = mgr.backup(stateB, failAt);
    EXPECT_FALSE(r.committed) << failAt;
    EXPECT_EQ(r.wordsWritten, failAt);
    const auto back = mgr.restore();
    ASSERT_TRUE(back.has_value()) << failAt;
    EXPECT_EQ(*back, stateA) << "torn backup leaked at word " << failAt;
  }
  // The epoch word is last: only the full 10-word stream commits.
  const auto stateC = sampleState(8, 999);
  EXPECT_TRUE(mgr.backup(stateC, 10).committed);
  EXPECT_EQ(*mgr.restore(), stateC);
}

TEST(Checkpoint, AlternatesBanksAndSurvivesManyCycles) {
  auto macro = checkpointMacro();
  CheckpointManager mgr(macro, 4);
  for (std::uint32_t k = 1; k <= 10; ++k) {
    const auto state = sampleState(4, k);
    ASSERT_TRUE(mgr.backup(state).committed);
    EXPECT_EQ(mgr.epoch(), k);
    EXPECT_EQ(*mgr.restore(), state);
  }
}

TEST(Checkpoint, RebuiltManagerResumesFromTheMacroContents) {
  // A new manager over the same macro (a reboot) must find the committed
  // checkpoint and continue the epoch sequence.
  auto macro = checkpointMacro();
  const auto state = sampleState(6, 3);
  {
    CheckpointManager mgr(macro, 6);
    ASSERT_TRUE(mgr.backup(state).committed);
    ASSERT_TRUE(mgr.backup(sampleState(6, 4), 2).committed == false);
  }
  CheckpointManager reborn(macro, 6);
  EXPECT_EQ(reborn.epoch(), 1u);
  const auto back = reborn.restore();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, state);
  EXPECT_TRUE(reborn.backup(sampleState(6, 5)).committed);
  EXPECT_EQ(reborn.epoch(), 2u);
}

TEST(Checkpoint, WorksOnAFaultyResilientMacro) {
  // Checkpoints over a macro with injected faults: the resilient word
  // path underneath must keep every round trip intact.
  core::MacroConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.wordBits = 32;
  core::MacroResilience res;
  res.enabled = true;
  res.faults.stuckAtZeroRate = 5e-4;
  res.faults.writeFailureProbability = 0.05;
  res.faults.seed = 12;
  res.retry.maxRetries = 3;
  res.eccEnabled = true;
  res.spareWords = 8;
  core::NvmMacro macro(core::MacroTechnology::kFefet, cfg, res);
  CheckpointManager mgr(macro, 16);
  for (std::uint32_t k = 1; k <= 5; ++k) {
    const auto state = sampleState(16, 40 + k);
    ASSERT_TRUE(mgr.backup(state).committed);
    EXPECT_EQ(*mgr.restore(), state) << "cycle " << k;
  }
  EXPECT_TRUE(macro.report().clean()) << macro.report().summary();
}

TEST(Checkpoint, RejectsBadGeometry) {
  auto macro = checkpointMacro();
  EXPECT_THROW(CheckpointManager(macro, 0), InvalidArgumentError);
  EXPECT_THROW(CheckpointManager(macro, 10000), InvalidArgumentError);
  CheckpointManager mgr(macro, 4);
  EXPECT_THROW(mgr.backup(sampleState(5, 1)), InvalidArgumentError);
}

TEST(Checkpoint, MutationRobustness) {
  // Seeded fuzzing of the macro-bank record reader: each trial commits two
  // epochs on a fresh macro (epoch k in bank k - 1), then XORs a random
  // nonzero mask into one state, checksum or epoch word of bank 0, bank 1
  // or both.  restore() and a rebuilt manager must never throw, and must
  // return the image of the newest undamaged bank — an image that was
  // actually backed up — or nullopt when neither survived.  The checksum
  // mixes the epoch into an FNV-1a hash of every state byte, so any
  // damaged word invalidates its bank.
  constexpr int kStateWords = 8;
  const std::vector<std::vector<std::uint32_t>> saved = {
      sampleState(kStateWords, 1), sampleState(kStateWords, 2)};
  stats::Rng rng(2026);
  int damagedWords[3] = {0, 0, 0};  // state, checksum, epoch
  for (int i = 0; i < 600; ++i) {
    auto macro = checkpointMacro();
    CheckpointManager mgr(macro, kStateWords);
    for (const auto& state : saved) ASSERT_TRUE(mgr.backup(state).committed);

    const int target = i % 3;  // damage bank 0, bank 1, or both
    bool intact[2] = {true, true};
    for (int bank = 0; bank < 2; ++bank) {
      if (target != bank && target != 2) continue;
      const int kind = rng.uniformInt(0, 2);
      const int offset = kind == 0   ? rng.uniformInt(0, kStateWords - 1)
                         : kind == 1 ? kStateWords
                                     : kStateWords + 1;
      std::uint32_t mask = 0;
      if (i % 2 == 0) {
        mask = 1u << rng.uniformInt(0, 31);  // a single bit flip
      }
      while (mask == 0) {
        mask = static_cast<std::uint32_t>(rng.uniformInt(0, 0xFFFF)) << 16 |
               static_cast<std::uint32_t>(rng.uniformInt(0, 0xFFFF));
      }
      const int address = bank * mgr.bankWords() + offset;
      macro.writeWord(address, macro.readWord(address).value ^ mask);
      intact[bank] = false;
      ++damagedWords[kind];
    }

    const int newest = intact[1] ? 1 : intact[0] ? 0 : -1;
    std::optional<std::vector<std::uint32_t>> restored;
    std::optional<std::vector<std::uint32_t>> rebuiltRestored;
    std::uint32_t rebuiltEpoch = 0;
    ASSERT_NO_THROW({
      restored = mgr.restore();
      CheckpointManager rebuilt(macro, kStateWords);
      rebuiltEpoch = rebuilt.epoch();
      rebuiltRestored = rebuilt.restore();
    }) << "input " << i;
    EXPECT_EQ(rebuiltEpoch, static_cast<std::uint32_t>(newest + 1))
        << "input " << i;
    for (const auto* r : {&restored, &rebuiltRestored}) {
      if (newest < 0) {
        EXPECT_FALSE(r->has_value()) << "input " << i;
      } else {
        ASSERT_TRUE(r->has_value()) << "input " << i;
        EXPECT_EQ(**r, saved[static_cast<std::size_t>(newest)])
            << "input " << i;
      }
    }
  }
  // Every word kind of the record was damaged many times.
  for (const int count : damagedWords) EXPECT_GT(count, 100);
}

// --- file-backed double-bank store ---------------------------------------

class FileCheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "file_ckpt_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(FileCheckpointStoreTest, FirstBootHasNothingToRestore) {
  FileCheckpointStore store(dir_, 8);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_FALSE(store.restore().has_value());
}

TEST_F(FileCheckpointStoreTest, SaveRestoreRoundTripAndAlternatingBanks) {
  FileCheckpointStore store(dir_, 8);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    const auto state = sampleState(8, 50 + k);
    ASSERT_TRUE(store.save(state));
    EXPECT_EQ(store.epoch(), k);
    EXPECT_EQ(*store.restore(), state);
  }
  // Both bank files exist (the store alternates) and carry data.
  EXPECT_GT(std::filesystem::file_size(store.bankPath(0)), 0u);
  EXPECT_GT(std::filesystem::file_size(store.bankPath(1)), 0u);
}

TEST_F(FileCheckpointStoreTest, TornNewestBankFallsBackToPrevious) {
  const auto older = sampleState(8, 1);
  std::string newestPath;
  {
    FileCheckpointStore store(dir_, 8);
    ASSERT_TRUE(store.save(older));
    ASSERT_TRUE(store.save(sampleState(8, 2)));
    // Epoch 2 landed in bank 1 (the first save used bank 0).
    newestPath = store.bankPath(1);
  }
  // Tear the newest bank at every truncation length: restore must always
  // return the older committed image, never a torn one.
  const auto full = std::filesystem::file_size(newestPath);
  for (std::uintmax_t keep = 0; keep < full; keep += 7) {
    std::filesystem::resize_file(newestPath, keep);
    FileCheckpointStore reborn(dir_, 8);
    ASSERT_TRUE(reborn.restore().has_value()) << keep;
    EXPECT_EQ(*reborn.restore(), older) << keep;
    EXPECT_EQ(reborn.epoch(), 1u) << keep;
  }
}

TEST_F(FileCheckpointStoreTest, RebuiltStoreResumesTheEpochSequence) {
  const auto state = sampleState(4, 9);
  {
    FileCheckpointStore store(dir_, 4);
    ASSERT_TRUE(store.save(state));
    ASSERT_TRUE(store.save(sampleState(4, 10)));
  }
  FileCheckpointStore reborn(dir_, 4);
  EXPECT_EQ(reborn.epoch(), 2u);
  ASSERT_TRUE(reborn.save(sampleState(4, 11)));
  EXPECT_EQ(reborn.epoch(), 3u);
  EXPECT_EQ(*reborn.restore(), sampleState(4, 11));
}

TEST_F(FileCheckpointStoreTest, StateSizeMismatchIsRejected) {
  FileCheckpointStore store(dir_, 4);
  EXPECT_THROW(store.save(sampleState(5, 1)), InvalidArgumentError);
  ASSERT_TRUE(store.save(sampleState(4, 1)));
  // A store opened with a different geometry does not accept the banks.
  FileCheckpointStore other(dir_, 8);
  EXPECT_EQ(other.epoch(), 0u);
  EXPECT_FALSE(other.restore().has_value());
}

TEST_F(FileCheckpointStoreTest, MutationRobustness) {
  // Seeded fuzzing of the bank-file reader: single-byte mutations and
  // truncations of committed bank files must never throw, and restore()
  // must return the image of the newest bank that survived intact — an
  // image that was actually saved — or nullopt when neither did.  The
  // FNV-1a checksum covers the epoch and every state byte, so any changed
  // byte invalidates its bank.
  const std::vector<std::vector<std::uint32_t>> saved = {sampleState(8, 1),
                                                         sampleState(8, 2)};
  std::string paths[2];
  std::string base[2];
  {
    FileCheckpointStore store(dir_, 8);
    for (const auto& state : saved) ASSERT_TRUE(store.save(state));
    // Epoch k landed in bank k - 1 (the first save used bank 0).
    for (int bank = 0; bank < 2; ++bank) {
      paths[bank] = store.bankPath(bank);
      std::ifstream in(paths[bank], std::ios::binary);
      base[bank].assign(std::istreambuf_iterator<char>(in), {});
      ASSERT_FALSE(base[bank].empty());
    }
  }

  stats::Rng rng(2026);
  int emptyRestores = 0;
  int fallbacks = 0;
  for (int i = 0; i < 600; ++i) {
    const int target = i % 3;  // damage bank 0, bank 1, or both
    bool intact[2] = {true, true};
    for (int bank = 0; bank < 2; ++bank) {
      std::string bytes = base[bank];
      if (target == bank || target == 2) {
        const int size = static_cast<int>(bytes.size());
        if ((i / 3) % 2 == 0) {
          bytes[static_cast<std::size_t>(rng.uniformInt(0, size - 1))] =
              static_cast<char>(rng.uniformInt(0, 255));
        } else {
          bytes.resize(static_cast<std::size_t>(rng.uniformInt(0, size)));
        }
        intact[bank] = bytes == base[bank];
      }
      std::ofstream out(paths[bank], std::ios::binary | std::ios::trunc);
      out << bytes;
    }

    std::optional<std::vector<std::uint32_t>> restored;
    ASSERT_NO_THROW({
      FileCheckpointStore reborn(dir_, 8);
      restored = reborn.restore();
    }) << "input " << i;
    const int newest = intact[1] ? 1 : intact[0] ? 0 : -1;
    if (newest < 0) {
      EXPECT_FALSE(restored.has_value()) << "input " << i;
      ++emptyRestores;
      continue;
    }
    ASSERT_TRUE(restored.has_value()) << "input " << i;
    EXPECT_EQ(*restored, saved[static_cast<std::size_t>(newest)])
        << "input " << i;
    if (newest == 0) ++fallbacks;
  }
  // Nearly every damaged input really changed its bank: both outcomes
  // other than the clean restore are exercised many times.
  EXPECT_GT(emptyRestores, 150);
  EXPECT_GT(fallbacks, 150);
}

}  // namespace
}  // namespace fefet::nvp
