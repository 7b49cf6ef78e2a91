// Tests of the 2xN / NxN FEFET array with the Table 1 bias scheme
// (paper Fig. 7): selective access, unaccessed-cell isolation, sneak
// currents, half-select safety and repeated-access (hammer) disturb, all on
// the circuit-level ArrayNetlist.  The Table 1 property suite is named
// MemoryArray after the paper's memory array, and the hammer suite Stress,
// so their test names are unchanged from the earlier behavioural array
// model they were first written against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/array_netlist.h"
#include "core/bias_scheme.h"
#include "spice/assembler.h"
#include "spice/deck_parser.h"
#include "spice/partition.h"

namespace fefet::core {
namespace {

ArrayNetlistConfig smallArray() {
  ArrayNetlistConfig cfg;  // 2x3 like the paper's Fig. 7
  cfg.rows = 2;
  cfg.cols = 3;
  return cfg;
}

TEST(BiasScheme, MatchesPaperTable1) {
  BiasLevels levels;
  const auto wAcc = biasFor(ArrayOp::kWrite, RowKind::kAccessed, levels);
  EXPECT_DOUBLE_EQ(wAcc.readSelect, 0.0);
  EXPECT_DOUBLE_EQ(wAcc.writeSelect, levels.writeBoost);
  EXPECT_DOUBLE_EQ(wAcc.bitLine, levels.vWrite);
  EXPECT_DOUBLE_EQ(wAcc.senseLine, 0.0);

  const auto wAccZero =
      biasFor(ArrayOp::kWrite, RowKind::kAccessed, levels, false);
  EXPECT_DOUBLE_EQ(wAccZero.bitLine, -levels.vWrite);

  const auto wUn = biasFor(ArrayOp::kWrite, RowKind::kUnaccessed, levels);
  EXPECT_DOUBLE_EQ(wUn.writeSelect, -levels.vdd);

  const auto rAcc = biasFor(ArrayOp::kRead, RowKind::kAccessed, levels);
  EXPECT_DOUBLE_EQ(rAcc.readSelect, levels.vRead);
  EXPECT_DOUBLE_EQ(rAcc.writeSelect, levels.vdd);
  EXPECT_DOUBLE_EQ(rAcc.bitLine, 0.0);

  const auto rUn = biasFor(ArrayOp::kRead, RowKind::kUnaccessed, levels);
  EXPECT_DOUBLE_EQ(rUn.readSelect, 0.0);
  EXPECT_DOUBLE_EQ(rUn.writeSelect, 0.0);

  const auto hold = biasFor(ArrayOp::kHold, RowKind::kAccessed, levels);
  EXPECT_DOUBLE_EQ(hold.readSelect, 0.0);
  EXPECT_DOUBLE_EQ(hold.writeSelect, 0.0);
  EXPECT_DOUBLE_EQ(hold.bitLine, 0.0);
  EXPECT_DOUBLE_EQ(hold.senseLine, 0.0);

  const std::string table = describeBiasTable(levels);
  EXPECT_NE(table.find("Unaccessed"), std::string::npos);
  EXPECT_NE(table.find("-0.68"), std::string::npos);
}

TEST(MemoryArray, PatternSetAndReadBack) {
  ArrayNetlist arr(smallArray());
  const std::vector<std::vector<bool>> pattern = {{true, false, true},
                                                  {false, true, false}};
  arr.setPattern(pattern);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(arr.bitAt(r, c), pattern[r][c]) << r << "," << c;
    }
  }
}

TEST(MemoryArray, WriteEveryCellIndividually) {
  ArrayNetlist arr(smallArray());
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      const auto res = arr.writeBit(r, c, true);
      EXPECT_TRUE(res.ok) << r << "," << c;
    }
  }
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_TRUE(arr.bitAt(r, c));
    }
  }
}

TEST(MemoryArray, WritePreservesNeighbours) {
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  const auto res = arr.writeBit(0, 1, true);
  EXPECT_TRUE(res.ok);
  // All other cells unchanged.
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_TRUE(arr.bitAt(0, 2));
  EXPECT_FALSE(arr.bitAt(1, 0));
  EXPECT_TRUE(arr.bitAt(1, 1));
  EXPECT_FALSE(arr.bitAt(1, 2));
  // Quantified disturb: well below the state separation (~0.22 C/m^2).
  EXPECT_LT(res.maxUnaccessedDisturb, 0.03);
}

TEST(MemoryArray, HalfSelectSafety) {
  // Writing one column must not flip same-row cells on other columns even
  // after repeated writes (their gates see 0 V, inside the window).
  ArrayNetlist arr(smallArray());
  arr.setPattern({{false, true, false}, {false, false, false}});
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(arr.writeBit(0, 0, k % 2 == 0).ok);
  }
  EXPECT_TRUE(arr.bitAt(0, 1));
  EXPECT_FALSE(arr.bitAt(0, 2));
}

TEST(MemoryArray, NegativeSelectIsolatesUnaccessedRows) {
  // Paper §4.1: unaccessed WS at -VDD keeps access transistors off even
  // with the bit line at -V_write.  Writing 0 repeatedly into row 0 must
  // not leak into row 1 of the same column.
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, true, true}, {true, true, true}});
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(arr.writeBit(0, 0, false).ok);
    EXPECT_TRUE(arr.writeBit(0, 0, true).ok);
  }
  EXPECT_TRUE(arr.bitAt(1, 0));
}

TEST(MemoryArray, ReadBackPattern) {
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      const auto res = arr.readBit(r, c);
      EXPECT_TRUE(res.ok) << r << "," << c;
      EXPECT_EQ(res.bitRead, arr.bitAt(r, c));
    }
  }
}

TEST(MemoryArray, ReadCurrentsSeparated) {
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, false, false}, {false, false, false}});
  const double i1 = arr.readBit(0, 0).readCurrent;
  const double i0 = arr.readBit(0, 1).readCurrent;
  EXPECT_GT(i1, 1e-5);
  EXPECT_LT(i0, 1e-7);
}

TEST(MemoryArray, SneakCurrentsEliminated) {
  // Paper: fixed-voltage (virtual ground) sensing eliminates sneak paths.
  // During a read, unaccessed sense lines and read-select lines carry only
  // leakage-level current.
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, true, true}, {true, true, true}});  // worst case
  const auto res = arr.readBit(0, 1);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.maxSneakCurrent, 2e-6);  // vs the ~200 uA read current
}

TEST(MemoryArray, ReadDoesNotDisturbArray) {
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  const auto before = arr.polarizations();
  for (int k = 0; k < 3; ++k) arr.readBit(0, 0);
  const auto after = arr.polarizations();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(after[r][c], before[r][c], 0.05) << r << "," << c;
    }
  }
}

TEST(MemoryArray, HoldIsQuiet) {
  ArrayNetlist arr(smallArray());
  arr.setPattern({{true, false, true}, {false, true, false}});
  const auto res = arr.hold(5e-9);
  EXPECT_TRUE(res.ok);
  EXPECT_LT(res.maxUnaccessedDisturb, 1e-3);
  EXPECT_LT(res.totalEnergy, 1e-15);  // zero standby claim
}

TEST(MemoryArray, RejectsBadIndices) {
  ArrayNetlist arr(smallArray());
  EXPECT_THROW(arr.writeBit(2, 0, true), InvalidArgumentError);
  EXPECT_THROW(arr.readBit(0, 3), InvalidArgumentError);
  EXPECT_THROW(arr.setPattern({{true}}), InvalidArgumentError);
  EXPECT_THROW(arr.bitAt(2, 0), InvalidArgumentError);
  EXPECT_THROW(arr.bitAt(0, -1), InvalidArgumentError);
  ArrayNetlistConfig empty = smallArray();
  empty.rows = 0;
  EXPECT_THROW(ArrayNetlist{empty}, InvalidArgumentError);
  empty.rows = 2;
  empty.cols = 0;
  EXPECT_THROW(ArrayNetlist{empty}, InvalidArgumentError);
}

// Every FEFET and access-MOS field reaches the simulated cells, so the
// state targets always describe the cells that run.  A 10% larger Landau
// alpha moves P_on: a stored '1' must sit at the new target through a
// grounded hold (cells built with the default alpha drifted from 0.2676 to
// 0.2616 C/m^2 against it).
TEST(MemoryArray, AcceptsAnyFefetOrAccessMosField) {
  ArrayNetlistConfig base;
  base.rows = 1;
  base.cols = 2;

  ArrayNetlistConfig alpha = base;
  alpha.fefet.lk.alpha *= 1.1;
  ArrayNetlist arr(alpha);
  arr.setPattern({{true, false}});
  EXPECT_TRUE(arr.hold(2e-9).ok);
  EXPECT_NEAR(arr.polarizations()[0][0], arr.pOn(), 1e-3);
  EXPECT_TRUE(arr.bitAt(0, 0));
  EXPECT_FALSE(arr.bitAt(0, 1));

  // A linear background dielectric on the FE stack and a slower access
  // transistor each change what a write draws from the line drivers.
  const auto writeEnergy = [](const ArrayNetlistConfig& cfg) {
    ArrayNetlist a(cfg);
    const auto res = a.writeBit(0, 0, true);
    EXPECT_TRUE(res.ok);
    return res.totalEnergy;
  };
  const double reference = writeEnergy(base);
  ArrayNetlistConfig epsR = base;
  epsR.fefet.backgroundEpsR = 5.0;
  EXPECT_NE(writeEnergy(epsR), reference);
  ArrayNetlistConfig mobility = base;
  mobility.accessMos.mobility *= 0.9;
  EXPECT_NE(writeEnergy(mobility), reference);
}

// emitArrayDeck is a deck-parser fixture; parsed back it must be the very
// netlist ArrayNetlist builds in code: same nodes, devices, terminals and
// stamp structure, and bit-identical residual and Jacobian at a random
// transient iterate.  8x8 is chosen so that %.9g round-trips the wire
// caps (0.07e-15 * 8 and 0.06e-15 * 8); at sizes where it does not, e.g.
// 3 or 6 rows, the deck's caps differ from the built ones by 1 ulp.
TEST(MemoryArray, DeckFixtureMatchesBuiltNetlist) {
  ArrayNetlistConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  ArrayNetlist arr(cfg);
  spice::Netlist& built = arr.netlist();

  spice::Netlist deck;
  spice::parseDeckString(emitArrayDeck(cfg), deck);
  for (int c = 0; c < cfg.cols; ++c) {
    deck.markBorderNode("wbl" + std::to_string(c));
    deck.markBorderNode("sl" + std::to_string(c));
  }
  // Mirror the constructor's initial state: every cell at P_off with its
  // internal node at psi_off, then a UIC start.
  spice::Simulator deckSim(deck, cfg.newton);
  const BistableStates states = bistableStates(cfg.fefet);
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) {
      const std::string inst =
          "Xc" + std::to_string(r) + "_" + std::to_string(c);
      deck.get<spice::FeCapDevice>(inst + ":Xfe")
          ->setPolarization(states.pOff);
      deckSim.setNodeVoltage(inst + ":int", states.psiOff);
    }
  }
  deckSim.initializeUic();

  ASSERT_EQ(deck.nodeCount(), built.nodeCount());
  ASSERT_EQ(deck.unknownCount(), built.unknownCount());
  ASSERT_EQ(deck.devices().size(), built.devices().size());
  for (std::size_t i = 0; i < built.devices().size(); ++i) {
    const spice::Device& a = *deck.devices()[i];
    const spice::Device& b = *built.devices()[i];
    ASSERT_EQ(typeid(a), typeid(b)) << a.name() << " vs " << b.name();
  }
  const spice::StampPattern& dp = deck.stampPattern();
  const spice::StampPattern& bp = built.stampPattern();
  EXPECT_EQ(dp.rowPtr(), bp.rowPtr());
  EXPECT_EQ(dp.colIdx(), bp.colIdx());
  ASSERT_NE(deck.partition(), nullptr);
  ASSERT_NE(built.partition(), nullptr);
  EXPECT_EQ(deck.partition()->blockCount(), built.partition()->blockCount());
  EXPECT_EQ(deck.partition()->borderSize(), built.partition()->borderSize());

  const int unknowns = built.unknownCount();
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  for (const auto& device : built.devices()) device->seedUnknowns(x);
  std::mt19937_64 rng(20261019u);
  std::uniform_real_distribution<double> dist(-0.25, 0.25);
  for (auto& xi : x) xi += dist(rng);
  const spice::SystemView view(x, built.nodeCount());
  spice::Assembler deckAsm(dp);
  spice::Assembler builtAsm(bp);
  // Both modes: the terminals of every device show in the DC and the
  // transient assembly alike.
  struct Mode {
    bool dc;
    spice::IntegrationMethod method;
  };
  for (const Mode mode : {Mode{true, spice::IntegrationMethod::kBackwardEuler},
                          Mode{false, spice::IntegrationMethod::kBackwardEuler},
                          Mode{false, spice::IntegrationMethod::kTrapezoidal}}) {
    SCOPED_TRACE(mode.dc ? "dc" : "transient");
    const double dt = mode.dc ? 0.0 : 1e-12;
    deckAsm.assemble(deck, view, mode.dc, 0.3e-9, dt, mode.method, 1e-12);
    builtAsm.assemble(built, view, mode.dc, 0.3e-9, dt, mode.method, 1e-12);
    const auto fd = deckAsm.residual();
    const auto fb = builtAsm.residual();
    for (int i = 0; i < unknowns; ++i) {
      ASSERT_EQ(fd[static_cast<std::size_t>(i)],
                fb[static_cast<std::size_t>(i)])
          << "residual row " << i;
    }
    const linalg::CsrView jd = deckAsm.csr();
    const linalg::CsrView jb = builtAsm.csr();
    ASSERT_EQ(jd.n, jb.n);
    for (std::size_t p = 0; p < jb.rowPtr[jb.n]; ++p) {
      ASSERT_EQ(jd.values[p], jb.values[p]) << "Jacobian entry " << p;
    }
  }
}

// Disturb accumulation: single operations leave unaccessed cells with a
// tiny polarization drift; hammering one cell, row or the whole array must
// not walk any cell across the basin boundary.
enum class Hammer {
  kColumn,       // alternating writes to (0, 0); victims share column 0
  kRow,          // alternating writes across row 0; victims in row 1
  kRead,         // repeated reads of (0, 0)
  kCheckerboard  // rewrite the full checkerboard each cycle
};

struct HammerReport {
  int operations = 0;
  bool statesIntact = true;      // every cell holds its expected bit
  double maxDrift = 0.0;         // worst victim |P - P_initial| [C/m^2]
  double maxDriftFraction = 0.0; // maxDrift over the ON/OFF separation
};

// Run `cycles` iterations of `pattern` on a fresh 2x3 array that starts
// with a checkerboard, so every pattern has both '1' and '0' victims.
HammerReport hammer(Hammer pattern, int cycles) {
  const ArrayNetlistConfig cfg = smallArray();
  ArrayNetlist arr(cfg);
  const auto checkerAt = [](int r, int c, int k) {
    return ((r + c + k) % 2) == 0;
  };
  std::vector<std::vector<bool>> expected(cfg.rows,
                                          std::vector<bool>(cfg.cols));
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) expected[r][c] = checkerAt(r, c, 0);
  }
  arr.setPattern(expected);
  const auto initial = arr.polarizations();

  HammerReport report;
  for (int k = 0; k < cycles; ++k) {
    switch (pattern) {
      case Hammer::kColumn:
        arr.writeBit(0, 0, k % 2 == 0);
        expected[0][0] = k % 2 == 0;
        ++report.operations;
        break;
      case Hammer::kRow:
        for (int c = 0; c < cfg.cols; ++c) {
          arr.writeBit(0, c, (k + c) % 2 == 0);
          expected[0][c] = (k + c) % 2 == 0;
          ++report.operations;
        }
        break;
      case Hammer::kRead:
        arr.readBit(0, 0);
        ++report.operations;
        break;
      case Hammer::kCheckerboard:
        for (int r = 0; r < cfg.rows; ++r) {
          for (int c = 0; c < cfg.cols; ++c) {
            arr.writeBit(r, c, checkerAt(r, c, k));
            expected[r][c] = checkerAt(r, c, k);
            ++report.operations;
          }
        }
        break;
    }
  }

  // Victims are the cells the pattern never writes on purpose.
  const auto isVictim = [pattern](int r, int c) {
    switch (pattern) {
      case Hammer::kColumn:
      case Hammer::kRead:
        return !(r == 0 && c == 0);
      case Hammer::kRow:
        return r != 0;
      case Hammer::kCheckerboard:
        return false;
    }
    return true;
  };
  const auto final = arr.polarizations();
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) {
      if (arr.bitAt(r, c) != expected[r][c]) report.statesIntact = false;
      if (isVictim(r, c)) {
        report.maxDrift =
            std::max(report.maxDrift, std::abs(final[r][c] - initial[r][c]));
      }
    }
  }
  const double separation = 0.22;  // ON/OFF polarization distance
  report.maxDriftFraction = report.maxDrift / separation;
  return report;
}

TEST(Stress, ColumnHammerLeavesVictimsIntact) {
  const auto r = hammer(Hammer::kColumn, 8);
  EXPECT_TRUE(r.statesIntact);
  EXPECT_EQ(r.operations, 8);
  EXPECT_LT(r.maxDriftFraction, 0.25);
}

TEST(Stress, RowHammerLeavesOtherRowIntact) {
  const auto r = hammer(Hammer::kRow, 4);
  EXPECT_TRUE(r.statesIntact);
  EXPECT_EQ(r.operations, 4 * 3);
  EXPECT_LT(r.maxDriftFraction, 0.25);
}

TEST(Stress, ReadHammerIsGentlest) {
  const auto read = hammer(Hammer::kRead, 10);
  const auto write = hammer(Hammer::kColumn, 10);
  EXPECT_TRUE(read.statesIntact);
  EXPECT_LE(read.maxDrift, write.maxDrift + 0.01);
}

TEST(Stress, CheckerboardToggleAlwaysLandsCorrectly) {
  const auto r = hammer(Hammer::kCheckerboard, 3);
  EXPECT_TRUE(r.statesIntact);
  EXPECT_EQ(r.operations, 3 * 6);
}

TEST(Stress, DriftSaturatesWithCycles) {
  const auto a = hammer(Hammer::kColumn, 6);
  const auto b = hammer(Hammer::kColumn, 24);
  // 4x the operations must not produce 4x the drift (no runaway walk).
  EXPECT_LT(b.maxDrift, 2.0 * a.maxDrift + 0.01);
  EXPECT_TRUE(b.statesIntact);
}

TEST(Stress, AllPatternsRun) {
  for (Hammer p : {Hammer::kColumn, Hammer::kRow, Hammer::kRead,
                   Hammer::kCheckerboard}) {
    EXPECT_TRUE(hammer(p, 2).statesIntact) << static_cast<int>(p);
  }
}

// Property sweep over array shapes: every corner cell is writable and
// readable without disturbing the opposite corner.
struct Shape {
  int rows, cols;
};
class ArrayShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(ArrayShapes, CornerAccessPreservesOppositeCorner) {
  ArrayNetlistConfig cfg;
  cfg.rows = GetParam().rows;
  cfg.cols = GetParam().cols;
  ArrayNetlist arr(cfg);
  std::vector<std::vector<bool>> pattern(
      cfg.rows, std::vector<bool>(cfg.cols, false));
  pattern[cfg.rows - 1][cfg.cols - 1] = true;
  arr.setPattern(pattern);
  EXPECT_TRUE(arr.writeBit(0, 0, true).ok);
  EXPECT_TRUE(arr.readBit(0, 0).bitRead);
  EXPECT_TRUE(arr.bitAt(cfg.rows - 1, cfg.cols - 1));
  EXPECT_TRUE(arr.readBit(cfg.rows - 1, cfg.cols - 1).bitRead);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ArrayShapes,
                         ::testing::Values(Shape{1, 2}, Shape{2, 2},
                                           Shape{2, 3}, Shape{4, 4}));

}  // namespace
}  // namespace fefet::core
