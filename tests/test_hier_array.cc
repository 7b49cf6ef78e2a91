// Tests of the hierarchical array stack end to end: the circuit-level
// ArrayNetlist, the BBD partition built at freeze (one block per word-line
// row, shared column lines on the border), hierarchical-vs-flat waveform
// parity within the documented tolerance (DESIGN.md §6.7), the hold-bias
// macromodel collapse, and the parallel per-block factorization path (the
// HierArray suite runs under TSan in scripts/check.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/linalg.h"
#include "core/array_netlist.h"
#include "spice/assembler.h"
#include "spice/hier_engine.h"
#include "spice/partition.h"

namespace fefet {
namespace {

using core::ArrayNetlist;
using core::ArrayNetlistConfig;

ArrayNetlistConfig makeConfig(int rows, int cols, bool hierarchical,
                              int threads = 1) {
  ArrayNetlistConfig config;
  config.rows = rows;
  config.cols = cols;
  config.newton.useHierarchicalSolve = hierarchical;
  config.newton.hierThreads = threads;
  return config;
}

TEST(HierArray, PartitionInvariants) {
  ArrayNetlist array(makeConfig(8, 4, /*hierarchical=*/true));
  const spice::BbdPartition* partition = array.netlist().partition();
  ASSERT_NE(partition, nullptr);
  // One diagonal block per word-line row; the border carries the shared
  // column lines (WBL + SL nodes) plus their promoted source aux rows.
  EXPECT_EQ(partition->blockCount(), 8);
  EXPECT_EQ(partition->borderSize(), 4 * 4);
  // Block content: per cell the floating gate, internal node and FE
  // polarization aux (3 x cols), plus WS/RS nodes and their source aux.
  EXPECT_EQ(partition->maxBlockRows(), 3 * 4 + 4);
  const spice::HierEngine* hier = array.simulator().newton().hier();
  ASSERT_NE(hier, nullptr);
  EXPECT_EQ(hier->blockCount(), 8);
}

TEST(HierArray, FlatArrayHasNoPartitionEngine) {
  ArrayNetlist array(makeConfig(2, 2, /*hierarchical=*/false));
  EXPECT_NE(array.netlist().partition(), nullptr);  // built, just unused
  EXPECT_EQ(array.simulator().newton().hier(), nullptr);
}

TEST(HierArray, HierMatchesFlatWriteRead) {
  // The parity contract of DESIGN.md §6.7: identical op sequence on the
  // hierarchical and flat engines; converged states agree within the
  // Newton tolerances (the hierarchical update is an inexact-Newton step
  // with an exact residual, not a different model).
  ArrayNetlist hier(makeConfig(4, 4, /*hierarchical=*/true));
  ArrayNetlist flat(makeConfig(4, 4, /*hierarchical=*/false));

  const auto runOps = [](ArrayNetlist& array) {
    array.writeBit(1, 2, true);
    array.writeBit(3, 0, true);
    array.hold(0.2e-9);
    return array.readBit(1, 2);
  };
  const auto readHier = runOps(hier);
  const auto readFlat = runOps(flat);

  EXPECT_TRUE(readHier.ok);
  EXPECT_TRUE(readFlat.ok);
  EXPECT_TRUE(readHier.bitRead);

  // Polarization parity: documented tolerance 1e-3 of the memory window.
  const double window = std::abs(hier.pOn() - hier.pOff());
  const auto pHier = hier.polarizations();
  const auto pFlat = flat.polarizations();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(pHier[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(c)],
                  pFlat[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(c)],
                  1e-3 * window)
          << "cell " << r << "," << c;
      EXPECT_EQ(hier.bitAt(r, c), flat.bitAt(r, c));
    }
  }
  // Read-current parity: 0.5% relative.
  EXPECT_NEAR(readHier.readCurrent, readFlat.readCurrent,
              5e-3 * std::abs(readFlat.readCurrent));
}

TEST(HierArray, HoldCollapsesQuietBlocks) {
  ArrayNetlist array(makeConfig(4, 4, /*hierarchical=*/true));
  array.hold(1e-9);
  const spice::HierEngine* hier = array.simulator().newton().hier();
  ASSERT_NE(hier, nullptr);
  const linalg::SchurStats& stats = hier->stats();
  // At hold bias every row sits at the same quiet operating point: every
  // block collapses once dt stabilizes, and the bulk of the evaluations
  // skip the block refactorization.  (The final transient step is clamped
  // to land on t_end, so dt changes and the blocks re-expand right at the
  // end — collapse/expand transitions, not a steady collapsed count, are
  // the observable invariant.)
  EXPECT_GE(stats.collapses, hier->blockCount());
  EXPECT_GE(stats.expands, hier->blockCount());
  EXPECT_GT(stats.blockFactorSkips, 10L * hier->blockCount());
  // The macromodel is the point: far fewer factorizations than the flat
  // refactor-every-eval schedule (solves x blocks).
  EXPECT_LT(stats.blockFactorizations,
            stats.solves * hier->blockCount() / 2);
  // The quiet border reuses the Schur factor too.
  EXPECT_GT(stats.schurReuses, 0);

  // A write keeps the engine numerically healthy after collapse cycling.
  const auto write = array.writeBit(2, 1, true);
  EXPECT_TRUE(write.ok);
  EXPECT_TRUE(array.bitAt(2, 1));
}

TEST(HierArray, HalfSelectDisturbStaysBounded) {
  ArrayNetlist array(makeConfig(4, 4, /*hierarchical=*/true));
  std::vector<std::vector<bool>> pattern(4, std::vector<bool>(4, false));
  pattern[0][0] = true;
  pattern[3][3] = true;
  array.setPattern(pattern);
  const auto result = array.writeBit(1, 1, true);
  EXPECT_TRUE(result.ok);
  // Half-selected cells must stay well inside the window (sneak-path-free
  // write per Table 1): disturb under 5% of the memory window.
  const double window = std::abs(array.pOn() - array.pOff());
  EXPECT_LT(result.maxUnaccessedDisturb, 0.05 * window);
  EXPECT_FALSE(array.bitAt(0, 1));
  EXPECT_FALSE(array.bitAt(1, 0));
  EXPECT_TRUE(array.bitAt(0, 0));
  EXPECT_TRUE(array.bitAt(3, 3));
}

/// Parallel per-block factorization through a real ThreadPool (TSan
/// coverage for the HierEngine latch + SchurSolver job bodies).
TEST(HierArray, ParallelBlockFactorization) {
  ArrayNetlist parallel(makeConfig(4, 4, /*hierarchical=*/true,
                                   /*threads=*/4));
  ArrayNetlist serial(makeConfig(4, 4, /*hierarchical=*/true,
                                 /*threads=*/1));
  const auto wp = parallel.writeBit(0, 3, true);
  const auto ws = serial.writeBit(0, 3, true);
  EXPECT_TRUE(wp.ok);
  EXPECT_TRUE(ws.ok);
  const double window = std::abs(parallel.pOn() - parallel.pOff());
  const auto pp = parallel.polarizations();
  const auto ps = serial.polarizations();
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(pp[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                  ps[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                  1e-3 * window);
    }
  }
}

/// Fill regression for the flat sparse LU on the array Jacobians.  On the
/// full Jacobian (every line node and driver current included), the
/// minimum-degree factor holds 1,504 (8x8) and 22,912 (32x32) entries of
/// L + U.  Natural column order gives 1,696 and 25,984 with the same pivot
/// rule, and 1,632 and 24,960 with pure partial pivoting; the bounds sit
/// about 3% above the ordered fill, below all of those, so a lost or
/// weakened ordering fails here.  The full Jacobian goes through a
/// standalone factorizer: Newton's solve condenses the grounded line
/// drivers out, which leaves three free unknowns per cell (floating gate,
/// internal node, polarization) coupled only within the cell.  Its factor
/// is therefore at most a dense 3x3 per cell, and reaches that bound
/// (576 and 9,216 entries); a line left unpinned would couple the cells
/// and fill across them.
void expectFlatFillBelow(int size, std::size_t fullBound) {
  SCOPED_TRACE(std::to_string(size) + "x" + std::to_string(size));
  ArrayNetlist array(makeConfig(size, size, /*hierarchical=*/false));
  array.hold(10e-12);  // a short transient: assembles and factors flat
  spice::Netlist& netlist = array.netlist();
  const auto unknowns = static_cast<std::size_t>(netlist.unknownCount());

  std::vector<double> x = array.simulator().solution();
  spice::Assembler assembler(netlist.stampPattern());
  assembler.assemble(netlist, spice::SystemView(x, netlist.nodeCount()),
                     /*dc=*/false, 10e-12, 1e-12,
                     spice::IntegrationMethod::kTrapezoidal, 1e-12);
  linalg::SparseLuFactorizer full;
  full.factor(assembler.csr());
  EXPECT_LT(full.nonZeros(), fullBound);
  EXPECT_GT(full.nonZeros(), unknowns);
  std::vector<double> dx;
  assembler.solveForUpdate(dx);  // builds the condensation map

  const auto cells = static_cast<std::size_t>(size * size);
  const auto& lu = array.simulator().newton().sparseFactorizer();
  ASSERT_GE(lu.fullFactorizations(), 1);
  EXPECT_EQ(assembler.freeUnknowns().size(), 3 * cells);
  EXPECT_LE(lu.nonZeros(), 9 * cells);
  EXPECT_GT(lu.nonZeros(), 3 * cells);
}

TEST(ArrayLuFill, FlatFactorFillStaysNearLinear) {
  expectFlatFillBelow(8, 1550);
  expectFlatFillBelow(32, 23600);
}

}  // namespace
}  // namespace fefet
