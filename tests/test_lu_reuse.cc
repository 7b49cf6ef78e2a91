// Tests of the sparse LU structure cache: the linalg-level
// SparseLuFactorizer contracts (bit-identical solves, counter bookkeeping,
// pattern-change and pivot-drift fallbacks) and, on an assembled circuit
// Jacobian, agreement with dense LU while the cache is reused across
// Newton iterations and timesteps, and the cache at work on a 2T cell.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/linalg.h"
#include "core/cell2t.h"
#include "spice/assembler.h"
#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/passives.h"
#include "spice/sources.h"

namespace fefet {
namespace {

linalg::SparseMatrix tridiagonal(std::size_t n, double diag, double off) {
  linalg::SparseMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, diag);
    if (i > 0) m.add(i, i - 1, off);
    if (i + 1 < n) m.add(i, i + 1, off);
  }
  return m;
}

TEST(SparseLuFactorizer, MatchesFreshLuBitForBit) {
  const std::size_t n = 40;
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(1.0 + 0.37 * i);

  linalg::SparseLuFactorizer cached;
  for (int pass = 0; pass < 4; ++pass) {
    // Same pattern every pass, drifting values (like Newton iterations of
    // a fixed circuit); diagonal dominance keeps the pivot order stable.
    const double diag = 4.0 + 0.1 * pass;
    const double off = -1.0 - 0.01 * pass;
    const auto m = tridiagonal(n, diag, off);
    cached.factor(m);
    linalg::SparseLuFactorizer fresh;
    fresh.factor(m);
    const auto xCached = cached.solve(b);
    const auto xFresh = fresh.solve(b);
    ASSERT_EQ(xCached.size(), xFresh.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(xCached[i], xFresh[i]) << "pass " << pass << " x[" << i
                                       << "] differs from fresh LU";
    }
  }
  EXPECT_EQ(cached.fullFactorizations(), 1);
  EXPECT_EQ(cached.numericRefactorizations(), 3);
  EXPECT_EQ(cached.pivotFallbacks(), 0);
}

TEST(SparseLuFactorizer, PatternChangeRunsFullFactorization) {
  linalg::SparseLuFactorizer cached;
  cached.factor(tridiagonal(10, 4.0, -1.0));
  EXPECT_EQ(cached.fullFactorizations(), 1);

  auto wider = tridiagonal(10, 4.0, -1.0);
  wider.add(0, 9, 0.5);  // new structural entry -> cache cannot be reused
  cached.factor(wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 0);
  EXPECT_EQ(cached.pivotFallbacks(), 0);

  // The widened pattern becomes the new cache; repeating it reuses it.
  cached.factor(wider);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 1);
}

linalg::SparseMatrix twoByTwo(double a00) {
  linalg::SparseMatrix m(2);
  m.add(0, 0, a00);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  return m;
}

TEST(SparseLuFactorizer, PivotDriftFallsBackToFullFactorization) {
  // Column 0 is eliminated first.  Its diagonal 0.05 is below the 0.1
  // threshold times the column maximum (1.0), so the rule pivots on row 1.
  linalg::SparseLuFactorizer cached;
  cached.factor(twoByTwo(0.05));
  EXPECT_EQ(cached.fullFactorizations(), 1);

  // Same pattern, but the diagonal has grown past the threshold: the rule
  // now keeps the diagonal, the cached pivot sequence is stale and the
  // factorizer must rebuild rather than reuse.
  const auto drifted = twoByTwo(0.5);
  cached.factor(drifted);
  EXPECT_EQ(cached.pivotFallbacks(), 1);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  const auto x = cached.solve(std::vector<double>{6.0, 3.0});
  const auto back = drifted.multiply(x);
  EXPECT_NEAR(back[0], 6.0, 1e-12);
  EXPECT_NEAR(back[1], 3.0, 1e-12);

  // A diagonal that moves but stays above the threshold keeps the cache,
  // although pure partial pivoting would have swapped to row 1 (0.3 < 1).
  cached.factor(twoByTwo(0.3));
  EXPECT_EQ(cached.pivotFallbacks(), 1);
  EXPECT_EQ(cached.fullFactorizations(), 2);
  EXPECT_EQ(cached.numericRefactorizations(), 1);
}

TEST(SparseLuFactorizer, OrderingKeepsArrowheadFillFree) {
  // Row/column 0 is a hub coupled to every other unknown.  Eliminated
  // first, as natural order would, it fills the whole trailing matrix
  // (n^2 entries); minimum degree eliminates the leaves first and the hub
  // last, so the factor keeps exactly the matrix's 3n - 2 entries.
  constexpr std::size_t n = 50;
  linalg::SparseMatrix m(n);
  linalg::DenseMatrix dense(n, n);
  const auto set = [&](std::size_t r, std::size_t c, double v) {
    m.add(r, c, v);
    dense.at(r, c) = v;
  };
  set(0, 0, 100.0);
  for (std::size_t i = 1; i < n; ++i) {
    set(i, i, 4.0 + 0.01 * i);
    set(0, i, 1.0);
    set(i, 0, -1.0);
  }
  linalg::SparseLuFactorizer lu;
  lu.factor(m);
  EXPECT_EQ(lu.nonZeros(), 3 * n - 2);

  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::cos(0.3 * i);
  const auto x = lu.solve(b);
  linalg::DenseLuFactorizer denseLu;
  denseLu.factor(dense);
  std::vector<double> ref(n);
  denseLu.solve(b, ref);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], ref[i], 1e-12);
}

TEST(SparseLuFactorizer, StillDetectsSingularMatrices) {
  linalg::SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(1, 0, 1.0);  // column 1 empty -> singular
  linalg::SparseLuFactorizer cached;
  EXPECT_THROW(cached.factor(m), NumericalError);
}

TEST(SparseLuFactorizer, RejectsMalformedCsrViews) {
  const std::vector<std::size_t> rowPtr{0, 1, 2};
  const std::vector<std::size_t> colIdx{0, 1};
  const std::vector<double> values{2.0, 3.0};
  linalg::SparseLuFactorizer lu;
  lu.factor(linalg::CsrView{2, rowPtr, colIdx, values});
  // Same (cached) pattern but too few values.
  EXPECT_THROW(lu.factor(linalg::CsrView{2, rowPtr, colIdx,
                                         std::span(values).first(1)}),
               InvalidArgumentError);
  // Column index outside the matrix.
  const std::vector<std::size_t> badCols{0, 2};
  EXPECT_THROW(lu.factor(linalg::CsrView{2, rowPtr, badCols, values}),
               InvalidArgumentError);
}

// A long RC ladder through Newton, which runs SparseLuFactorizer inside
// the Assembler.  At every timestep the assembled Jacobian is also factored
// by a standalone factorizer (structure reuse across steps) and checked
// against dense LU on the densified matrix.
TEST(LuReuse, LadderJacobianSolvesMatchDenseLu) {
  using namespace spice;
  Netlist n;
  constexpr int kStages = 200;
  n.add<VoltageSource>("V1", n.node("s0"), n.ground(),
                       shapes::pulse(0.0, 1.0, 0.0, 50e-12, 1.0, 50e-12));
  for (int i = 0; i < kStages; ++i) {
    const auto a = n.node("s" + std::to_string(i));
    const auto b = n.node("s" + std::to_string(i + 1));
    n.add<Resistor>("R" + std::to_string(i), a, b, 100.0);
    n.add<Capacitor>("C" + std::to_string(i), b, n.ground(), 1e-15);
  }
  NewtonSolver newton(n, NewtonOptions{});
  const auto size = static_cast<std::size_t>(n.unknownCount());
  std::vector<double> x(size, 0.0);
  for (const auto& device : n.devices()) device->seedUnknowns(x);

  Assembler jacobian(n.stampPattern());
  linalg::SparseLuFactorizer lu;
  linalg::DenseLuFactorizer denseLu;
  std::vector<double> xd(size);
  constexpr double kDt = 20e-12;
  for (int step = 1; step <= 20; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const double time = step * kDt;
    ASSERT_TRUE(newton.solve(x, /*dc=*/false, time, kDt,
                             IntegrationMethod::kBackwardEuler)
                    .converged);

    jacobian.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/false, time,
                      kDt, IntegrationMethod::kBackwardEuler, 1e-12);
    const linalg::CsrView csr = jacobian.csr();
    lu.factor(csr);
    const auto rhs = jacobian.residual();
    const auto xs = lu.solve(rhs);

    linalg::DenseMatrix dense(size, size);
    for (std::size_t r = 0; r < size; ++r) {
      for (std::size_t p = csr.rowPtr[r]; p < csr.rowPtr[r + 1]; ++p) {
        dense.at(r, csr.colIdx[p]) = csr.values[p];
      }
    }
    denseLu.factor(dense);
    denseLu.solve(rhs, xd);
    const double scale = linalg::normInf(xd);
    ASSERT_GT(scale, 0.0);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_LE(std::abs(xs[i] - xd[i]), 1e-12 * scale) << "x[" << i << "]";
    }
  }

  // Both caches were exercised: the Newton solver's across iterations and
  // timesteps, the standalone one across timesteps.
  EXPECT_GT(newton.sparseFactorizer().numericRefactorizations(), 10);
  EXPECT_GT(lu.numericRefactorizations(), 10);
}

// A 2T-cell write (11 unknowns) runs Newton through the same sparse LU as
// an array: one full factorization, then numeric refactorizations on the
// cached structure for every later iteration and timestep.
TEST(LuReuse, Cell2TWriteReusesTheSparseFactorization) {
  core::Cell2T cell(core::Cell2TConfig{});
  cell.setStoredBit(false);
  ASSERT_TRUE(cell.write(true, 1e-9).bitAfter);
  const auto& lu = cell.simulator().newton().sparseFactorizer();
  EXPECT_EQ(lu.fullFactorizations(), 1);
  EXPECT_GT(lu.numericRefactorizations(), 0);
  EXPECT_EQ(lu.pivotFallbacks(), 0);
}

}  // namespace
}  // namespace fefet
