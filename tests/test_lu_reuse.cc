// Tests of the sparse LU structure cache: the linalg-level
// SparseLuFactorizer contracts (bit-identical solves, counter bookkeeping,
// pattern-change and pivot-drift fallbacks) and, on an assembled circuit
// Jacobian, agreement with dense LU while the cache is reused across
// Newton iterations and timesteps, and the cache at work on a 2T cell and
// an 8x8 array.  The Assembler's condensed solve (grounded sources pin
// their nodes; only the free unknowns are factored) must agree with a
// full-system solve, and its factor must be the free part of the full
// factor, pivot for pivot.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/linalg.h"
#include "common/stats.h"
#include "core/array_netlist.h"
#include "core/cell2t.h"
#include "spice/assembler.h"
#include "spice/netlist.h"
#include "spice/newton.h"
#include "spice/mosfet_device.h"
#include "spice/passives.h"
#include "spice/simulator.h"
#include "spice/sources.h"
#include "xtor/mosfet_model.h"

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

// ---------------------------------------------------------------------------
// The compiled refactorization program on the Jacobian patterns Newton
// actually factors: the 8x8 array (256 unknowns) and the 2T cell (11).

/// A circuit Jacobian with its own storage, assembled at the netlist's
/// current solution.
struct Jacobian {
  std::size_t n = 0;
  std::vector<std::size_t> rowPtr;
  std::vector<std::size_t> colIdx;
  std::vector<double> values;

  linalg::CsrView view(std::span<const double> v) const {
    return {n, rowPtr, colIdx, v};
  }
  linalg::CsrView view() const { return view(values); }
};

Jacobian assembledJacobian(spice::Simulator& sim) {
  using namespace spice;
  Netlist& n = sim.netlist();
  std::vector<double> x = sim.solution();
  Assembler assembler(n.stampPattern());
  assembler.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/false, 1e-10,
                     1e-12, IntegrationMethod::kTrapezoidal, 1e-12);
  const linalg::CsrView csr = assembler.csr();
  return {csr.n,
          {csr.rowPtr.begin(), csr.rowPtr.end()},
          {csr.colIdx.begin(), csr.colIdx.end()},
          {csr.values.begin(), csr.values.end()}};
}

Jacobian array8Jacobian() {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = 8;
  core::ArrayNetlist array(config);
  array.hold(0.2e-9);
  return assembledJacobian(array.simulator());
}

Jacobian cellJacobian() {
  core::Cell2T cell(core::Cell2TConfig{});
  cell.setStoredBit(true);
  cell.hold(0.2e-9);
  return assembledJacobian(cell.simulator());
}

std::vector<double> rhsFor(std::size_t n) {
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(0.7 + 0.31 * i);
  return b;
}

/// Bitwise equality of two solutions; returns the first differing index
/// or n.
std::size_t firstBitDifference(const std::vector<double>& a,
                               const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return i;
    }
  }
  return a.size();
}

/// 60 random perturbations of every value (up to +-5%): the cached
/// factorizer (through refactor(), the Assembler's call, and factor()
/// alternately) must solve bit for bit like a fresh one, with the program
/// reused.
void expectRefactorsMatchFreshLu(const Jacobian& jac, std::uint64_t seed) {
  constexpr int kDraws = 60;
  stats::Rng rng(seed);
  const std::vector<double> b = rhsFor(jac.n);
  linalg::SparseLuFactorizer cached;
  cached.factor(jac.view());
  std::vector<double> values(jac.values.size());
  for (int draw = 0; draw < kDraws; ++draw) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = jac.values[i] * (1.0 + rng.uniform(-0.05, 0.05));
    }
    if (draw % 2 == 0) {
      cached.refactor(values);
    } else {
      cached.factor(jac.view(values));
    }
    linalg::SparseLuFactorizer fresh;
    fresh.factor(jac.view(values));
    EXPECT_EQ(cached.nonZeros(), fresh.nonZeros()) << "draw " << draw;
    const auto xCached = cached.solve(b);
    const auto xFresh = fresh.solve(b);
    EXPECT_EQ(firstBitDifference(xCached, xFresh), jac.n)
        << "draw " << draw << ": refactored solve differs from fresh LU";
  }
  EXPECT_GE(cached.numericRefactorizations(), 50);
  EXPECT_EQ(cached.fullFactorizations(), 1 + cached.pivotFallbacks());
}

TEST(CompiledRefactor, MatchesFreshLuOnPerturbedArray8Jacobians) {
  const Jacobian jac = array8Jacobian();
  ASSERT_EQ(jac.n, 256u);
  expectRefactorsMatchFreshLu(jac, 20261019);
}

TEST(CompiledRefactor, MatchesFreshLuOnPerturbedCellJacobians) {
  const Jacobian jac = cellJacobian();
  ASSERT_EQ(jac.n, 11u);
  expectRefactorsMatchFreshLu(jac, 7);
}

TEST(CompiledRefactor, MatchesFreshLuOnPerturbedRandomPatterns) {
  // Unsymmetric random patterns dense enough that some U entries hold a
  // CSR value and receive updates within their step, which the circuit
  // patterns above do not produce.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    stats::Rng rng(seed);
    Jacobian jac;
    jac.n = 40;
    jac.rowPtr.push_back(0);
    for (std::size_t r = 0; r < jac.n; ++r) {
      for (std::size_t c = 0; c < jac.n; ++c) {
        if (c == r || rng.bernoulli(0.12)) {
          jac.colIdx.push_back(c);
          jac.values.push_back(c == r ? rng.uniform(2.0, 4.0)
                                      : rng.uniform(-1.0, 1.0));
        }
      }
      jac.rowPtr.push_back(jac.colIdx.size());
    }
    expectRefactorsMatchFreshLu(jac, 100 + seed);
  }
}

TEST(CompiledRefactor, ForcedPivotDriftTakesTheCountedFallback) {
  // Shrinking one row by 1e-8 makes every other candidate of a column it
  // pivots outweigh it, so the cached pivot sequence must be rebuilt.
  // Some row of the cell Jacobian pivots a column with other candidates.
  const Jacobian jac = cellJacobian();
  const std::vector<double> b = rhsFor(jac.n);
  linalg::SparseLuFactorizer cached;
  cached.factor(jac.view());
  bool drifted = false;
  for (std::size_t r = 0; r < jac.n && !drifted; ++r) {
    std::vector<double> values = jac.values;
    for (std::size_t p = jac.rowPtr[r]; p < jac.rowPtr[r + 1]; ++p) {
      values[p] *= 1e-8;
    }
    const long fallbacks = cached.pivotFallbacks();
    const long full = cached.fullFactorizations();
    const long refactors = cached.numericRefactorizations();
    cached.refactor(values);
    if (cached.pivotFallbacks() == fallbacks) {
      EXPECT_EQ(cached.numericRefactorizations(), refactors + 1);
      cached.refactor(jac.values);  // back to the original pivots
      continue;
    }
    drifted = true;
    EXPECT_EQ(cached.pivotFallbacks(), fallbacks + 1) << "row " << r;
    EXPECT_EQ(cached.fullFactorizations(), full + 1) << "row " << r;
    EXPECT_EQ(cached.numericRefactorizations(), refactors) << "row " << r;
    linalg::SparseLuFactorizer fresh;
    fresh.factor(jac.view(values));
    EXPECT_EQ(firstBitDifference(cached.solve(b), fresh.solve(b)), jac.n);
  }
  EXPECT_TRUE(drifted) << "no row scaling moved a pivot";
}

TEST(CompiledRefactor, SingularColumnThrowsNamingTheStep) {
  const Jacobian jac = array8Jacobian();
  const std::vector<double> b = rhsFor(jac.n);
  std::vector<double> singular = jac.values;
  const std::size_t column = 37;
  for (std::size_t p = 0; p < jac.colIdx.size(); ++p) {
    if (jac.colIdx[p] == column) singular[p] = 0.0;
  }
  const auto expectSingular = [&](const auto& factorIt) {
    try {
      factorIt();
      ADD_FAILURE() << "zero column factored";
    } catch (const NumericalError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("singular matrix at elimination step "),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(" of 256"), std::string::npos) << what;
    }
  };
  // On the compiled program (refactor) and on a first factorization.
  linalg::SparseLuFactorizer cached;
  cached.factor(jac.view());
  expectSingular([&] { cached.refactor(singular); });
  EXPECT_FALSE(cached.factored());
  linalg::SparseLuFactorizer first;
  expectSingular([&] { first.factor(jac.view(singular)); });

  // The throw leaves the working column clean: the next refactorization
  // still matches a fresh factorization bit for bit.
  cached.refactor(jac.values);
  linalg::SparseLuFactorizer fresh;
  fresh.factor(jac.view());
  EXPECT_EQ(firstBitDifference(cached.solve(b), fresh.solve(b)), jac.n);
  EXPECT_EQ(cached.fullFactorizations(), 1);
}

TEST(CompiledRefactor, ChangedPatternIsReanalysed) {
  const Jacobian cell = cellJacobian();
  const Jacobian array = array8Jacobian();
  const std::vector<double> bCell = rhsFor(cell.n);
  const std::vector<double> bArray = rhsFor(array.n);
  linalg::SparseLuFactorizer lu;
  lu.factor(cell.view());
  lu.factor(array.view());
  EXPECT_EQ(lu.fullFactorizations(), 2);
  linalg::SparseLuFactorizer freshArray;
  freshArray.factor(array.view());
  EXPECT_EQ(firstBitDifference(lu.solve(bArray), freshArray.solve(bArray)),
            array.n);

  // Same size and entry count, another pattern: the transpose (regular
  // when the cell Jacobian is; the MOSFETs make the pattern unsymmetric).
  Jacobian moved{cell.n, std::vector<std::size_t>(cell.n + 1, 0), {}, {}};
  for (const std::size_t c : cell.colIdx) ++moved.rowPtr[c + 1];
  for (std::size_t c = 0; c < cell.n; ++c) {
    moved.rowPtr[c + 1] += moved.rowPtr[c];
  }
  moved.colIdx.resize(cell.colIdx.size());
  moved.values.resize(cell.values.size());
  std::vector<std::size_t> next(moved.rowPtr.begin(), moved.rowPtr.end() - 1);
  for (std::size_t r = 0; r < cell.n; ++r) {
    for (std::size_t p = cell.rowPtr[r]; p < cell.rowPtr[r + 1]; ++p) {
      const std::size_t dst = next[cell.colIdx[p]]++;
      moved.colIdx[dst] = r;
      moved.values[dst] = cell.values[p];
    }
  }
  ASSERT_NE(moved.colIdx, cell.colIdx);
  lu.factor(cell.view());
  lu.factor(moved.view());
  EXPECT_EQ(lu.fullFactorizations(), 4);
  EXPECT_EQ(lu.numericRefactorizations(), 0);
  linalg::SparseLuFactorizer freshMoved;
  freshMoved.factor(moved.view());
  EXPECT_EQ(firstBitDifference(lu.solve(bCell), freshMoved.solve(bCell)),
            cell.n);
}

TEST(CompiledRefactor, RefactorNeedsAnEarlierFactor) {
  linalg::SparseLuFactorizer lu;
  const std::vector<double> values{1.0};
  EXPECT_THROW(lu.refactor(values), InvalidArgumentError);
}

// refactor() of values bitwise equal to those of the refactor() that
// computed the current factor keeps it and counts a reuse, and its solves
// stay bit-identical to a fresh factorization.  Any bit of difference
// refactors: one ulp on one entry, and -0.0 against +0.0.
TEST(CompiledRefactor, BitwiseEqualValuesReuseTheFactor) {
  const Jacobian jac = cellJacobian();
  const std::vector<double> b = rhsFor(jac.n);
  linalg::SparseLuFactorizer lu;
  lu.factor(jac.view());
  lu.refactor(jac.values);  // factor() keeps no values to compare with
  EXPECT_EQ(lu.factorReuses(), 0);
  EXPECT_EQ(lu.numericRefactorizations(), 1);
  const std::vector<double> same = jac.values;  // equal bits, other storage
  lu.refactor(same);
  EXPECT_EQ(lu.factorReuses(), 1);
  EXPECT_EQ(lu.numericRefactorizations(), 1);
  EXPECT_EQ(lu.fullFactorizations(), 1);
  linalg::SparseLuFactorizer fresh;
  fresh.factor(jac.view());
  EXPECT_EQ(firstBitDifference(lu.solve(b), fresh.solve(b)), jac.n);

  std::vector<double> ulp = jac.values;
  ulp[0] = std::nextafter(ulp[0], INFINITY);
  lu.refactor(ulp);
  EXPECT_EQ(lu.factorReuses(), 1);
  EXPECT_EQ(lu.numericRefactorizations(), 2);
  linalg::SparseLuFactorizer freshUlp;
  freshUlp.factor(jac.view(ulp));
  EXPECT_EQ(firstBitDifference(lu.solve(b), freshUlp.solve(b)), jac.n);
  lu.refactor(ulp);
  EXPECT_EQ(lu.factorReuses(), 2);

  // A zero entry flips sign: refactored (numerically, or in full if the
  // pivots moved), never reused.
  std::size_t offDiagonal = 0;
  while (jac.colIdx[offDiagonal] == 0) ++offDiagonal;  // first off column 0
  std::vector<double> plusZero = jac.values;
  plusZero[offDiagonal] = 0.0;
  std::vector<double> minusZero = plusZero;
  minusZero[offDiagonal] = -0.0;
  lu.refactor(plusZero);
  const long reuses = lu.factorReuses();
  const long factorizations =
      lu.numericRefactorizations() + lu.fullFactorizations();
  lu.refactor(minusZero);
  EXPECT_EQ(lu.factorReuses(), reuses);
  EXPECT_EQ(lu.numericRefactorizations() + lu.fullFactorizations(),
            factorizations + 1);

  // factor() always factors, even values equal to the current factor's,
  // and the next refactor() of them factors again.
  lu.factor(jac.view(minusZero));
  lu.refactor(minusZero);
  EXPECT_EQ(lu.factorReuses(), reuses);
  EXPECT_EQ(lu.numericRefactorizations() + lu.fullFactorizations(),
            factorizations + 3);
}

// A refactor() that throws leaves no factor to reuse: the same values
// throw again rather than pass as a reuse of the abandoned factor.
TEST(CompiledRefactor, SingularValuesAreNeverReused) {
  const Jacobian jac = cellJacobian();
  std::vector<double> singular = jac.values;
  for (std::size_t p = jac.rowPtr[0]; p < jac.rowPtr[1]; ++p) {
    singular[p] = 0.0;
  }
  linalg::SparseLuFactorizer lu;
  lu.factor(jac.view());
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  EXPECT_THROW(lu.refactor(singular), NumericalError);
  EXPECT_EQ(lu.factorReuses(), 0);
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
  // timesteps, the standalone one across timesteps.  On this linear ladder
  // at a fixed dt the Newton solver's J_FF repeats bit for bit, so its
  // refactor() calls may all keep the factor: count those reuses too.
  const auto& solverLu = newton.sparseFactorizer();
  EXPECT_GT(solverLu.numericRefactorizations() + solverLu.factorReuses(), 10);
  EXPECT_GT(lu.numericRefactorizations() + lu.factorReuses(), 10);
}

// A 2T-cell write (11 unknowns, 3 of them free) runs Newton through the
// same sparse LU as an array: one full factorization, then numeric
// refactorizations on the cached structure for every later iteration and
// timestep.
TEST(LuReuse, Cell2TWriteReusesTheSparseFactorization) {
  core::Cell2T cell(core::Cell2TConfig{});
  cell.setStoredBit(false);
  ASSERT_TRUE(cell.write(true, 1e-9).bitAfter);
  const auto& lu = cell.simulator().newton().sparseFactorizer();
  EXPECT_EQ(lu.fullFactorizations(), 1);
  EXPECT_GT(lu.numericRefactorizations(), 0);
  EXPECT_EQ(lu.pivotFallbacks(), 0);
}

// The 8x8 array through a write, a read and a hold: one full factorization
// of the condensed Jacobian, never a pivot fallback.
TEST(LuReuse, Array8WriteReadHoldReusesTheSparseFactorization) {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = 8;
  core::ArrayNetlist array(config);
  ASSERT_TRUE(array.writeBit(2, 5, true).ok);
  EXPECT_TRUE(array.readBit(2, 5).bitRead);
  array.hold(1e-9);
  const auto& lu = array.simulator().newton().sparseFactorizer();
  EXPECT_EQ(lu.fullFactorizations(), 1);
  EXPECT_GT(lu.numericRefactorizations(), 100);
  EXPECT_EQ(lu.pivotFallbacks(), 0);
}

// ---------------------------------------------------------------------------
// Condensed solve: Assembler::solveForUpdate against the full system
// factored by a standalone SparseLuFactorizer.

/// How a random circuit drives its nodes.
enum class Drive {
  kGrounded,  ///< grounded sources on some nodes
  kSeries,    ///< plus a floating source in series with a grounded one
  kNone,      ///< current sources only: the identity condensation
};

/// A random MNA-like circuit on `nodes` nodes: a resistor chain plus
/// random resistors, capacitors to ground, a diode and a MOSFET (the two
/// nonlinear lane kinds), driven as `drive` says.
void buildRandomCircuit(spice::Netlist& n, stats::Rng& rng, int nodes,
                        Drive drive) {
  using namespace spice;
  const auto node = [&](int i) { return n.node("n" + std::to_string(i)); };
  int devices = 0;
  const auto name = [&](const char* kind) {
    return kind + std::to_string(devices++);
  };
  for (int i = 0; i + 1 < nodes; ++i) {
    n.add<Resistor>(name("R"), node(i), node(i + 1),
                    rng.uniform(1e2, 1e4));
  }
  for (int k = 0; k < nodes; ++k) {
    const int a = rng.uniformInt(0, nodes - 1);
    const int b = rng.uniformInt(0, nodes - 1);
    if (a != b) {
      n.add<Resistor>(name("R"), node(a), node(b), rng.uniform(1e2, 1e5));
    }
  }
  for (int i = 0; i < nodes; ++i) {
    n.add<Capacitor>(name("C"), node(i), n.ground(),
                     rng.uniform(1e-16, 1e-14));
    if (rng.bernoulli(0.3)) {
      n.add<Resistor>(name("R"), node(i), n.ground(), rng.uniform(1e3, 1e5));
    }
  }
  n.add<Diode>(name("D"), node(1), node(2));
  n.add<MosfetDevice>(name("M"), node(3), node(4), node(5), xtor::nmos45(),
                      65e-9);
  if (drive == Drive::kNone) {
    n.add<Resistor>(name("R"), node(0), n.ground(), 1e3);
    n.add<CurrentSource>(name("I"), n.ground(), node(0),
                         shapes::dc(1e-4));
    return;
  }
  // Grounded sources on every third node, minus terminal to ground.
  for (int i = 0; i < nodes; i += 3) {
    n.add<VoltageSource>(name("V"), node(i), n.ground(),
                         shapes::dc(rng.uniform(-1.0, 1.0)));
  }
  if (drive == Drive::kSeries) {
    // Node 1 rides 0.4 V above the grounded node 0.
    n.add<VoltageSource>(name("V"), node(1), node(0), shapes::dc(0.4));
  }
}

/// Per-kind scale: the largest magnitude among the node updates or among
/// the aux updates (branch currents are orders below node voltages).
void expectUpdatesAgree(const std::vector<double>& got,
                        const std::vector<double>& ref, int nodeCount) {
  double nodeScale = 0.0;
  double auxScale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    double& scale = static_cast<int>(i) < nodeCount ? nodeScale : auxScale;
    scale = std::max(scale, std::abs(ref[i]));
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double scale =
        static_cast<int>(i) < nodeCount ? nodeScale : auxScale;
    EXPECT_LE(std::abs(got[i] - ref[i]), 1e-12 * scale)
        << "unknown " << i << ": " << got[i] << " vs " << ref[i];
  }
}

/// The condensed update against the full solve of the same assembly.
void expectCondensedMatchesFull(spice::Assembler& assembler,
                                const spice::Netlist& n) {
  std::vector<double> dx;
  assembler.solveForUpdate(dx);
  linalg::SparseLuFactorizer full;
  full.factor(assembler.csr());
  std::vector<double> rhs(assembler.residual().begin(),
                          assembler.residual().end());
  for (double& r : rhs) r = -r;
  expectUpdatesAgree(dx, full.solve(rhs), n.nodeCount());
}

TEST(Condensation, MatchesFullSolveOnRandomCircuits) {
  using namespace spice;
  struct Case {
    Drive drive;
    const char* name;
  };
  const Case cases[] = {{Drive::kGrounded, "grounded"},
                        {Drive::kSeries, "series"},
                        {Drive::kNone, "no source"}};
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      stats::Rng rng(seed);
      Netlist n;
      buildRandomCircuit(n, rng, 12 + static_cast<int>(seed), c.drive);
      const int unknowns = n.freeze();
      Assembler assembler(n.stampPattern());
      std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
      for (double& xi : x) xi = rng.uniform(-0.5, 0.5);
      const SystemView view(x, n.nodeCount());
      // DC, a BE and a trapezoidal step, then the gmin continuation ladder.
      assembler.assemble(n, view, /*dc=*/true, 0.0, 0.0,
                         IntegrationMethod::kBackwardEuler, 1e-12);
      expectCondensedMatchesFull(assembler, n);

      const std::size_t pinned = static_cast<std::size_t>(unknowns) -
                                 assembler.freeUnknowns().size();
      if (c.drive == Drive::kNone) {
        EXPECT_EQ(pinned, 0u);
      } else {
        // Two unknowns per grounded source; the series source stays free.
        EXPECT_EQ(pinned, 2u * static_cast<std::size_t>(
                                   (12 + seed + 2) / 3));
      }
      assembler.assemble(n, view, /*dc=*/false, 1e-10, 1e-12,
                         IntegrationMethod::kBackwardEuler, 1e-12);
      expectCondensedMatchesFull(assembler, n);
      assembler.assemble(n, view, /*dc=*/false, 2e-10, 3e-12,
                         IntegrationMethod::kTrapezoidal, 1e-12);
      expectCondensedMatchesFull(assembler, n);
      for (double gmin = 1e-2; gmin >= 1e-12 * 0.99; gmin *= 0.1) {
        SCOPED_TRACE("gmin " + std::to_string(gmin));
        assembler.assemble(n, view, /*dc=*/true, 0.0, 0.0,
                           IntegrationMethod::kBackwardEuler, gmin);
        expectCondensedMatchesFull(assembler, n);
      }
    }
  }
}

TEST(Condensation, MatchesFullSolveAtConvergedDcAndTransientPoints) {
  // The updates near a converged DC operating point and at the end of a
  // transient, where the residuals and updates are small.
  using namespace spice;
  stats::Rng rng(11);
  Netlist n;
  buildRandomCircuit(n, rng, 14, Drive::kSeries);
  Simulator sim(n);
  ASSERT_TRUE(sim.solveDc().converged);
  std::vector<double> x = sim.solution();
  Assembler assembler(n.stampPattern());
  assembler.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/true, 0.0, 0.0,
                     IntegrationMethod::kBackwardEuler, 1e-12);
  expectCondensedMatchesFull(assembler, n);
  TransientOptions options;
  options.duration = 0.2e-9;
  options.dtMax = 2e-12;
  sim.runTransient(options, {});
  x = sim.solution();
  assembler.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/false, 0.2e-9,
                     2e-12, IntegrationMethod::kTrapezoidal, 1e-12);
  expectCondensedMatchesFull(assembler, n);
}

TEST(Condensation, TwoSourcesPinningOneNodeFailLoudly) {
  using namespace spice;
  Netlist n;
  n.add<VoltageSource>("V1", n.node("a"), n.ground(), shapes::dc(1.0));
  n.add<VoltageSource>("V2", n.node("a"), n.ground(), shapes::dc(1.0));
  n.add<Resistor>("R1", n.node("a"), n.node("b"), 1e3);
  n.add<Resistor>("R2", n.node("b"), n.ground(), 1e3);
  const int unknowns = n.freeze();
  Assembler assembler(n.stampPattern());
  std::vector<double> x(static_cast<std::size_t>(unknowns), 0.0);
  assembler.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/true, 0.0, 0.0,
                     IntegrationMethod::kBackwardEuler, 1e-12);
  std::vector<double> dx;
  EXPECT_THROW(assembler.solveForUpdate(dx), NumericalError);
  // V1 pins "a"; V2's branch current stays free with an empty row.
  EXPECT_EQ(assembler.freeUnknowns().size(),
            static_cast<std::size_t>(unknowns) - 2);
  linalg::SparseLuFactorizer full;
  EXPECT_THROW(full.factor(assembler.csr()), NumericalError);
  Simulator sim(n);
  EXPECT_THROW(sim.solveDc(), NumericalError);
}

/// The condensed factor is the free part of the full factor: the Newton
/// solve's first factorization of J_FF (in the full minimum-degree order
/// restricted to the free unknowns) against a standalone full
/// factorization of the same assembly.  Every full step on a free column
/// pivots on a free row, and its pivot, L multipliers and U entries in
/// free rows equal the condensed step's bit for bit.
void expectCondensedFactorIsFreePart(spice::Simulator& sim) {
  using namespace spice;
  Netlist& n = sim.netlist();
  std::vector<double> x = sim.solution();
  Assembler assembler(n.stampPattern());
  assembler.assemble(n, SystemView(x, n.nodeCount()), /*dc=*/false, 1e-10,
                     1e-12, IntegrationMethod::kTrapezoidal, 1e-12);
  std::vector<double> dx;
  assembler.solveForUpdate(dx);
  linalg::SparseLuFactorizer full;
  full.factor(assembler.csr());

  const std::span<const int> freeUnknowns = assembler.freeUnknowns();
  const auto size = static_cast<std::size_t>(n.unknownCount());
  constexpr std::size_t kPinned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> reduced(size, kPinned);
  for (std::size_t i = 0; i < freeUnknowns.size(); ++i) {
    reduced[static_cast<std::size_t>(freeUnknowns[i])] = i;
  }
  using Entries = std::vector<std::pair<std::size_t, double>>;
  // Free-row entries in reduced indices, sorted; bitwise comparable.
  const auto freePart = [&](const Entries& entries, bool mapRows) {
    Entries out;
    for (const auto& [row, value] : entries) {
      const std::size_t r = mapRows ? reduced[row] : row;
      if (r != kPinned) out.emplace_back(r, value);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto bits = [](const Entries& entries) {
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    for (const auto& [row, value] : entries) {
      out.emplace_back(row, std::bit_cast<std::uint64_t>(value));
    }
    return out;
  };

  const auto condensedSteps = assembler.factorizer().steps();
  ASSERT_EQ(condensedSteps.size(), freeUnknowns.size());
  std::size_t next = 0;
  for (const auto& step : full.steps()) {
    if (reduced[step.column] == kPinned) continue;
    SCOPED_TRACE("full column " + std::to_string(step.column));
    ASSERT_LT(next, condensedSteps.size());
    const auto& mine = condensedSteps[next++];
    EXPECT_EQ(mine.column, reduced[step.column]);
    ASSERT_NE(reduced[step.pivotRow], kPinned) << "pivot on a pinned row";
    EXPECT_EQ(mine.pivotRow, reduced[step.pivotRow]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mine.pivot),
              std::bit_cast<std::uint64_t>(step.pivot));
    EXPECT_EQ(bits(freePart(mine.lower, false)),
              bits(freePart(step.lower, true)));
    EXPECT_EQ(bits(freePart(mine.upper, false)),
              bits(freePart(step.upper, true)));
  }
  EXPECT_EQ(next, condensedSteps.size());
}

TEST(Condensation, Cell2TFactorIsTheFreePartOfTheFullFactor) {
  core::Cell2T cell(core::Cell2TConfig{});
  cell.setStoredBit(true);
  cell.hold(0.2e-9);
  EXPECT_EQ(cell.simulator().netlist().unknownCount(), 11);
  expectCondensedFactorIsFreePart(cell.simulator());
}

TEST(Condensation, Array8FactorIsTheFreePartOfTheFullFactor) {
  core::ArrayNetlistConfig config;
  config.rows = config.cols = 8;
  core::ArrayNetlist array(config);
  array.hold(0.2e-9);
  EXPECT_EQ(array.simulator().netlist().unknownCount(), 256);
  expectCondensedFactorIsFreePart(array.simulator());
}

}  // namespace
}  // namespace fefet
