// Unit tests for common/linalg.h: dense and sparse LU solvers.
#include "common/linalg.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/stats.h"

namespace fefet::linalg {
namespace {

TEST(DenseMatrix, MultiplyIdentityLike) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(1, 1) = 3.0;
  const std::vector<double> x = {1.0, -1.0};
  const auto y = a.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
}

std::vector<double> denseSolve(const DenseMatrix& a,
                               std::span<const double> b) {
  DenseLuFactorizer lu;
  lu.factor(a);
  std::vector<double> x(a.rows());
  lu.solve(b, x);
  return x;
}

TEST(DenseLuFactorizer, Solves2x2) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 3.0; a.at(0, 1) = 2.0;
  a.at(1, 0) = 1.0; a.at(1, 1) = 4.0;
  const auto x = denseSolve(a, std::vector<double>{7.0, 9.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLuFactorizer, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 0.0; a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0; a.at(1, 1) = 0.0;
  const auto x = denseSolve(a, std::vector<double>{5.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(DenseLuFactorizer, DetectsSingular) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1.0; a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0; a.at(1, 1) = 4.0;
  DenseLuFactorizer lu;
  EXPECT_THROW(lu.factor(a), NumericalError);
  EXPECT_FALSE(lu.factored());
}

TEST(SparseMatrix, AccumulatesAndCounts) {
  SparseMatrix m(3);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.0);
  m.add(2, 1, -1.0);
  EXPECT_EQ(m.nonZeros(), 2u);
  EXPECT_DOUBLE_EQ(m.row(0).at(0), 3.0);
}

TEST(SparseLuFactorizer, SolvesTridiagonal) {
  const std::size_t n = 50;
  SparseMatrix m(n);
  std::vector<double> b(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 2.0);
    if (i > 0) m.add(i, i - 1, -1.0);
    if (i + 1 < n) m.add(i, i + 1, -1.0);
  }
  SparseLuFactorizer lu;
  lu.factor(m);
  const auto x = lu.solve(b);
  const auto back = m.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], 1.0, 1e-9);
  // A tridiagonal matrix factors without fill: n pivots plus the 2(n-1)
  // off-diagonals.
  EXPECT_EQ(lu.nonZeros(), 3 * n - 2);
}

TEST(SparseLuFactorizer, DetectsNumericallySingular) {
  // Structurally complete, but row 1 = 2 * row 0: the second pivot
  // cancels to exactly zero.
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 0, 2.0);
  m.add(1, 1, 4.0);
  SparseLuFactorizer lu;
  EXPECT_THROW(lu.factor(m), NumericalError);
  EXPECT_FALSE(lu.factored());
}

TEST(Norms, InfAndTwo) {
  const std::vector<double> v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(normInf(v), 4.0);
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

// Property sweep: sparse LU agrees with dense LU on random sparse systems
// with partial pivoting stress (large off-diagonal entries).
class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, AgreeOnRandomSystems) {
  const int n = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(n) * 977u + 13u);
  DenseMatrix d(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  SparseMatrix s(static_cast<std::size_t>(n));
  // Diagonally-influenced random sparse pattern plus a few large
  // off-diagonal couplings to exercise pivoting.
  for (int i = 0; i < n; ++i) {
    const double diag = rng.uniform(0.5, 2.0);
    d.at(i, i) += diag;
    s.add(i, i, diag);
    for (int k = 0; k < 3; ++k) {
      const int j = rng.uniformInt(0, n - 1);
      const double v = rng.uniform(-3.0, 3.0);
      d.at(i, j) += v;
      s.add(i, j, v);
    }
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);

  const auto xd = denseSolve(d, b);
  SparseLuFactorizer lu;
  lu.factor(s);
  const auto xs = lu.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xs[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)], 1e-7)
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseVsDense,
                         ::testing::Values(2, 5, 10, 25, 60, 120));

// ---------------------------------------------------------------------------
// Multi-RHS solves: one factorization, K column-contiguous right-hand
// sides in a single blocked-substitution pass.  The contract is
// bit-identity per column against the scalar solve() — the blocked inner
// loop applies the same elimination steps in the same order.

/// Random sparse test system with pivoting stress.
SparseMatrix buildRandomSystem(int n, std::uint64_t seed) {
  stats::Rng rng(seed);
  SparseMatrix s(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double diag = rng.uniform(0.5, 2.0);
    s.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), diag);
    for (int k = 0; k < 3; ++k) {
      const int j = rng.uniformInt(0, n - 1);
      const double v = rng.uniform(-3.0, 3.0);
      s.add(static_cast<std::size_t>(i), static_cast<std::size_t>(j), v);
    }
  }
  return s;
}

TEST(MultiRhs, SparseSolveMultiIsBitIdenticalPerColumn) {
  constexpr int kN = 80;
  constexpr std::size_t kRhs = 7;
  const SparseMatrix s = buildRandomSystem(kN, 20260810u);
  stats::Rng rng(11u);
  std::vector<double> b(kRhs * kN);
  for (auto& e : b) e = rng.uniform(-1.0, 1.0);

  SparseLuFactorizer lu;
  lu.factor(s);
  std::vector<double> multi(kRhs * kN);
  lu.solveMulti(b, multi, kRhs);

  std::vector<double> single(kN);
  for (std::size_t c = 0; c < kRhs; ++c) {
    lu.solve(std::span<const double>(b).subspan(c * kN, kN), single);
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(multi[c * kN + static_cast<std::size_t>(i)],
                single[static_cast<std::size_t>(i)])
          << "col " << c << " row " << i;
    }
  }
}

}  // namespace
}  // namespace fefet::linalg
