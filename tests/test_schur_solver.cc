// Tests of the bordered-block-diagonal Schur solver (common/schur.h):
// exactness against dense LU, the exact bitwise refactor-skip, the
// macromodel collapse/expand state machine (a collapsed block solves the
// cached linearization with the fresh right-hand side), partition
// validation, and determinism of the parallel block-factorization path
// (the SchurSolver suite runs under TSan in scripts/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <random>
#include <vector>

#include "common/error.h"
#include "common/linalg.h"
#include "common/schur.h"
#include "sim/thread_pool.h"

namespace fefet {
namespace {

/// A dense-storage BBD system: contiguous blocks, border rows at the end,
/// every structurally-allowed entry present in the CSR pattern.
struct BbdSystem {
  int n = 0;
  linalg::SchurPartition part;
  std::vector<std::size_t> rowPtr, colIdx;
  std::vector<double> values;  ///< CSR values
  std::vector<double> dense;   ///< n x n row-major mirror
};

BbdSystem makeSystem(const std::vector<int>& blockSizes, int borderSize,
                     unsigned seed) {
  BbdSystem sys;
  int offset = 0;
  for (int size : blockSizes) {
    sys.part.blocks.emplace_back();
    for (int i = 0; i < size; ++i) sys.part.blocks.back().push_back(offset + i);
    offset += size;
  }
  for (int k = 0; k < borderSize; ++k) sys.part.borderRows.push_back(offset + k);
  sys.n = offset + borderSize;
  sys.part.n = sys.n;

  // Block membership per row (-1 = border).
  std::vector<int> owner(static_cast<std::size_t>(sys.n), -1);
  for (std::size_t b = 0; b < sys.part.blocks.size(); ++b) {
    for (int r : sys.part.blocks[b]) owner[static_cast<std::size_t>(r)] =
        static_cast<int>(b);
  }

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> off(-1.0, 1.0);
  sys.dense.assign(static_cast<std::size_t>(sys.n) *
                       static_cast<std::size_t>(sys.n),
                   0.0);
  sys.rowPtr.push_back(0);
  for (int r = 0; r < sys.n; ++r) {
    for (int c = 0; c < sys.n; ++c) {
      const bool allowed = r == c || owner[static_cast<std::size_t>(r)] < 0 ||
                           owner[static_cast<std::size_t>(c)] < 0 ||
                           owner[static_cast<std::size_t>(r)] ==
                               owner[static_cast<std::size_t>(c)];
      if (!allowed) continue;
      const double v = r == c ? 12.0 + std::abs(off(rng)) : 0.5 * off(rng);
      sys.colIdx.push_back(static_cast<std::size_t>(c));
      sys.values.push_back(v);
      sys.dense[static_cast<std::size_t>(r) * static_cast<std::size_t>(sys.n) +
                static_cast<std::size_t>(c)] = v;
    }
    sys.rowPtr.push_back(sys.colIdx.size());
  }
  return sys;
}

void syncDense(BbdSystem& sys) {
  std::size_t p = 0;
  for (int r = 0; r < sys.n; ++r) {
    for (std::size_t q = sys.rowPtr[static_cast<std::size_t>(r)];
         q < sys.rowPtr[static_cast<std::size_t>(r) + 1]; ++q, ++p) {
      sys.dense[static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(sys.n) +
                sys.colIdx[q]] = sys.values[q];
    }
  }
}

linalg::CsrView view(const BbdSystem& sys) {
  return {static_cast<std::size_t>(sys.n), sys.rowPtr, sys.colIdx,
          sys.values};
}

std::vector<double> rhs(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> f(static_cast<std::size_t>(n));
  for (double& v : f) v = dist(rng);
  return f;
}

std::vector<double> denseSolve(const BbdSystem& sys,
                               const std::vector<double>& f) {
  linalg::DenseLuFactorizer lu;
  lu.factor(static_cast<std::size_t>(sys.n), sys.dense);
  std::vector<double> x(static_cast<std::size_t>(sys.n));
  lu.solve(f, x);
  return x;
}

double maxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

TEST(SchurSolver, MatchesDenseLuAcrossValueDrifts) {
  // Four small blocks, then two larger ones: every block of either system
  // factors through the sparse LU.  Each drift leaves the collapse band, so
  // every pass refactors every block and the solve stays exact.
  struct Case {
    std::vector<int> blockSizes;
    int borderSize;
    unsigned seed;
  };
  for (const Case& c : {Case{{5, 7, 4, 6}, 3, 11}, Case{{12, 15}, 4, 7}}) {
    auto sys = makeSystem(c.blockSizes, c.borderSize, c.seed);
    linalg::SchurSolver solver(sys.rowPtr, sys.colIdx, sys.part);
    const int blocks = static_cast<int>(c.blockSizes.size());
    EXPECT_EQ(solver.blockCount(), blocks);
    EXPECT_EQ(solver.borderSize(), c.borderSize);

    std::mt19937 rng(42);
    std::uniform_real_distribution<double> drift(-0.05, 0.05);
    constexpr int kPasses = 4;
    for (int pass = 0; pass < kPasses; ++pass) {
      if (pass > 0) {
        for (double& v : sys.values) v += drift(rng);
        syncDense(sys);
      }
      const auto f = rhs(sys.n, 100 + static_cast<unsigned>(pass));
      std::vector<double> x(static_cast<std::size_t>(sys.n));
      solver.solve(view(sys), f, x);
      const auto expected = denseSolve(sys, f);
      for (int i = 0; i < sys.n; ++i) {
        EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                    expected[static_cast<std::size_t>(i)],
                    1e-10 * (1.0 + maxAbs(expected)))
            << "row " << i << " pass " << pass << " seed " << c.seed;
      }
    }
    EXPECT_EQ(solver.stats().blockFactorizations, kPasses * blocks);
  }
}

TEST(SchurSolver, BitwiseIdenticalValuesSkipRefactorization) {
  auto sys = makeSystem({6, 6}, 2, /*seed=*/3);
  linalg::SchurSolver solver(sys.rowPtr, sys.colIdx, sys.part);
  const auto f = rhs(sys.n, 9);
  std::vector<double> x1(static_cast<std::size_t>(sys.n));
  solver.solve(view(sys), f, x1);
  const long factors = solver.stats().blockFactorizations;
  std::vector<double> x2(static_cast<std::size_t>(sys.n));
  solver.solve(view(sys), f, x2);
  EXPECT_EQ(solver.stats().blockFactorizations, factors);
  EXPECT_EQ(solver.stats().blockFactorSkips, 2);
  EXPECT_EQ(x1, x2);  // identical computation path -> bitwise equal
}

TEST(SchurSolver, CollapsedBlockSolvesCachedLinearization) {
  auto sys = makeSystem({6, 6}, 2, /*seed=*/21);
  linalg::SchurSolver solver(sys.rowPtr, sys.colIdx, sys.part);
  const auto f = rhs(sys.n, 33);
  std::vector<double> x(static_cast<std::size_t>(sys.n));
  solver.solve(view(sys), f, x);  // factor
  solver.solve(view(sys), f, x);  // exact skip, quiet = 1
  solver.solve(view(sys), f, x);  // exact skip, quiet = 2
  solver.solve(view(sys), f, x);  // exact skip, quiet = 3 -> collapse
  EXPECT_EQ(solver.stats().collapsedBlocks, 2);
  const std::vector<double> xCollapsed = x;

  // Perturb block 0's values within the 1e-5 relative band: the collapsed
  // block keeps its frozen linearization, so the solution is the one for
  // the CACHED matrix — bitwise the previous solve — not the perturbed one.
  BbdSystem perturbed = sys;
  for (std::size_t q = perturbed.rowPtr[0]; q < perturbed.rowPtr[6]; ++q) {
    if (perturbed.colIdx[q] < 6) perturbed.values[q] *= 1.0 + 1e-6;
  }
  syncDense(perturbed);
  std::vector<double> xStale(static_cast<std::size_t>(sys.n));
  solver.solve(view(perturbed), f, xStale);
  EXPECT_EQ(solver.stats().expands, 0);
  EXPECT_EQ(xStale, xCollapsed);
  const auto xTrue = denseSolve(perturbed, f);
  double diff = 0.0;
  for (int i = 0; i < sys.n; ++i) {
    diff = std::max(diff, std::abs(xStale[static_cast<std::size_t>(i)] -
                                   xTrue[static_cast<std::size_t>(i)]));
  }
  EXPECT_GT(diff, 0.0);  // genuinely inexact, not silently refactored
}

TEST(SchurSolver, ExpandsWhenValuesLeaveTheBand) {
  auto sys = makeSystem({6, 6}, 2, /*seed=*/21);
  linalg::SchurSolver solver(sys.rowPtr, sys.colIdx, sys.part);
  const auto f = rhs(sys.n, 33);
  std::vector<double> x(static_cast<std::size_t>(sys.n));
  solver.solve(view(sys), f, x);  // factor
  for (int quiet = 1; quiet <= 3; ++quiet) {
    solver.solve(view(sys), f, x);  // exact skips; the third collapses
  }
  EXPECT_EQ(solver.stats().collapsedBlocks, 2);

  // A 10% jolt leaves the band: both blocks re-expand and the result is
  // exact for the new values.
  for (double& v : sys.values) v *= 1.1;
  syncDense(sys);
  solver.solve(view(sys), f, x);
  EXPECT_EQ(solver.stats().expands, 2);
  EXPECT_EQ(solver.stats().collapsedBlocks, 0);
  const auto expected = denseSolve(sys, f);
  for (int i = 0; i < sys.n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)],
                1e-10 * (1.0 + maxAbs(expected)));
  }
}

TEST(SchurSolver, RejectsCrossBlockCoupling) {
  auto sys = makeSystem({4, 4}, 2, /*seed=*/1);
  // Claim a partition that splits block 0 in half: the dense intra-block
  // pattern now couples the two halves directly.
  linalg::SchurPartition bad = sys.part;
  bad.blocks = {{0, 1}, {2, 3}, {4, 5, 6, 7}};
  EXPECT_THROW(linalg::SchurSolver(sys.rowPtr, sys.colIdx, bad),
               InvalidArgumentError);
}

TEST(SchurSolver, RejectsIncompletePartition) {
  auto sys = makeSystem({4}, 2, /*seed=*/1);
  linalg::SchurPartition bad = sys.part;
  bad.blocks[0].pop_back();  // row 3 now unassigned
  EXPECT_THROW(linalg::SchurSolver(sys.rowPtr, sys.colIdx, bad),
               InvalidArgumentError);
}

TEST(SchurSolver, SingularBlockThrowsAndRecovers) {
  auto sys = makeSystem({4, 4}, 2, /*seed=*/17);
  linalg::SchurSolver solver(sys.rowPtr, sys.colIdx, sys.part);
  const auto f = rhs(sys.n, 2);
  std::vector<double> x(static_cast<std::size_t>(sys.n));

  BbdSystem singular = sys;
  for (std::size_t q = singular.rowPtr[0]; q < singular.rowPtr[1]; ++q) {
    singular.values[q] = 0.0;  // zero first row of block 0
  }
  EXPECT_THROW(solver.solve(view(singular), f, x), NumericalError);

  // Healthy values afterwards must solve correctly (internal caches were
  // invalidated by the failure).
  solver.solve(view(sys), f, x);
  const auto expected = denseSolve(sys, f);
  for (int i = 0; i < sys.n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)],
                1e-10 * (1.0 + maxAbs(expected)));
  }
}

/// ThreadPool-backed parallelFor with a local latch (mirrors HierEngine's
/// hook).  This test is in the TSan stage target set.
TEST(SchurSolver, ParallelBlockFactorizationMatchesSerial) {
  auto sys = makeSystem(std::vector<int>(24, 6), 5, /*seed=*/77);
  linalg::SchurSolver serial(sys.rowPtr, sys.colIdx, sys.part);
  linalg::SchurSolver parallel(sys.rowPtr, sys.colIdx, sys.part);

  sim::ThreadPool pool(4);
  parallel.setParallelFor([&pool](int count,
                                  const std::function<void(int)>& fn) {
    const int workers = std::min(4, count);
    std::atomic<int> next{0};
    // Counted under the mutex: everything here lives on this frame, so a
    // worker must be done touching it before the waiter can see done ==
    // workers and return.
    std::mutex mutex;
    std::condition_variable cv;
    int done = 0;
    for (int w = 0; w < workers; ++w) {
      pool.submit([&] {
        int i = 0;
        while ((i = next.fetch_add(1)) < count) fn(i);
        const std::lock_guard<std::mutex> lock(mutex);
        if (++done == workers) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == workers; });
  });

  std::mt19937 rng(5);
  std::uniform_real_distribution<double> drift(-0.02, 0.02);
  for (int pass = 0; pass < 5; ++pass) {
    if (pass > 0) {
      for (double& v : sys.values) v += drift(rng);
      syncDense(sys);
    }
    const auto f = rhs(sys.n, 300 + static_cast<unsigned>(pass));
    std::vector<double> xs(static_cast<std::size_t>(sys.n));
    std::vector<double> xp(static_cast<std::size_t>(sys.n));
    serial.solve(view(sys), f, xs);
    parallel.solve(view(sys), f, xp);
    const auto expected = denseSolve(sys, f);
    for (int i = 0; i < sys.n; ++i) {
      EXPECT_NEAR(xp[static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)],
                  1e-9 * (1.0 + maxAbs(expected)));
      // Serial and parallel agree to accumulation-order rounding.
      EXPECT_NEAR(xp[static_cast<std::size_t>(i)],
                  xs[static_cast<std::size_t>(i)],
                  1e-11 * (1.0 + maxAbs(xs)));
    }
    EXPECT_EQ(serial.stats().collapsedBlocks,
              parallel.stats().collapsedBlocks);
  }
  pool.wait();
}

}  // namespace
}  // namespace fefet
