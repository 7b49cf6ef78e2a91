// schur.h — bordered-block-diagonal (BBD) Schur-complement solver.
//
// Solves A x = f for a matrix whose rows are partitioned into independent
// diagonal blocks plus a shared border:
//
//     [ A_1          B_1 ] [x_1]   [f_1]
//     [      ...     ... ] [...] = [...]
//     [          A_m B_m ] [x_m]   [f_m]
//     [ C_1  ... C_m A_bb] [x_b]   [f_b]
//
// Diagonal blocks factorize independently (parallelizable through the
// setParallelFor hook — this layer cannot depend on sim::ThreadPool, so the
// caller injects the pool), the border Schur complement
// S = A_bb - sum_b C_b A_b^{-1} B_b is assembled densely and factored once
// per value change, and the block solutions are recovered by
// back-substitution.  For an N x M memory array partitioned by word line
// the blocks are the rows and the border is the shared bit/sense lines, so
// the border stays O(N + M) while the flat system is O(N * M).
//
// Every block factors through the ordered, structure-caching
// SparseLuFactorizer; the border Schur complement through dense LU.
//
// Macromodel collapsing: a block whose gathered matrix values stay inside a
// tolerance band (|v - cached| <= 1e-12 + 1e-5 |cached| per entry) for
// three consecutive solves is collapsed — its factorization and its
// (cached) Schur contribution are frozen and reused, and only the (always
// fresh) right-hand side is propagated through the stale factor.  Because
// the caller's Newton iteration assembles the exact residual every
// iteration, a collapsed block makes the update an inexact-Newton step with
// an exact residual: the converged solution is unchanged, only the
// iteration path may differ.  A block whose values leave the band is
// re-expanded (refactored) on the spot.  A block whose values are bitwise
// identical to the cached copy reuses its factor as is — that skip is
// exact.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/linalg.h"

namespace fefet::linalg {

/// Row partition of an n x n system: every row is either in exactly one
/// block or on the border.  The solver validates that no matrix entry
/// couples two different blocks.
struct SchurPartition {
  int n = 0;
  std::vector<int> borderRows;           ///< global rows on the border
  std::vector<std::vector<int>> blocks;  ///< per block: global rows, local order
};

/// Cumulative solver telemetry (monotone counters plus the current
/// collapsed-block count); callers diff snapshots per solve.
struct SchurStats {
  long solves = 0;
  long blockFactorizations = 0;  ///< block LU factorizations performed
  long blockFactorSkips = 0;     ///< refactors skipped (exact or collapsed)
  long collapses = 0;            ///< expanded -> collapsed transitions
  long expands = 0;              ///< collapsed -> expanded transitions
  long schurRefactorizations = 0;
  long schurReuses = 0;
  int collapsedBlocks = 0;       ///< blocks currently collapsed
};

class SchurSolver {
 public:
  /// Parallel-loop hook: run fn(0..count-1), possibly concurrently.  The
  /// bodies never throw (exceptions are trapped internally).
  using ParallelFor =
      std::function<void(int count, const std::function<void(int)>& fn)>;

  /// Build the gather/scatter programs for a fixed CSR pattern (row
  /// pointers + column indices of the union sparsity; values arrive per
  /// solve).  Throws InvalidArgumentError when the partition is not
  /// bordered-block-diagonal under this pattern.
  SchurSolver(std::span<const std::size_t> rowPtr,
              std::span<const std::size_t> colIdx, SchurPartition partition);
  ~SchurSolver();
  SchurSolver(const SchurSolver&) = delete;
  SchurSolver& operator=(const SchurSolver&) = delete;

  void setParallelFor(ParallelFor parallelFor);

  /// Solve A x = f.  `a` must use the construction-time pattern.  Throws
  /// NumericalError when a block or the Schur complement is singular.
  void solve(const CsrView& a, std::span<const double> f,
             std::span<double> x);

  int blockCount() const { return static_cast<int>(blocks_.size()); }
  int borderSize() const { return nBorder_; }
  const SchurStats& stats() const { return stats_; }

 private:
  struct Block;

  void gatherBlockValues(Block& blk, const CsrView& a);
  void factorBlock(Block& blk);
  /// contrib = C_b A_b^{-1} B_b (kb x kb, row-major) with the CURRENT
  /// factor and the given B/C value arrays.
  void computeContribution(const Block& blk, std::span<const double> bVals,
                           std::span<const double> cVals,
                           std::vector<double>& contrib) const;
  void applyContribution(const Block& blk, std::span<const double> contrib,
                         double sign);
  void updateBlock(Block& blk, const CsrView& a, std::span<const double> f);
  void backSubstitute(Block& blk, std::span<const double> xBorder,
                      std::span<double> x);
  void recordError(const std::string& what);

  int n_ = 0;
  int nBorder_ = 0;
  std::vector<int> borderRows_;
  std::vector<std::unique_ptr<Block>> blocks_;

  ParallelFor parallelFor_;

  // Border bookkeeping: direct A_bb entries of the pattern and the running
  // sum of block contributions (SBlocks_ = sum_b C_b A_b^{-1} B_b with the
  // blocks' cached values), maintained incrementally as blocks refactor.
  struct AbbEntry {
    int bi = 0;
    int bj = 0;
    std::size_t gpos = 0;
  };
  std::vector<AbbEntry> abbEntries_;
  std::vector<double> cachedAbb_;
  std::vector<double> sBlocks_;  ///< nBorder^2 row-major, sum of contribs
  std::vector<double> sFull_;    ///< scratch: A_bb - sBlocks_
  DenseLuFactorizer sFactor_;
  bool sDirty_ = true;
  bool sFactored_ = false;
  std::vector<double> fBorder_;
  std::vector<double> xBorder_;

  std::mutex sMutex_;      ///< guards sBlocks_ and sDirty_ from block jobs
  std::mutex statsMutex_;  ///< guards stats_ counters from block jobs
  std::mutex errorMutex_;  ///< guards firstError_
  std::string firstError_;
  bool hasError_ = false;

  SchurStats stats_;
};

}  // namespace fefet::linalg
