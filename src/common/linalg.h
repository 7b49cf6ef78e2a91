// linalg.h — dense and sparse linear algebra for the MNA solver.
//
// SparseLuFactorizer — a fill-reducing ordering with threshold pivoting
// and a cached symbolic structure — is the one LU Newton runs, at every
// system size from a single 2T cell to a memory array, and every diagonal
// block of the hierarchical Schur solver (schur.h).  CsrView lets the
// compiled stamp pipeline hand its fixed-pattern slot storage to it
// without copying.  DenseMatrix + DenseLuFactorizer (LU with partial
// pivoting) serve the dense border Schur complement and the tests'
// oracles.  SparseMatrix is the
// assembly-friendly row-map form tests and oracles build matrices in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace fefet::linalg {

/// Read-only compressed-sparse-row view of a square matrix whose storage
/// lives elsewhere (the compiled stamp pipeline's slot buffer).  rowPtr has
/// n + 1 entries; colIdx is ascending within each row; values parallels
/// colIdx.  Entries may hold explicit 0.0 — they are part of the pattern
/// and numerically inert in the LU.
struct CsrView {
  std::size_t n = 0;
  std::span<const std::size_t> rowPtr;
  std::span<const std::size_t> colIdx;
  std::span<const double> values;
};

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  void setZero();

  /// Raw row-major storage (size rows*cols).
  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  /// y = A x.
  std::vector<double> multiply(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

namespace detail {
/// In-place dense LU with partial pivoting: eliminates `lu` and records the
/// row permutation in `perm` (resized to n).
void denseLuFactorInPlace(DenseMatrix& lu, std::vector<std::size_t>& perm);
/// Permute + forward/backward substitution with a factor from above.
void denseLuSolve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                  std::span<const double> b, std::span<double> x);
}  // namespace detail

/// LU with partial pivoting of a square dense matrix, with a reusable
/// workspace: factor() copies the input into a preallocated matrix and
/// eliminates in place, so refactoring a same-sized matrix performs no
/// heap allocation.
class DenseLuFactorizer {
 public:
  /// Factor an n x n matrix given in row-major order.
  /// Throws NumericalError when the matrix is numerically singular.
  void factor(std::size_t n, std::span<const double> rowMajor);
  void factor(const DenseMatrix& a) { factor(a.rows(), a.data()); }

  /// Solve A x = b with the most recent factorization (x sized n).
  void solve(std::span<const double> b, std::span<double> x) const;

  bool factored() const { return factored_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool factored_ = false;
};

/// Square sparse matrix stored as one std::map<col,double> per row.
/// Assembly-friendly (random add); SparseLuFactorizer::factor accepts it
/// directly.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }

  void add(std::size_t r, std::size_t c, double v) { rows_[r][c] += v; }
  void setZero();

  const std::map<std::size_t, double>& row(std::size_t r) const {
    return rows_[r];
  }

  std::vector<double> multiply(std::span<const double> x) const;
  std::size_t nonZeros() const;

 private:
  std::vector<std::map<std::size_t, double>> rows_;
};

/// Sparse LU with a fill-reducing ordering and a reusable symbolic
/// structure — the KLU recipe (Davis & Palamadai Natarajan, ACM TOMS 2010).
///
/// The first factorization of a sparsity pattern computes a minimum-degree
/// column ordering q of the pattern of A + A^T.  Elimination then runs
/// left-looking (Gilbert–Peierls): step k solves column q[k] against the L
/// columns found so far, over the reach of its pattern, and picks the
/// pivot by a threshold rule that prefers the diagonal — the row whose
/// index equals q[k] when its magnitude is at least a fixed fraction of the
/// column maximum, else the largest magnitude (ties to the lowest row).
///
/// Each full factorization then compiles its pivot sequence and the
/// patterns it discovered into a per-step refactorization program on flat
/// 32-bit index arrays: the CSR entries each step gathers, in step order;
/// the U entries no earlier update of the step touches, read straight from
/// the CSR values; every row addressed by the slot its unknown occupies in
/// a solve.  Later factorizations of a same-pattern matrix run that
/// program numerically only, and a refactor() of values bitwise equal to
/// those the previous refactor() factored keeps the factor: by the
/// contract below, running the program again would reproduce it bit for
/// bit.
///
/// Correctness contract: the program performs the full factorization's
/// arithmetic in the same order, so a refactorization is bit-identical to
/// a fresh factorization of the same matrix.  The refactorization re-runs
/// the pivot rule at every step: if it picks a different row than the
/// cached sequence, the program is discarded and a full factorization runs
/// (reusing the ordering, which depends only on the pattern), so pivot
/// quality is never sacrificed for speed.  A changed pattern recomputes
/// the ordering.  Explicit zeros are structural: the fill pattern depends
/// on the assembled pattern and the pivot sequence only, never on values.
class SparseLuFactorizer {
 public:
  SparseLuFactorizer() = default;

  /// Factor a CSR matrix with external value storage (compiled stamp
  /// pipeline).  The CSR pattern of a frozen netlist never changes, so
  /// after the first call every factorization takes the numeric-only path
  /// — no heap allocation unless the pivot sequence drifts and a full
  /// factorization must rerun.  Throws NumericalError when the matrix is
  /// numerically singular.
  void factor(const CsrView& a);
  /// factor() in a caller-chosen column order (step k eliminates column
  /// order[k], a permutation of 0..n-1) instead of the minimum-degree one.
  /// The Assembler factors its condensed Jacobian in the full Jacobian's
  /// minimum-degree order restricted to the free unknowns, which keeps the
  /// pivot sequence of the full system.
  void factor(const CsrView& a, std::span<const std::size_t> order);
  /// Row-map convenience overload (copies into CSR first).
  void factor(const SparseMatrix& a);
  /// factor() of new values on the CSR pattern of the previous factor()
  /// call, for a caller whose pattern cannot change: skips factor()'s
  /// O(nnz) pattern compare.  Values bitwise equal to those of the last
  /// refactor() keep its factor (a factor reuse); factor() always
  /// factors.  Requires an earlier factor() call.
  void refactor(std::span<const double> values);

  /// Solve A x = b with the most recent factorization.
  std::vector<double> solve(std::span<const double> b) const;
  /// Allocation-free overload: x must be sized n and must not alias b.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve: b and x hold `nrhs` column-contiguous right-hand
  /// sides / solutions (column c occupies [c*n, (c+1)*n)).  One traversal
  /// of the cached factor applies every elimination step to all columns,
  /// so per-column results are bit-identical to solve().
  void solveMulti(std::span<const double> b, std::span<double> x,
                  std::size_t nrhs) const;

  bool factored() const { return factored_; }

  /// Diagnostics: how many full (symbolic + numeric) factorizations and
  /// how many structure-reusing numeric refactorizations have run.
  long fullFactorizations() const { return fullFactorizations_; }
  long numericRefactorizations() const { return numericRefactorizations_; }
  /// refactor() calls that kept the current factor: their values were
  /// bitwise equal to those of the refactor() that computed it.
  long factorReuses() const { return factorReuses_; }
  /// Numeric refactorizations abandoned because the pivot rule chose a
  /// different row than the cached sequence (each one also counts a full
  /// factorization).
  long pivotFallbacks() const { return pivotFallbacks_; }
  /// One elimination step of the current factor, in the matrix's own row
  /// and column indices: step k eliminates `column` on `pivotRow` (U's
  /// diagonal `pivot`); `lower` holds the L multipliers (row, value) of the
  /// step and `upper` the U entries (row, value) of its column above the
  /// pivot, each row being the pivot row of an earlier step.  For
  /// diagnostics and tests; allocates.
  struct Step {
    std::size_t column = 0;
    std::size_t pivotRow = 0;
    double pivot = 0.0;
    std::vector<std::pair<std::size_t, double>> lower;
    std::vector<std::pair<std::size_t, double>> upper;
  };
  /// The steps of the current factor in elimination order (empty before
  /// the first factorization).
  std::vector<Step> steps() const;

  /// Stored entries of the current factor, nnz(L + U): the strictly lower
  /// L multipliers plus U including its diagonal (0 before the first
  /// factorization).
  std::size_t nonZeros() const {
    return structureValid_ ? li_.size() + ui_.size() + n_ : 0;
  }

 private:
  using Index = std::uint32_t;

  bool samePattern(const CsrView& a) const;
  /// Numeric refactorization of `values` on the cached structure, or a
  /// full factorization when there is none or the pivots drift.
  void factorValues(std::span<const double> values);
  /// Caches the pattern of `a` and the column order: `order`, or the
  /// minimum-degree order when it is empty.
  void analyzePattern(const CsrView& a, std::span<const std::size_t> order);
  void factorFull(std::span<const double> values);
  void compileProgram(std::span<const Index> colPtr,
                      std::span<const Index> colRows,
                      std::span<const Index> colSrc,
                      std::span<const Index> rowStep);
  bool refactorNumeric(std::span<const double> values);
  [[noreturn]] void throwSingular(std::size_t k) const;

  std::size_t n_ = 0;
  bool factored_ = false;
  bool analyzed_ = false;        ///< pattern + ordering below are current
  bool structureValid_ = false;  ///< pivot sequence + program too

  // Per pattern: the CSR pattern the cache was built for and the
  // fill-reducing order: step k eliminates column q_[k].
  std::vector<Index> patRowPtr_;
  std::vector<Index> patColIdx_;
  std::vector<Index> q_;

  // Per pivot sequence, the compiled program.  Step k pivots on row
  // perm_[k], whose unknown lives at x[q_[k]] in a solve; that position is
  // the row's slot, and after compilation every row index below is a slot
  // (slotRow_ maps back, for the pivot rule's ties).
  //  - L: slots li_[lp_[k]..lp_[k+1]) (unit diagonal implied), multipliers
  //    lx_;
  //  - U: the earlier steps ui_[up_[k]..up_[k+1]), values ux_, pivot
  //    udiag_[k].  Each step lists first, in the topological order the
  //    elimination visits them, the entries whose step has L entries to
  //    apply (up to uApplyEnd_[k]), then the other entries read from
  //    work_ (up to uTakeEnd_[k]), then the rest;
  //  - an entry no earlier update of its step touches holds its CSR value:
  //    ux_[copyU_[i]] = values[copySrc_[i]] before the steps run; every
  //    other entry takes its value from work_ slot utake_[t] (kNone for
  //    the copied ones);
  //  - gathers: step k writes CSR values gsrc_[gp_[k]..gp_[k+1]) into
  //    work_ slots gslot_[...];
  //  - pivot candidates: the L slots plus q_[k]; diag_[k] is the slot of
  //    row q_[k] when it is a candidate, else kNone.
  std::vector<Index> perm_;
  std::vector<Index> slotRow_;
  std::vector<Index> diag_;
  std::vector<Index> lp_;
  std::vector<Index> li_;
  std::vector<double> lx_;
  std::vector<Index> up_;
  std::vector<Index> uApplyEnd_;
  std::vector<Index> uTakeEnd_;
  std::vector<Index> ui_;
  std::vector<Index> utake_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  std::vector<Index> copyU_;
  std::vector<Index> copySrc_;
  std::vector<Index> gp_;
  std::vector<Index> gslot_;
  std::vector<Index> gsrc_;

  /// Factor-time dense working column, all zero between steps (never
  /// touched by the const solves).
  std::vector<double> work_;

  /// The values the current factor was computed from, kept by refactor()
  /// for its reuse test (valuesKept_; factor() does not keep them, so the
  /// Schur blocks pay no copy).
  std::vector<double> factoredValues_;
  bool valuesKept_ = false;

  long fullFactorizations_ = 0;
  long numericRefactorizations_ = 0;
  long factorReuses_ = 0;
  long pivotFallbacks_ = 0;
};

/// Minimum-degree column order of the pattern of A + A^T (values are
/// ignored): order[k] is the column eliminated at step k.  The order
/// SparseLuFactorizer computes for a pattern it has not seen.
std::vector<std::size_t> minimumDegreeOrder(const CsrView& pattern);

/// Infinity norm of a vector.
double normInf(std::span<const double> v);

}  // namespace fefet::linalg
