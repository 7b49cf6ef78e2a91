// linalg.h — dense and sparse linear algebra for the MNA solver.
//
// DenseMatrix + LU with partial pivoting covers small circuits (cells,
// sense amplifiers).  SparseMatrix with a row-map LU covers memory arrays,
// where the MNA matrix is extremely sparse.  CsrView lets the compiled
// stamp pipeline hand its fixed-pattern slot storage to the factorizers
// without copying, and the LinearSolver facade at the bottom picks the
// right backend for a given size/assembly combination.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

namespace fefet::linalg {

/// Read-only compressed-sparse-row view of a square matrix whose storage
/// lives elsewhere (the compiled stamp pipeline's slot buffer).  rowPtr has
/// n + 1 entries; colIdx is ascending within each row; values parallels
/// colIdx.  Entries may hold explicit 0.0 — like the row-map path with
/// structure reuse, explicit zeros are numerically inert in the LU.
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
/// In-place dense LU with partial pivoting: eliminates `lu`, records the
/// row permutation in `perm` (resized to n) and returns the max/min pivot
/// magnitude ratio.  Shared by DenseLu and DenseLuFactorizer so the two
/// produce bit-identical factors by construction.
double denseLuFactorInPlace(DenseMatrix& lu, std::vector<std::size_t>& perm);
/// Permute + forward/backward substitution with a factor from above.
void denseLuSolve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                  std::span<const double> b, std::span<double> x);
}  // namespace detail

/// LU factorization with partial pivoting of a square dense matrix.
/// Throws NumericalError when the matrix is numerically singular.
class DenseLu {
 public:
  explicit DenseLu(DenseMatrix a);

  /// Solve A x = b for x.
  std::vector<double> solve(std::span<const double> b) const;

  /// Largest pivot magnitude ratio encountered (diagnostic).
  double conditionEstimate() const { return pivotRatio_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  double pivotRatio_ = 0.0;
};

/// Dense LU with a reusable workspace: factor() copies the input into a
/// preallocated matrix and eliminates in place, so refactoring a
/// same-sized matrix performs no heap allocation.  Runs the same kernel as
/// DenseLu — results are bit-identical to constructing a fresh DenseLu.
class DenseLuFactorizer {
 public:
  /// Factor an n x n matrix given in row-major order.
  /// Throws NumericalError when the matrix is numerically singular.
  void factor(std::size_t n, std::span<const double> rowMajor);
  void factor(const DenseMatrix& a) { factor(a.rows(), a.data()); }

  /// Solve A x = b with the most recent factorization (x sized n).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve: b and x hold `nrhs` column-contiguous right-hand
  /// sides / solutions (column c occupies [c*n, (c+1)*n)).  The blocked
  /// substitution walks the factor once and applies every elimination step
  /// to all columns, so each column's arithmetic sequence — and therefore
  /// its IEEE result — is bit-identical to a scalar solve() of that column.
  void solveMulti(std::span<const double> b, std::span<double> x,
                  std::size_t nrhs) const;

  bool factored() const { return factored_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool factored_ = false;
  double pivotRatio_ = 0.0;
};

/// Square sparse matrix stored as one std::map<col,double> per row.
/// Assembly-friendly (random add), solvable with a fill-in-tolerant LU.
/// This trades peak speed for simplicity and robustness, which is the right
/// call for array-scale MNA systems (thousands of nodes, ~5 entries/row).
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(std::size_t n) : rows_(n) {}

  std::size_t size() const { return rows_.size(); }

  void add(std::size_t r, std::size_t c, double v) { rows_[r][c] += v; }
  void setZero();

  /// Zero every stored value but keep the sparsity pattern (map nodes).
  /// Re-assembling the same circuit then touches existing nodes instead of
  /// re-allocating them, and downstream structure caches see a stable
  /// pattern.  Entries that receive no contribution stay as explicit 0.0,
  /// which is numerically inert for LU (zero multipliers are skipped and
  /// zero updates do not change values).
  void setZeroKeepStructure();

  const std::map<std::size_t, double>& row(std::size_t r) const {
    return rows_[r];
  }

  std::vector<double> multiply(std::span<const double> x) const;
  std::size_t nonZeros() const;

 private:
  std::vector<std::map<std::size_t, double>> rows_;
};

/// Sparse LU with partial (threshold) pivoting over the row maps.
class SparseLu {
 public:
  explicit SparseLu(const SparseMatrix& a);

  std::vector<double> solve(std::span<const double> b) const;

 private:
  std::vector<std::map<std::size_t, double>> lower_;  // unit diagonal implied
  std::vector<std::map<std::size_t, double>> upper_;
  std::vector<std::size_t> perm_;  // row permutation: perm_[k] = original row
};

/// Sparse LU with a reusable symbolic structure.
///
/// The MNA pattern of a frozen netlist is fixed, but `SparseLu` rediscovers
/// it from scratch on every Newton iteration: it copies the row maps, finds
/// fill-in positions by map insertion, and rebuilds the L/U maps.  This
/// class performs that symbolic analysis once and caches
///  * the full per-row fill pattern (original entries + fill),
///  * the pivot sequence the magnitude-based partial pivoting chose,
/// so later factorizations of a same-pattern matrix run *numerically only*
/// on preallocated contiguous arrays.
///
/// Correctness contract: `factor()` + `solve()` produce solutions that are
/// bit-identical to constructing a fresh `SparseLu` each time.  The numeric
/// refactorization replays the identical elimination arithmetic in the
/// identical order, and it re-runs the pivot *search* each call: if the
/// values have drifted enough that partial pivoting would pick a different
/// row (or the assembled pattern changed), the cache is discarded and a
/// full symbolic factorization runs instead — so pivot quality is never
/// sacrificed for speed.
class SparseLuFactorizer {
 public:
  SparseLuFactorizer() = default;

  /// Factor `a`, reusing the cached structure when possible.
  /// Throws NumericalError when the matrix is numerically singular.
  void factor(const SparseMatrix& a);

  /// Factor a CSR matrix with external value storage (compiled stamp
  /// pipeline).  The CSR pattern of a frozen netlist never changes, so
  /// after the first call every factorization takes the fast
  /// position-exact value-scatter path — no heap allocation unless the
  /// pivot sequence drifts and a full symbolic pass must rerun.
  void factor(const CsrView& a);

  /// Solve A x = b with the most recent factorization.
  std::vector<double> solve(std::span<const double> b) const;
  /// Allocation-free overload: x must be sized n.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Multi-RHS solve over `nrhs` column-contiguous right-hand sides (see
  /// DenseLuFactorizer::solveMulti).  One traversal of the cached factor
  /// serves all columns; per-column results are bit-identical to solve().
  void solveMulti(std::span<const double> b, std::span<double> x,
                  std::size_t nrhs) const;

  bool factored() const { return factored_; }

  /// Diagnostics: how many full (symbolic + numeric) factorizations and
  /// how many structure-reusing numeric refactorizations have run.
  long fullFactorizations() const { return fullFactorizations_; }
  long numericRefactorizations() const { return numericRefactorizations_; }
  /// Numeric refactorizations abandoned because partial pivoting chose a
  /// different row than the cached sequence (each one also counts a full
  /// factorization).
  long pivotFallbacks() const { return pivotFallbacks_; }

 private:
  bool loadValues(const SparseMatrix& a);
  bool loadValues(const CsrView& a);
  bool refactorNumeric();
  void factorFull(const SparseMatrix& a);

  std::size_t n_ = 0;
  bool factored_ = false;
  bool structureValid_ = false;

  // Cached structure, one entry per original row r:
  //  origCols_[r]  — assembled (pre-fill) pattern, ascending;
  //  fullCols_[r]  — assembled + fill pattern, ascending;
  //  origPos_[r]   — position of origCols_[r][k] inside fullCols_[r].
  std::vector<std::vector<std::size_t>> origCols_;
  std::vector<std::vector<std::size_t>> fullCols_;
  std::vector<std::vector<std::size_t>> origPos_;
  std::vector<std::size_t> cachedPerm_;  ///< pivot sequence of the cache

  // Current factorization (in-place LU over the full pattern): vals_[r][j]
  // holds, for column fullCols_[r][j], the L multiplier (col < pivot step
  // of row r) or the U value (col >= pivot step).
  std::vector<std::vector<double>> vals_;
  std::vector<std::size_t> perm_;  ///< position k -> original row
  /// Scratch for refactorNumeric's position -> row table; a member so a
  /// structure-reusing refactorization performs no heap allocation.
  std::vector<std::size_t> rowOfScratch_;

  long fullFactorizations_ = 0;
  long numericRefactorizations_ = 0;
  long pivotFallbacks_ = 0;
};

/// Facade unifying the direct solvers behind one interface: dense LU below
/// the crossover, sparse LU above it, with or without symbolic-structure
/// reuse.  One instance owns the reusable factorizers, so the Assembler
/// gets structure caching and allocation-free refactorization without
/// knowing which backend runs.  Every overload is bit-identical to calling
/// the underlying factorizer directly.
class LinearSolver {
 public:
  LinearSolver(std::size_t n, bool sparse) : n_(n), sparse_(sparse) {}

  std::size_t size() const { return n_; }
  bool sparse() const { return sparse_; }

  /// Solve A x = b for an n x n row-major matrix in external storage.
  /// The reusable-workspace dense LU always runs (it is bit-identical to a
  /// fresh DenseLu and allocates nothing after the first call), so there
  /// is no structure-reuse switch here.
  void solve(std::span<const double> rowMajor, std::span<const double> b,
             std::vector<double>& x);

  /// Solve A x = b for CSR assembly with external values (compiled path).
  /// With reuseStructure the steady state performs no heap allocation;
  /// without it the matrix is copied into a row-map and factored fresh.
  void solve(const CsrView& a, std::span<const double> b,
             std::vector<double>& x, bool reuseStructure);

  /// Structure-cache diagnostics (zeros on the dense path).
  const SparseLuFactorizer& sparseFactorizer() const { return sparseFactor_; }

 private:
  std::size_t n_;
  bool sparse_;
  SparseLuFactorizer sparseFactor_;
  DenseLuFactorizer denseFactor_;
};

/// Infinity norm of a vector.
double normInf(std::span<const double> v);

/// Euclidean norm of a vector.
double norm2(std::span<const double> v);

}  // namespace fefet::linalg
