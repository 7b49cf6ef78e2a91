#include "common/linalg.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace fefet::linalg {

void DenseMatrix::setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

std::vector<double> DenseMatrix::multiply(std::span<const double> x) const {
  FEFET_REQUIRE(x.size() == cols_, "DenseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += at(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

namespace detail {

void denseLuFactorInPlace(DenseMatrix& lu, std::vector<std::size_t>& perm) {
  FEFET_REQUIRE(lu.rows() == lu.cols(), "dense LU: matrix not square");
  const std::size_t n = lu.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k at/below k.
    std::size_t pivotRow = k;
    double pivotMag = std::abs(lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu.at(r, k));
      if (mag > pivotMag) {
        pivotMag = mag;
        pivotRow = r;
      }
    }
    if (pivotMag < 1e-300) {
      std::ostringstream os;
      os << "dense LU: singular matrix at elimination step " << k << " of "
         << n;
      throw NumericalError(os.str());
    }
    if (pivotRow != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu.at(k, c), lu.at(pivotRow, c));
      }
      std::swap(perm[k], perm[pivotRow]);
    }
    const double pivot = lu.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu.at(r, k) / pivot;
      lu.at(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu.at(r, c) -= factor * lu.at(k, c);
      }
    }
  }
}

void denseLuSolve(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                  std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  FEFET_REQUIRE(b.size() == n && x.size() == n,
                "dense LU solve: size mismatch");
  // Apply permutation, then forward substitution on unit-lower L.
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu.at(i, j) * x[j];
    x[i] = acc;
  }
  // Backward substitution on U.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu.at(i, j) * x[j];
    x[i] = acc / lu.at(i, i);
  }
}

}  // namespace detail

void DenseLuFactorizer::factor(std::size_t n, std::span<const double> rowMajor) {
  FEFET_REQUIRE(rowMajor.size() == n * n,
                "DenseLuFactorizer: matrix storage size mismatch");
  factored_ = false;
  if (lu_.rows() != n) lu_ = DenseMatrix(n, n);
  std::copy(rowMajor.begin(), rowMajor.end(), lu_.data().begin());
  detail::denseLuFactorInPlace(lu_, perm_);
  factored_ = true;
}

void DenseLuFactorizer::solve(std::span<const double> b,
                              std::span<double> x) const {
  FEFET_REQUIRE(factored_, "DenseLuFactorizer::solve called before factor()");
  detail::denseLuSolve(lu_, perm_, b, x);
}

void SparseMatrix::setZero() {
  for (auto& row : rows_) row.clear();
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  FEFET_REQUIRE(x.size() == rows_.size(), "SparseMatrix::multiply: size mismatch");
  std::vector<double> y(rows_.size(), 0.0);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    double acc = 0.0;
    for (const auto& [c, v] : rows_[r]) acc += v * x[c];
    y[r] = acc;
  }
  return y;
}

std::size_t SparseMatrix::nonZeros() const {
  std::size_t nz = 0;
  for (const auto& row : rows_) nz += row.size();
  return nz;
}

namespace {

/// Threshold of the diagonal-preferring pivot rule: the diagonal candidate
/// is kept while its magnitude is at least this fraction of the column's
/// largest candidate (KLU's default).
constexpr double kPivotThreshold = 0.1;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Minimum-degree ordering of the pattern of A + A^T (diagonal ignored).
/// Greedy on the explicit elimination graph: repeatedly eliminate the
/// vertex of least current degree (ties to the lowest index, so the order
/// is deterministic) and turn its neighbourhood into a clique.  The graph
/// holds exactly the symmetrised fill, which stays small on MNA patterns,
/// and the ordering runs once per sparsity pattern.
std::vector<std::size_t> minimumDegreeOrder(std::size_t n,
                                            std::span<const std::size_t> rowPtr,
                                            std::span<const std::size_t> colIdx) {
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rowPtr[r]; p < rowPtr[r + 1]; ++p) {
      const std::size_t c = colIdx[p];
      if (c == r) continue;
      adj[r].push_back(c);
      adj[c].push_back(r);
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> byDegree;  // (degree, vertex)
  for (std::size_t v = 0; v < n; ++v) {
    auto& a = adj[v];
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    byDegree.emplace(a.size(), v);
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> merged;
  while (!byDegree.empty()) {
    const std::size_t p = byDegree.begin()->second;
    byDegree.erase(byDegree.begin());
    order.push_back(p);
    const std::vector<std::size_t> clique = std::move(adj[p]);
    adj[p] = {};
    for (const std::size_t u : clique) {
      auto& au = adj[u];
      byDegree.erase({au.size(), u});
      merged.clear();
      std::set_union(au.begin(), au.end(), clique.begin(), clique.end(),
                     std::back_inserter(merged));
      std::erase_if(merged, [&](std::size_t v) { return v == p || v == u; });
      au.swap(merged);
      byDegree.emplace(au.size(), u);
    }
  }
  return order;
}

}  // namespace

void SparseLuFactorizer::factor(const SparseMatrix& a) {
  std::vector<std::size_t> rowPtr{0};
  std::vector<std::size_t> colIdx;
  std::vector<double> values;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (const auto& [c, v] : a.row(r)) {
      colIdx.push_back(c);
      values.push_back(v);
    }
    rowPtr.push_back(colIdx.size());
  }
  factor(CsrView{a.size(), rowPtr, colIdx, values});
}

void SparseLuFactorizer::factor(const CsrView& a) {
  FEFET_REQUIRE(a.values.size() == a.colIdx.size(),
                "SparseLuFactorizer: CSR values/pattern size mismatch");
  factored_ = false;
  if (samePattern(a)) {
    if (structureValid_) {
      if (refactorNumeric(a)) {
        ++numericRefactorizations_;
        factored_ = true;
        return;
      }
      ++pivotFallbacks_;
    }
  } else {
    analyzePattern(a);
  }
  factorFull(a);
}

bool SparseLuFactorizer::samePattern(const CsrView& a) const {
  return analyzed_ && a.n == n_ &&
         std::equal(a.rowPtr.begin(), a.rowPtr.end(), patRowPtr_.begin(),
                    patRowPtr_.end()) &&
         std::equal(a.colIdx.begin(), a.colIdx.end(), patColIdx_.begin(),
                    patColIdx_.end());
}

void SparseLuFactorizer::analyzePattern(const CsrView& a) {
  FEFET_REQUIRE(a.rowPtr.size() == a.n + 1 &&
                    a.colIdx.size() == a.rowPtr[a.n],
                "SparseLuFactorizer: malformed CSR view");
  const std::size_t n = a.n;
  n_ = n;
  analyzed_ = false;
  structureValid_ = false;
  patRowPtr_.assign(a.rowPtr.begin(), a.rowPtr.end());
  patColIdx_.assign(a.colIdx.begin(), a.colIdx.end());

  // Transpose, so step k can scatter column q_[k] of the CSR values.
  colPtr_.assign(n + 1, 0);
  for (const std::size_t c : patColIdx_) {
    FEFET_REQUIRE(c < n, "SparseLuFactorizer: column index out of range");
    ++colPtr_[c + 1];
  }
  for (std::size_t c = 0; c < n; ++c) colPtr_[c + 1] += colPtr_[c];
  colRows_.resize(patColIdx_.size());
  colSrc_.resize(patColIdx_.size());
  std::vector<std::size_t> next(colPtr_.begin(), colPtr_.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = patRowPtr_[r]; p < patRowPtr_[r + 1]; ++p) {
      const std::size_t dst = next[patColIdx_[p]]++;
      colRows_[dst] = r;
      colSrc_[dst] = p;
    }
  }

  q_ = minimumDegreeOrder(n, patRowPtr_, patColIdx_);
  work_.assign(n, 0.0);
  analyzed_ = true;
}

void SparseLuFactorizer::solveColumn(std::size_t k,
                                     std::span<const double> values) {
  // Scatter column q_[k] into the (all-zero) working column, then apply
  // the L columns of the earlier steps it reaches, in topological order:
  // each step's U entry is final when it is read.
  const std::size_t c = q_[k];
  for (std::size_t p = colPtr_[c]; p < colPtr_[c + 1]; ++p) {
    work_[colRows_[p]] = values[colSrc_[p]];
  }
  for (std::size_t t = up_[k]; t < up_[k + 1]; ++t) {
    const std::size_t j = ui_[t];
    const std::size_t r = perm_[j];
    const double v = work_[r];
    work_[r] = 0.0;
    ux_[t] = v;
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) {
      work_[li_[p]] -= lx_[p] * v;
    }
  }
}

std::size_t SparseLuFactorizer::choosePivot(
    std::size_t k, std::span<const std::size_t> rows, std::size_t extraRow) {
  // The rule depends only on the candidate set and its values, not on the
  // order the candidates are listed in.
  const std::size_t diagRow = q_[k];
  double maxMag = 0.0;
  std::size_t best = kNone;
  bool hasDiag = false;
  const auto consider = [&](std::size_t r) {
    const double mag = std::abs(work_[r]);
    if (mag > maxMag || (mag == maxMag && r < best)) {
      maxMag = mag;
      best = r;
    }
    hasDiag = hasDiag || r == diagRow;
  };
  for (const std::size_t r : rows) consider(r);
  if (extraRow != kNone) consider(extraRow);
  if (best == kNone || !(maxMag >= 1e-300)) {
    for (const std::size_t r : rows) work_[r] = 0.0;
    if (extraRow != kNone) work_[extraRow] = 0.0;
    std::ostringstream os;
    os << "SparseLu: singular matrix at elimination step " << k << " of "
       << n_;
    throw NumericalError(os.str());
  }
  if (hasDiag && std::abs(work_[diagRow]) >= kPivotThreshold * maxMag) {
    return diagRow;
  }
  return best;
}

void SparseLuFactorizer::storeColumn(std::size_t k) {
  const std::size_t prow = perm_[k];
  const double pivot = work_[prow];
  work_[prow] = 0.0;
  udiag_[k] = pivot;
  for (std::size_t p = lp_[k]; p < lp_[k + 1]; ++p) {
    lx_[p] = work_[li_[p]] / pivot;
    work_[li_[p]] = 0.0;
  }
}

bool SparseLuFactorizer::refactorNumeric(const CsrView& a) {
  // Replays factorFull() on the cached patterns: the same kernel, and at
  // every step the same pivot rule over the same candidate set (the cached
  // L rows plus the cached pivot row), so agreement at every step means
  // the arithmetic matches a fresh factorization exactly.
  for (std::size_t k = 0; k < n_; ++k) {
    solveColumn(k, a.values);
    const std::span<const std::size_t> rows(li_.data() + lp_[k],
                                            lp_[k + 1] - lp_[k]);
    if (choosePivot(k, rows, perm_[k]) != perm_[k]) {  // pivot drift
      for (const std::size_t r : rows) work_[r] = 0.0;
      work_[perm_[k]] = 0.0;
      return false;
    }
    storeColumn(k);
  }
  return true;
}

void SparseLuFactorizer::factorFull(const CsrView& a) {
  const std::size_t n = n_;
  structureValid_ = false;
  ++fullFactorizations_;

  std::fill(work_.begin(), work_.end(), 0.0);
  perm_.clear();
  rowStep_.assign(n, kNone);
  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  udiag_.assign(n, 0.0);

  // Reach search state: the step that last visited each row, the pivot
  // candidates, the visited steps in postorder and the depth-first stack
  // of (step, next L entry).
  std::vector<std::size_t> mark(n, kNone);
  std::vector<std::size_t> candidates;
  std::vector<std::size_t> postorder;
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  for (std::size_t k = 0; k < n; ++k) {
    // Reach of column q_[k] through the L columns found so far: the
    // unpivoted rows it fills (the pivot candidates) and, by depth-first
    // search, the earlier steps it depends on in postorder — reversed,
    // that is a valid elimination order.
    candidates.clear();
    postorder.clear();
    const auto visit = [&](std::size_t r) {
      if (mark[r] == k) return;
      mark[r] = k;
      if (rowStep_[r] == kNone) {
        candidates.push_back(r);
      } else {
        stack.emplace_back(rowStep_[r], lp_[rowStep_[r]]);
      }
    };
    const std::size_t c = q_[k];
    for (std::size_t p = colPtr_[c]; p < colPtr_[c + 1]; ++p) {
      visit(colRows_[p]);
      while (!stack.empty()) {
        const std::size_t j = stack.back().first;
        const std::size_t next = stack.back().second;
        if (next < lp_[j + 1]) {
          ++stack.back().second;
          visit(li_[next]);
        } else {
          postorder.push_back(j);
          stack.pop_back();
        }
      }
    }
    ui_.insert(ui_.end(), postorder.rbegin(), postorder.rend());
    up_.push_back(ui_.size());
    ux_.resize(ui_.size());

    solveColumn(k, a.values);
    const std::size_t prow = choosePivot(k, candidates, kNone);
    perm_.push_back(prow);
    rowStep_[prow] = k;
    for (const std::size_t r : candidates) {
      if (r != prow) li_.push_back(r);
    }
    lp_.push_back(li_.size());
    lx_.resize(li_.size());
    storeColumn(k);
  }

  rowSlot_.resize(n);
  for (std::size_t r = 0; r < n; ++r) rowSlot_[r] = q_[rowStep_[r]];
  structureValid_ = true;
  factored_ = true;
}

std::vector<double> SparseLuFactorizer::solve(
    std::span<const double> b) const {
  std::vector<double> x(n_);
  solve(b, x);
  return x;
}

void SparseLuFactorizer::solve(std::span<const double> b,
                               std::span<double> x) const {
  FEFET_REQUIRE(factored_, "SparseLuFactorizer::solve called before factor()");
  FEFET_REQUIRE(b.size() == n_ && x.size() == n_,
                "SparseLuFactorizer::solve: size mismatch");
  // Step k's unknown lives at x[q_[k]] throughout, so the column
  // permutation costs nothing and x needs no scratch copy.
  for (std::size_t k = 0; k < n_; ++k) x[q_[k]] = b[perm_[k]];
  // Forward substitution on unit-lower L, column by column.
  for (std::size_t j = 0; j < n_; ++j) {
    const double v = x[q_[j]];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) {
      x[rowSlot_[li_[p]]] -= lx_[p] * v;
    }
  }
  // Backward substitution on U, column by column.
  for (std::size_t k = n_; k-- > 0;) {
    const double v = x[q_[k]] / udiag_[k];
    x[q_[k]] = v;
    for (std::size_t t = up_[k]; t < up_[k + 1]; ++t) {
      x[q_[ui_[t]]] -= ux_[t] * v;
    }
  }
}

void SparseLuFactorizer::solveMulti(std::span<const double> b,
                                    std::span<double> x,
                                    std::size_t nrhs) const {
  FEFET_REQUIRE(factored_,
                "SparseLuFactorizer::solveMulti called before factor()");
  FEFET_REQUIRE(b.size() == n_ * nrhs && x.size() == n_ * nrhs,
                "SparseLuFactorizer::solveMulti: size mismatch");
  for (std::size_t c = 0; c < nrhs; ++c) {
    for (std::size_t k = 0; k < n_; ++k) x[c * n_ + q_[k]] = b[c * n_ + perm_[k]];
  }
  // Both substitutions blocked over columns: every elimination update is
  // applied to all right-hand sides before moving on, so each column sees
  // the identical operation sequence as the scalar solve().
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t sj = q_[j];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) {
      const double l = lx_[p];
      const std::size_t si = rowSlot_[li_[p]];
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n_ + si] -= l * x[c * n_ + sj];
      }
    }
  }
  for (std::size_t k = n_; k-- > 0;) {
    const std::size_t sk = q_[k];
    const double diag = udiag_[k];
    for (std::size_t c = 0; c < nrhs; ++c) x[c * n_ + sk] /= diag;
    for (std::size_t t = up_[k]; t < up_[k + 1]; ++t) {
      const double u = ux_[t];
      const std::size_t si = q_[ui_[t]];
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n_ + si] -= u * x[c * n_ + sk];
      }
    }
  }
}

double normInf(std::span<const double> v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::abs(e));
  return m;
}

double norm2(std::span<const double> v) {
  double acc = 0.0;
  for (double e : v) acc += e * e;
  return std::sqrt(acc);
}

}  // namespace fefet::linalg
