#include "common/linalg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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
constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// The pivot rule over the candidates `rows` plus `extra` (kNone: none):
/// the largest magnitude, ties to the lowest row (`rowOf` maps a work
/// index to its row), unless `diag` — the diagonal's work index, kNone
/// when it is not a candidate — reaches kPivotThreshold of it.  The result
/// depends on the candidate set and its values only, not on their order.
/// Returns kNone when no candidate reaches 1e-300 (singular column).
template <typename RowOf>
std::uint32_t pivotRule(const double* work,
                        std::span<const std::uint32_t> rows,
                        std::uint32_t extra, std::uint32_t diag,
                        RowOf rowOf) {
  double maxMag = 0.0;
  std::uint32_t best = kNone;
  const auto consider = [&](std::uint32_t i) {
    const double mag = std::abs(work[i]);
    if (mag > maxMag ||
        (mag == maxMag && (best == kNone || rowOf(i) < rowOf(best)))) {
      maxMag = mag;
      best = i;
    }
  };
  for (const std::uint32_t i : rows) consider(i);
  if (extra != kNone) consider(extra);
  if (best == kNone || !(maxMag >= 1e-300)) return kNone;
  if (diag != kNone && std::abs(work[diag]) >= kPivotThreshold * maxMag) {
    return diag;
  }
  return best;
}

}  // namespace

// Greedy on the explicit elimination graph of A + A^T (diagonal ignored):
// repeatedly eliminate the vertex of least current degree (ties to the
// lowest index, so the order is deterministic) and turn its neighbourhood
// into a clique.  The graph holds exactly the symmetrised fill, which stays
// small on MNA patterns, and the ordering runs once per sparsity pattern.
std::vector<std::size_t> minimumDegreeOrder(const CsrView& pattern) {
  const std::size_t n = pattern.n;
  const std::span<const std::size_t> rowPtr = pattern.rowPtr;
  const std::span<const std::size_t> colIdx = pattern.colIdx;
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
  if (!samePattern(a)) analyzePattern(a, {});
  factorValues(a.values);
}

void SparseLuFactorizer::factor(const CsrView& a,
                                std::span<const std::size_t> order) {
  FEFET_REQUIRE(a.values.size() == a.colIdx.size(),
                "SparseLuFactorizer: CSR values/pattern size mismatch");
  FEFET_REQUIRE(order.size() == a.n,
                "SparseLuFactorizer: column order size mismatch");
  if (!samePattern(a) ||
      !std::equal(order.begin(), order.end(), q_.begin(), q_.end())) {
    analyzePattern(a, order);
  }
  factorValues(a.values);
}

void SparseLuFactorizer::refactor(std::span<const double> values) {
  FEFET_REQUIRE(analyzed_,
                "SparseLuFactorizer::refactor called before factor()");
  FEFET_REQUIRE(values.size() == patColIdx_.size(),
                "SparseLuFactorizer: CSR values/pattern size mismatch");
  // Exact reuse: values bitwise equal to the ones the current factor was
  // computed from (so -0.0 and +0.0 differ) would refactor to the same
  // bits.
  if (valuesKept_ &&
      (values.empty() ||  // memcmp must not see a null pointer
       std::memcmp(values.data(), factoredValues_.data(),
                   values.size() * sizeof(double)) == 0)) {
    ++factorReuses_;
    return;
  }
  factorValues(values);
  factoredValues_.assign(values.begin(), values.end());
  valuesKept_ = true;
}

void SparseLuFactorizer::factorValues(std::span<const double> values) {
  factored_ = false;
  valuesKept_ = false;
  if (structureValid_) {
    if (refactorNumeric(values)) {
      ++numericRefactorizations_;
      factored_ = true;
      return;
    }
    ++pivotFallbacks_;
  }
  factorFull(values);
}

bool SparseLuFactorizer::samePattern(const CsrView& a) const {
  return analyzed_ && a.n == n_ &&
         std::equal(a.rowPtr.begin(), a.rowPtr.end(), patRowPtr_.begin(),
                    patRowPtr_.end()) &&
         std::equal(a.colIdx.begin(), a.colIdx.end(), patColIdx_.begin(),
                    patColIdx_.end());
}

void SparseLuFactorizer::analyzePattern(const CsrView& a,
                                        std::span<const std::size_t> order) {
  FEFET_REQUIRE(a.rowPtr.size() == a.n + 1 &&
                    a.colIdx.size() == a.rowPtr[a.n],
                "SparseLuFactorizer: malformed CSR view");
  FEFET_REQUIRE(a.n < kNone && a.colIdx.size() < kNone,
                "SparseLuFactorizer: too large for 32-bit indices");
  const std::size_t n = a.n;
  for (const std::size_t c : a.colIdx) {
    FEFET_REQUIRE(c < n, "SparseLuFactorizer: column index out of range");
  }
  n_ = n;
  analyzed_ = false;
  structureValid_ = false;
  patRowPtr_.assign(a.rowPtr.begin(), a.rowPtr.end());
  patColIdx_.assign(a.colIdx.begin(), a.colIdx.end());
  if (order.empty()) {
    const auto minDegree = minimumDegreeOrder(a);
    q_.assign(minDegree.begin(), minDegree.end());
  } else {
    std::vector<bool> seen(n, false);
    for (const std::size_t c : order) {
      FEFET_REQUIRE(c < n && !seen[c],
                    "SparseLuFactorizer: column order is not a permutation");
      seen[c] = true;
    }
    q_.assign(order.begin(), order.end());
  }
  work_.assign(n, 0.0);
  factoredValues_.assign(patColIdx_.size(), 0.0);
  valuesKept_ = false;
  analyzed_ = true;
}

void SparseLuFactorizer::throwSingular(std::size_t k) const {
  std::ostringstream os;
  os << "SparseLu: singular matrix at elimination step " << k << " of "
     << n_;
  throw NumericalError(os.str());
}

void SparseLuFactorizer::factorFull(std::span<const double> values) {
  const std::size_t n = n_;
  structureValid_ = false;
  ++fullFactorizations_;

  // Transpose of the pattern: column c holds rows colRows[colPtr[c] ..
  // colPtr[c + 1]), whose values sit at CSR positions colSrc[...].
  std::vector<Index> colPtr(n + 1, 0);
  for (const Index c : patColIdx_) ++colPtr[c + 1];
  for (std::size_t c = 0; c < n; ++c) colPtr[c + 1] += colPtr[c];
  std::vector<Index> colRows(patColIdx_.size());
  std::vector<Index> colSrc(patColIdx_.size());
  std::vector<Index> next(colPtr.begin(), colPtr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (Index p = patRowPtr_[r]; p < patRowPtr_[r + 1]; ++p) {
      const Index dst = next[patColIdx_[p]]++;
      colRows[dst] = static_cast<Index>(r);
      colSrc[dst] = p;
    }
  }

  std::fill(work_.begin(), work_.end(), 0.0);
  perm_.clear();
  diag_.assign(n, kNone);
  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  udiag_.assign(n, 0.0);

  // Until compileProgram() runs, li_ holds row indices.  Reach search
  // state: the step that pivoted each row, the step that last visited it,
  // the pivot candidates, the visited steps in postorder and the
  // depth-first stack of (step, next L entry).
  std::vector<Index> rowStep(n, kNone);
  std::vector<Index> mark(n, kNone);
  std::vector<Index> candidates;
  std::vector<Index> postorder;
  std::vector<std::pair<Index, Index>> stack;
  double* work = work_.data();
  for (std::size_t k = 0; k < n; ++k) {
    // Reach of column q_[k] through the L columns found so far: the
    // unpivoted rows it fills (the pivot candidates) and, by depth-first
    // search, the earlier steps it depends on in postorder — reversed,
    // that is a valid elimination order.
    const Index step = static_cast<Index>(k);
    candidates.clear();
    postorder.clear();
    const auto visit = [&](Index r) {
      if (mark[r] == step) return;
      mark[r] = step;
      if (rowStep[r] == kNone) {
        candidates.push_back(r);
      } else {
        stack.emplace_back(rowStep[r], lp_[rowStep[r]]);
      }
    };
    const Index c = q_[k];
    for (Index p = colPtr[c]; p < colPtr[c + 1]; ++p) {
      visit(colRows[p]);
      while (!stack.empty()) {
        const Index j = stack.back().first;
        const Index nextL = stack.back().second;
        if (nextL < lp_[j + 1]) {
          ++stack.back().second;
          visit(li_[nextL]);
        } else {
          postorder.push_back(j);
          stack.pop_back();
        }
      }
    }
    ui_.insert(ui_.end(), postorder.rbegin(), postorder.rend());
    up_.push_back(static_cast<Index>(ui_.size()));
    ux_.resize(ui_.size());

    // Scatter column q_[k], then apply the L columns of the earlier steps
    // it reaches in topological order: each U entry is final when read.
    for (Index p = colPtr[c]; p < colPtr[c + 1]; ++p) {
      work[colRows[p]] = values[colSrc[p]];
    }
    for (Index t = up_[k]; t < up_[k + 1]; ++t) {
      const Index j = ui_[t];
      const Index r = perm_[j];
      const double v = work[r];
      work[r] = 0.0;
      ux_[t] = v;
      for (Index p = lp_[j]; p < lp_[j + 1]; ++p) work[li_[p]] -= lx_[p] * v;
    }

    const bool diagIsCandidate = mark[c] == step && rowStep[c] == kNone;
    const Index diag = diagIsCandidate ? c : kNone;
    const Index prow = pivotRule(work, candidates, kNone, diag,
                                 [](Index r) { return r; });
    if (prow == kNone) {
      for (const Index r : candidates) work[r] = 0.0;
      throwSingular(k);
    }
    perm_.push_back(prow);
    rowStep[prow] = step;
    diag_[k] = diag;
    for (const Index r : candidates) {
      if (r != prow) li_.push_back(r);
    }
    lp_.push_back(static_cast<Index>(li_.size()));
    lx_.resize(li_.size());

    const double pivot = work[prow];
    work[prow] = 0.0;
    udiag_[k] = pivot;
    for (Index p = lp_[k]; p < lp_[k + 1]; ++p) {
      lx_[p] = work[li_[p]] / pivot;
      work[li_[p]] = 0.0;
    }
  }

  compileProgram(colPtr, colRows, colSrc, rowStep);
  structureValid_ = true;
  factored_ = true;
}

void SparseLuFactorizer::compileProgram(std::span<const Index> colPtr,
                                        std::span<const Index> colRows,
                                        std::span<const Index> colSrc,
                                        std::span<const Index> rowStep) {
  const std::size_t n = n_;
  // Row r's unknown lives at slot q_[rowStep[r]]; step k's pivot row at
  // slot q_[k].
  const auto slotOf = [&](Index r) { return q_[rowStep[r]]; };
  slotRow_.resize(n);
  for (std::size_t k = 0; k < n; ++k) slotRow_[q_[k]] = perm_[k];
  for (Index& r : li_) r = slotOf(r);
  for (Index& d : diag_) {
    if (d != kNone) d = slotOf(d);
  }

  // Per step: a U entry whose row no earlier update of the step touches
  // still holds its gathered CSR value when read, so it is copied straight
  // from the CSR values instead; every other CSR entry of the column is
  // gathered.  An entry with no L entries to apply writes nothing, and no
  // update of the step writes its row after the topological order reads
  // it, so it may be read last.  Reordering a step's U entries leaves the
  // substitutions unchanged: they update distinct unknowns.
  // source[s] is the CSR position of slot s in column q_[k] while
  // inColumn[s] == k; touched[s] == k once an update of step k wrote s.
  gp_.assign(1, 0);
  gslot_.clear();
  gsrc_.clear();
  copyU_.clear();
  copySrc_.clear();
  uApplyEnd_.resize(n);
  uTakeEnd_.resize(n);
  utake_.resize(ui_.size());
  std::vector<Index> source(n);
  std::vector<Index> inColumn(n, kNone);
  std::vector<Index> touched(n, kNone);
  struct Entry {
    Index step;
    double value;
    Index src;  ///< CSR position when copied, else kNone
  };
  std::vector<Entry> apply;
  std::vector<Entry> take;
  std::vector<Entry> copied;
  for (std::size_t k = 0; k < n; ++k) {
    const Index step = static_cast<Index>(k);
    const Index c = q_[k];
    for (Index p = colPtr[c]; p < colPtr[c + 1]; ++p) {
      const Index s = slotOf(colRows[p]);
      source[s] = colSrc[p];
      inColumn[s] = step;
    }
    apply.clear();
    take.clear();
    copied.clear();
    for (Index t = up_[k]; t < up_[k + 1]; ++t) {
      const Index j = ui_[t];
      const Index s = q_[j];
      Entry e{j, ux_[t], kNone};
      if (inColumn[s] == step && touched[s] != step) {
        e.src = source[s];
        inColumn[s] = kNone;  // copied, not gathered
      }
      for (Index p = lp_[j]; p < lp_[j + 1]; ++p) touched[li_[p]] = step;
      if (lp_[j] < lp_[j + 1]) {
        apply.push_back(e);
      } else {
        (e.src == kNone ? take : copied).push_back(e);
      }
    }
    Index t = up_[k];
    const auto emit = [&](const std::vector<Entry>& entries) {
      for (const Entry& e : entries) {
        ui_[t] = e.step;
        ux_[t] = e.value;
        utake_[t] = e.src == kNone ? q_[e.step] : kNone;
        if (e.src != kNone) {
          copyU_.push_back(t);
          copySrc_.push_back(e.src);
        }
        ++t;
      }
    };
    emit(apply);
    uApplyEnd_[k] = t;
    emit(take);
    uTakeEnd_[k] = t;
    emit(copied);
    for (Index p = colPtr[c]; p < colPtr[c + 1]; ++p) {
      const Index s = slotOf(colRows[p]);
      if (inColumn[s] == step) {
        gslot_.push_back(s);
        gsrc_.push_back(colSrc[p]);
      }
    }
    gp_.push_back(static_cast<Index>(gslot_.size()));
  }
}

bool SparseLuFactorizer::refactorNumeric(std::span<const double> values) {
  // Runs the compiled program: factorFull()'s arithmetic in the same
  // order, and at every step the same pivot rule over the same candidate
  // set (the cached L rows plus the cached pivot row), so agreement at
  // every step means the result matches a fresh factorization exactly.
  double* work = work_.data();
  double* ux = ux_.data();
  const double* a = values.data();
  for (std::size_t i = 0; i < copyU_.size(); ++i) ux[copyU_[i]] = a[copySrc_[i]];
  const auto rowOf = [this](Index s) { return slotRow_[s]; };
  for (std::size_t k = 0; k < n_; ++k) {
    for (Index g = gp_[k]; g < gp_[k + 1]; ++g) work[gslot_[g]] = a[gsrc_[g]];
    for (Index t = up_[k]; t < uApplyEnd_[k]; ++t) {
      const Index s = utake_[t];
      if (s != kNone) {
        ux[t] = work[s];
        work[s] = 0.0;
      }
      const double v = ux[t];
      const Index j = ui_[t];
      for (Index p = lp_[j]; p < lp_[j + 1]; ++p) work[li_[p]] -= lx_[p] * v;
    }
    for (Index t = uApplyEnd_[k]; t < uTakeEnd_[k]; ++t) {
      const Index s = utake_[t];
      ux[t] = work[s];
      work[s] = 0.0;
    }
    const Index pslot = q_[k];
    const std::span<const Index> rows(li_.data() + lp_[k],
                                      lp_[k + 1] - lp_[k]);
    const Index chosen = pivotRule(work, rows, pslot, diag_[k], rowOf);
    if (chosen != pslot) {  // singular column or pivot drift
      for (const Index s : rows) work[s] = 0.0;
      work[pslot] = 0.0;
      if (chosen == kNone) throwSingular(k);
      return false;
    }
    const double pivot = work[pslot];
    work[pslot] = 0.0;
    udiag_[k] = pivot;
    for (Index p = lp_[k]; p < lp_[k + 1]; ++p) {
      lx_[p] = work[li_[p]] / pivot;
      work[li_[p]] = 0.0;
    }
  }
  return true;
}

std::vector<SparseLuFactorizer::Step> SparseLuFactorizer::steps() const {
  std::vector<Step> steps;
  if (!structureValid_) return steps;
  steps.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    Step& step = steps[k];
    step.column = q_[k];
    step.pivotRow = perm_[k];
    step.pivot = udiag_[k];
    for (Index p = lp_[k]; p < lp_[k + 1]; ++p) {
      step.lower.emplace_back(slotRow_[li_[p]], lx_[p]);
    }
    for (Index t = up_[k]; t < up_[k + 1]; ++t) {
      step.upper.emplace_back(perm_[ui_[t]], ux_[t]);
    }
  }
  return steps;
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
    for (Index p = lp_[j]; p < lp_[j + 1]; ++p) x[li_[p]] -= lx_[p] * v;
  }
  // Backward substitution on U, column by column.
  for (std::size_t k = n_; k-- > 0;) {
    const double v = x[q_[k]] / udiag_[k];
    x[q_[k]] = v;
    for (Index t = up_[k]; t < up_[k + 1]; ++t) {
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
    for (Index p = lp_[j]; p < lp_[j + 1]; ++p) {
      const double l = lx_[p];
      const std::size_t si = li_[p];
      for (std::size_t c = 0; c < nrhs; ++c) {
        x[c * n_ + si] -= l * x[c * n_ + sj];
      }
    }
  }
  for (std::size_t k = n_; k-- > 0;) {
    const std::size_t sk = q_[k];
    const double diag = udiag_[k];
    for (std::size_t c = 0; c < nrhs; ++c) x[c * n_ + sk] /= diag;
    for (Index t = up_[k]; t < up_[k + 1]; ++t) {
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

}  // namespace fefet::linalg
