#include "common/schur.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fefet::linalg {

/// Per-block state: the local CSR pattern with its gather program into the
/// global CSR values, the border coupling triplets (B above, C left of the
/// corner), the sparse LU factorizer, the cached value copies the collapse
/// state machine compares against, and per-solve scratch.
struct SchurSolver::Block {
  std::vector<int> rows_;  ///< global rows, local order

  // Interior pattern (local CSR) + gather positions into the global values.
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<std::size_t> gatherA_;
  std::vector<double> valsA_;

  // Border couplings.  bk indexes bcols_ (the compressed list of border
  // rows/cols this block touches).
  struct BEntry {
    int li = 0;
    int bk = 0;
    std::size_t gpos = 0;
  };
  struct CEntry {
    int bk = 0;
    int lj = 0;
    std::size_t gpos = 0;
  };
  std::vector<BEntry> bEntries_;
  std::vector<CEntry> cEntries_;
  std::vector<double> valsB_;
  std::vector<double> valsC_;
  std::vector<int> bcols_;  ///< border-local indices, ascending

  // Cached copies of the values the current factor (and the block's
  // contribution inside sBlocks_) was computed from.
  std::vector<double> cachedA_;
  std::vector<double> cachedB_;
  std::vector<double> cachedC_;

  bool factored = false;
  bool collapsed = false;
  int quiet = 0;

  SparseLuFactorizer sparseFac_;

  // Per-solve results consumed by the serial border phase.
  std::vector<double> y_;   ///< A_b^{-1} f_b
  std::vector<double> gy_;  ///< C_b y_b (compressed border indexing)

  int nb() const { return static_cast<int>(rows_.size()); }
  int kb() const { return static_cast<int>(bcols_.size()); }
};

namespace {

/// Collapse band on gathered values: an entry is quiet when
/// |v - cached| <= kCollapseAbsTol + kCollapseRelTol * |cached|.
constexpr double kCollapseAbsTol = 1e-12;
constexpr double kCollapseRelTol = 1e-5;
/// Consecutive quiet evaluations before a block collapses.
constexpr int kCollapseQuietEvals = 3;

bool leavesBand(double v, double cached) {
  return std::abs(v - cached) >
         kCollapseAbsTol + kCollapseRelTol * std::abs(cached);
}

/// Quiet check: every value inside the collapse band.  Also reports
/// bitwise equality (the exact refactor-skip fast path).
struct DriftReport {
  bool exact = true;
  bool quiet = true;
};

void checkDrift(std::span<const double> cur, std::span<const double> cached,
                DriftReport* report) {
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const double c = cur[i];
    const double p = cached[i];
    if (c != p) {
      report->exact = false;
      if (leavesBand(c, p)) {
        report->quiet = false;
        return;
      }
    }
  }
}

}  // namespace

SchurSolver::SchurSolver(std::span<const std::size_t> rowPtr,
                         std::span<const std::size_t> colIdx,
                         SchurPartition partition)
    : n_(partition.n) {
  FEFET_REQUIRE(n_ >= 1, "SchurSolver: empty system");
  FEFET_REQUIRE(rowPtr.size() == static_cast<std::size_t>(n_) + 1,
                "SchurSolver: rowPtr size mismatch");

  // Row -> (block, local index) map; border rows get block -1.
  constexpr int kBorder = -1;
  constexpr int kUnassigned = -2;
  std::vector<int> blockOf(static_cast<std::size_t>(n_), kUnassigned);
  std::vector<int> localOf(static_cast<std::size_t>(n_), -1);
  borderRows_ = partition.borderRows;
  std::sort(borderRows_.begin(), borderRows_.end());
  nBorder_ = static_cast<int>(borderRows_.size());
  for (int k = 0; k < nBorder_; ++k) {
    const int g = borderRows_[static_cast<std::size_t>(k)];
    FEFET_REQUIRE(g >= 0 && g < n_ && blockOf[static_cast<std::size_t>(g)] == kUnassigned,
                  "SchurSolver: bad/duplicate border row");
    blockOf[static_cast<std::size_t>(g)] = kBorder;
    localOf[static_cast<std::size_t>(g)] = k;
  }
  for (std::size_t b = 0; b < partition.blocks.size(); ++b) {
    const auto& rows = partition.blocks[b];
    FEFET_REQUIRE(!rows.empty(), "SchurSolver: empty block");
    for (std::size_t li = 0; li < rows.size(); ++li) {
      const int g = rows[li];
      FEFET_REQUIRE(g >= 0 && g < n_ && blockOf[static_cast<std::size_t>(g)] == kUnassigned,
                    "SchurSolver: row assigned twice in partition");
      blockOf[static_cast<std::size_t>(g)] = static_cast<int>(b);
      localOf[static_cast<std::size_t>(g)] = static_cast<int>(li);
    }
  }
  for (int g = 0; g < n_; ++g) {
    FEFET_REQUIRE(blockOf[static_cast<std::size_t>(g)] != kUnassigned,
                  "SchurSolver: row " + std::to_string(g) +
                      " missing from partition");
  }

  // Build per-block gather programs from the pattern.
  blocks_.reserve(partition.blocks.size());
  for (std::size_t b = 0; b < partition.blocks.size(); ++b) {
    auto blk = std::make_unique<Block>();
    blk->rows_ = partition.blocks[b];
    const int nb = blk->nb();

    // First pass: discover which border columns the block touches (from
    // both B and C entries) so bcols_ indexes stay compact.
    std::vector<int> touched;  // border-local indices
    for (int li = 0; li < nb; ++li) {
      const int g = blk->rows_[static_cast<std::size_t>(li)];
      for (std::size_t p = rowPtr[static_cast<std::size_t>(g)];
           p < rowPtr[static_cast<std::size_t>(g) + 1]; ++p) {
        const int gc = static_cast<int>(colIdx[p]);
        if (blockOf[static_cast<std::size_t>(gc)] == kBorder) {
          touched.push_back(localOf[static_cast<std::size_t>(gc)]);
        }
      }
    }
    for (int k = 0; k < nBorder_; ++k) {
      const int g = borderRows_[static_cast<std::size_t>(k)];
      for (std::size_t p = rowPtr[static_cast<std::size_t>(g)];
           p < rowPtr[static_cast<std::size_t>(g) + 1]; ++p) {
        const int gc = static_cast<int>(colIdx[p]);
        if (blockOf[static_cast<std::size_t>(gc)] == static_cast<int>(b)) {
          touched.push_back(k);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    blk->bcols_ = std::move(touched);
    std::vector<int> borderToBk(static_cast<std::size_t>(nBorder_), -1);
    for (int k = 0; k < blk->kb(); ++k) {
      borderToBk[static_cast<std::size_t>(blk->bcols_[static_cast<std::size_t>(k)])] = k;
    }

    // Second pass: interior CSR (+ gather) and B triplets.
    blk->rowPtr_.push_back(0);
    for (int li = 0; li < nb; ++li) {
      const int g = blk->rows_[static_cast<std::size_t>(li)];
      std::vector<std::pair<std::size_t, std::size_t>> interior;  // (lc, gpos)
      for (std::size_t p = rowPtr[static_cast<std::size_t>(g)];
           p < rowPtr[static_cast<std::size_t>(g) + 1]; ++p) {
        const int gc = static_cast<int>(colIdx[p]);
        const int owner = blockOf[static_cast<std::size_t>(gc)];
        if (owner == static_cast<int>(b)) {
          interior.emplace_back(
              static_cast<std::size_t>(localOf[static_cast<std::size_t>(gc)]), p);
        } else if (owner == kBorder) {
          blk->bEntries_.push_back(
              {li, borderToBk[static_cast<std::size_t>(localOf[static_cast<std::size_t>(gc)])],
               p});
        } else {
          throw InvalidArgumentError(
              "SchurSolver: pattern couples two diagonal blocks (rows " +
              std::to_string(g) + " and " + std::to_string(gc) +
              ") — partition is not bordered-block-diagonal");
        }
      }
      std::sort(interior.begin(), interior.end());
      for (const auto& [lc, gpos] : interior) {
        blk->colIdx_.push_back(lc);
        blk->gatherA_.push_back(gpos);
      }
      blk->rowPtr_.push_back(blk->colIdx_.size());
    }

    // Third pass: C triplets (border rows into this block's columns).
    for (int k = 0; k < nBorder_; ++k) {
      const int g = borderRows_[static_cast<std::size_t>(k)];
      for (std::size_t p = rowPtr[static_cast<std::size_t>(g)];
           p < rowPtr[static_cast<std::size_t>(g) + 1]; ++p) {
        const int gc = static_cast<int>(colIdx[p]);
        if (blockOf[static_cast<std::size_t>(gc)] == static_cast<int>(b)) {
          blk->cEntries_.push_back(
              {borderToBk[static_cast<std::size_t>(k)],
               localOf[static_cast<std::size_t>(gc)], p});
        }
      }
    }

    blk->valsA_.resize(blk->gatherA_.size());
    blk->valsB_.resize(blk->bEntries_.size());
    blk->valsC_.resize(blk->cEntries_.size());
    blk->y_.resize(static_cast<std::size_t>(nb));
    blk->gy_.resize(static_cast<std::size_t>(blk->kb()));
    blocks_.push_back(std::move(blk));
  }

  // Direct border-border entries of the pattern.
  for (int k = 0; k < nBorder_; ++k) {
    const int g = borderRows_[static_cast<std::size_t>(k)];
    for (std::size_t p = rowPtr[static_cast<std::size_t>(g)];
         p < rowPtr[static_cast<std::size_t>(g) + 1]; ++p) {
      const int gc = static_cast<int>(colIdx[p]);
      if (blockOf[static_cast<std::size_t>(gc)] == kBorder) {
        abbEntries_.push_back({k, localOf[static_cast<std::size_t>(gc)], p});
      }
    }
  }
  cachedAbb_.assign(abbEntries_.size(), 0.0);
  const std::size_t s2 = static_cast<std::size_t>(nBorder_) *
                         static_cast<std::size_t>(nBorder_);
  sBlocks_.assign(s2, 0.0);
  sFull_.assign(s2, 0.0);
  fBorder_.resize(static_cast<std::size_t>(nBorder_));
  xBorder_.resize(static_cast<std::size_t>(nBorder_));

  parallelFor_ = [](int count, const std::function<void(int)>& fn) {
    for (int i = 0; i < count; ++i) fn(i);
  };
}

SchurSolver::~SchurSolver() = default;

void SchurSolver::setParallelFor(ParallelFor parallelFor) {
  FEFET_REQUIRE(parallelFor != nullptr, "SchurSolver: null ParallelFor");
  parallelFor_ = std::move(parallelFor);
}

void SchurSolver::gatherBlockValues(Block& blk, const CsrView& a) {
  for (std::size_t i = 0; i < blk.gatherA_.size(); ++i) {
    blk.valsA_[i] = a.values[blk.gatherA_[i]];
  }
  for (std::size_t i = 0; i < blk.bEntries_.size(); ++i) {
    blk.valsB_[i] = a.values[blk.bEntries_[i].gpos];
  }
  for (std::size_t i = 0; i < blk.cEntries_.size(); ++i) {
    blk.valsC_[i] = a.values[blk.cEntries_[i].gpos];
  }
}

void SchurSolver::factorBlock(Block& blk) {
  const CsrView view{static_cast<std::size_t>(blk.nb()), blk.rowPtr_,
                     blk.colIdx_, blk.valsA_};
  blk.sparseFac_.factor(view);
  blk.factored = true;
}

void SchurSolver::computeContribution(const Block& blk,
                                      std::span<const double> bVals,
                                      std::span<const double> cVals,
                                      std::vector<double>& contrib) const {
  const std::size_t nb = static_cast<std::size_t>(blk.nb());
  const std::size_t kb = static_cast<std::size_t>(blk.kb());
  contrib.assign(kb * kb, 0.0);
  if (kb == 0) return;
  // Column-contiguous dense RHS: column k holds B_b(:, bcols[k]).
  std::vector<double> bd(nb * kb, 0.0);
  for (std::size_t i = 0; i < blk.bEntries_.size(); ++i) {
    const auto& e = blk.bEntries_[i];
    bd[static_cast<std::size_t>(e.bk) * nb + static_cast<std::size_t>(e.li)] +=
        bVals[i];
  }
  std::vector<double> x(nb * kb);
  blk.sparseFac_.solveMulti(bd, x, kb);
  // contrib(i, j) = sum_lj C(i, lj) * X(lj, j).
  for (std::size_t j = 0; j < kb; ++j) {
    const double* xc = x.data() + j * nb;
    for (std::size_t i = 0; i < blk.cEntries_.size(); ++i) {
      const auto& e = blk.cEntries_[i];
      contrib[static_cast<std::size_t>(e.bk) * kb + j] +=
          cVals[i] * xc[e.lj];
    }
  }
}

void SchurSolver::applyContribution(const Block& blk,
                                    std::span<const double> contrib,
                                    double sign) {
  const std::size_t kb = static_cast<std::size_t>(blk.kb());
  const std::size_t nbrd = static_cast<std::size_t>(nBorder_);
  const std::lock_guard<std::mutex> lock(sMutex_);
  for (std::size_t i = 0; i < kb; ++i) {
    double* row =
        sBlocks_.data() +
        static_cast<std::size_t>(blk.bcols_[i]) * nbrd;
    const double* src = contrib.data() + i * kb;
    for (std::size_t j = 0; j < kb; ++j) {
      row[static_cast<std::size_t>(blk.bcols_[j])] += sign * src[j];
    }
  }
  sDirty_ = true;
}

void SchurSolver::recordError(const std::string& what) {
  const std::lock_guard<std::mutex> lock(errorMutex_);
  if (!hasError_) {
    hasError_ = true;
    firstError_ = what;
  }
}

void SchurSolver::updateBlock(Block& blk, const CsrView& a,
                              std::span<const double> f) {
  gatherBlockValues(blk, a);

  DriftReport drift;
  if (blk.factored) {
    checkDrift(blk.valsA_, blk.cachedA_, &drift);
    if (drift.quiet) checkDrift(blk.valsB_, blk.cachedB_, &drift);
    if (drift.quiet) checkDrift(blk.valsC_, blk.cachedC_, &drift);
  }

  bool refactor;
  if (!blk.factored) {
    refactor = true;
  } else if (drift.exact) {
    // Bitwise-identical values: the existing factor IS the exact factor.
    refactor = false;
    ++blk.quiet;
  } else if (!drift.quiet) {
    refactor = true;  // left the band: expand
  } else if (blk.collapsed) {
    refactor = false;  // macromodel fast path: frozen linearization
  } else {
    // Inside the band: refactor until enough consecutive quiet evals
    // establish trust, then stop (the skip branch collapses the block).
    ++blk.quiet;
    refactor = blk.quiet < kCollapseQuietEvals;
  }

  if (refactor) {
    if (blk.factored) {
      // Retire the stale Schur contribution (recomputed from the cached
      // values through the still-current factor) before refactoring.
      std::vector<double> old;
      computeContribution(blk, blk.cachedB_, blk.cachedC_, old);
      applyContribution(blk, old, -1.0);
    }
    if (!drift.quiet) blk.quiet = 0;
    const bool expanded = blk.collapsed;
    blk.collapsed = false;
    factorBlock(blk);
    std::vector<double> fresh;
    computeContribution(blk, blk.valsB_, blk.valsC_, fresh);
    applyContribution(blk, fresh, +1.0);
    blk.cachedA_ = blk.valsA_;
    blk.cachedB_ = blk.valsB_;
    blk.cachedC_ = blk.valsC_;
    const std::lock_guard<std::mutex> lock(statsMutex_);
    ++stats_.blockFactorizations;
    if (expanded) ++stats_.expands;
  } else {
    const bool collapsing =
        !blk.collapsed && blk.quiet >= kCollapseQuietEvals;
    if (collapsing) blk.collapsed = true;
    const std::lock_guard<std::mutex> lock(statsMutex_);
    ++stats_.blockFactorSkips;
    if (collapsing) ++stats_.collapses;
  }

  // Interior solve with the fresh residual (exact-residual inexact Newton:
  // a collapsed block still propagates the true f through its stale
  // factor).
  const int nb = blk.nb();
  std::vector<double> fb(static_cast<std::size_t>(nb));
  for (int li = 0; li < nb; ++li) {
    fb[static_cast<std::size_t>(li)] =
        f[static_cast<std::size_t>(blk.rows_[static_cast<std::size_t>(li)])];
  }
  blk.sparseFac_.solve(fb, blk.y_);
  std::fill(blk.gy_.begin(), blk.gy_.end(), 0.0);
  for (std::size_t i = 0; i < blk.cEntries_.size(); ++i) {
    const auto& e = blk.cEntries_[i];
    blk.gy_[static_cast<std::size_t>(e.bk)] +=
        blk.valsC_[i] * blk.y_[static_cast<std::size_t>(e.lj)];
  }
}

void SchurSolver::backSubstitute(Block& blk, std::span<const double> xBorder,
                                 std::span<double> x) {
  const int nb = blk.nb();
  std::vector<double> t(static_cast<std::size_t>(nb), 0.0);
  for (std::size_t i = 0; i < blk.bEntries_.size(); ++i) {
    const auto& e = blk.bEntries_[i];
    t[static_cast<std::size_t>(e.li)] +=
        blk.valsB_[i] *
        xBorder[static_cast<std::size_t>(blk.bcols_[static_cast<std::size_t>(e.bk)])];
  }
  std::vector<double> u(static_cast<std::size_t>(nb));
  blk.sparseFac_.solve(t, u);
  for (int li = 0; li < nb; ++li) {
    x[static_cast<std::size_t>(blk.rows_[static_cast<std::size_t>(li)])] =
        blk.y_[static_cast<std::size_t>(li)] - u[static_cast<std::size_t>(li)];
  }
}

void SchurSolver::solve(const CsrView& a, std::span<const double> f,
                        std::span<double> x) {
  FEFET_REQUIRE(a.n == static_cast<std::size_t>(n_) &&
                    f.size() == static_cast<std::size_t>(n_) &&
                    x.size() == static_cast<std::size_t>(n_),
                "SchurSolver: size mismatch");
  ++stats_.solves;
  hasError_ = false;
  firstError_.clear();

  // Phase 1 (parallel): per-block gather, collapse state machine, factor
  // and interior solve.
  const int nBlocks = blockCount();
  parallelFor_(nBlocks, [&](int b) {
    try {
      updateBlock(*blocks_[static_cast<std::size_t>(b)], a, f);
    } catch (const Error& e) {
      recordError(e.what());
    } catch (const std::exception& e) {
      recordError(e.what());
    }
  });
  if (hasError_) {
    // A failed block leaves its cached values/factor out of sync with
    // sBlocks_; force a clean rebuild on the next attempt.
    for (auto& blk : blocks_) blk->factored = false;
    std::fill(sBlocks_.begin(), sBlocks_.end(), 0.0);
    sDirty_ = true;
    sFactored_ = false;
    throw NumericalError("SchurSolver block solve failed: " + firstError_);
  }
  stats_.collapsedBlocks = 0;
  for (const auto& blk : blocks_) {
    if (blk->collapsed) ++stats_.collapsedBlocks;
  }

  // Phase 2 (serial): border system.
  if (nBorder_ > 0) {
    for (int k = 0; k < nBorder_; ++k) {
      fBorder_[static_cast<std::size_t>(k)] =
          f[static_cast<std::size_t>(borderRows_[static_cast<std::size_t>(k)])];
    }
    for (const auto& blk : blocks_) {
      for (int k = 0; k < blk->kb(); ++k) {
        fBorder_[static_cast<std::size_t>(blk->bcols_[static_cast<std::size_t>(k)])] -=
            blk->gy_[static_cast<std::size_t>(k)];
      }
    }
    // A_bb gets the same tolerance band as the blocks: while the direct
    // border entries stay inside the band the existing Schur factor is
    // reused (same exact-residual inexact-Newton argument).
    bool abbQuiet = true;
    for (std::size_t i = 0; i < abbEntries_.size() && abbQuiet; ++i) {
      abbQuiet = !leavesBand(a.values[abbEntries_[i].gpos], cachedAbb_[i]);
    }
    if (sDirty_ || !sFactored_ || !abbQuiet) {
      for (std::size_t i = 0; i < abbEntries_.size(); ++i) {
        cachedAbb_[i] = a.values[abbEntries_[i].gpos];
      }
      const std::size_t nbrd = static_cast<std::size_t>(nBorder_);
      for (std::size_t i = 0; i < sFull_.size(); ++i) sFull_[i] = -sBlocks_[i];
      for (std::size_t i = 0; i < abbEntries_.size(); ++i) {
        sFull_[static_cast<std::size_t>(abbEntries_[i].bi) * nbrd +
               static_cast<std::size_t>(abbEntries_[i].bj)] += cachedAbb_[i];
      }
      sFactor_.factor(static_cast<std::size_t>(nBorder_), sFull_);
      sDirty_ = false;
      sFactored_ = true;
      ++stats_.schurRefactorizations;
    } else {
      ++stats_.schurReuses;
    }
    sFactor_.solve(fBorder_, xBorder_);
    for (int k = 0; k < nBorder_; ++k) {
      x[static_cast<std::size_t>(borderRows_[static_cast<std::size_t>(k)])] =
          xBorder_[static_cast<std::size_t>(k)];
    }
  }

  // Phase 3 (parallel): back-substitution into the block interiors.
  parallelFor_(nBlocks, [&](int b) {
    try {
      backSubstitute(*blocks_[static_cast<std::size_t>(b)], xBorder_, x);
    } catch (const Error& e) {
      recordError(e.what());
    } catch (const std::exception& e) {
      recordError(e.what());
    }
  });
  if (hasError_) {
    throw NumericalError("SchurSolver back-substitution failed: " +
                         firstError_);
  }
}

}  // namespace fefet::linalg
