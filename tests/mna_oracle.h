// mna_oracle.h — reference MNA assembly for the stamp-parity tests.
//
// The straightforward engine: every Device::stamp() call lands through
// virtual Stamper dispatch directly in a dense matrix or a sparse row-map,
// and gmin is added per node row afterwards.  The production Assembler
// (SoA device batches stamping through their lane tables) must reproduce
// its residual, row scale and every Jacobian entry bit for bit.  Assembly
// only: the tests compare matrices, they never solve through this class.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/linalg.h"
#include "spice/device.h"

namespace fefet::spice {

class MnaSystem final : public Stamper {
 public:
  MnaSystem(int unknowns, bool sparse)
      : sparse_(sparse),
        residual_(static_cast<std::size_t>(unknowns), 0.0),
        rowScale_(static_cast<std::size_t>(unknowns), 0.0) {
    const auto n = static_cast<std::size_t>(unknowns);
    if (sparse_) {
      sparseM_ = linalg::SparseMatrix(n);
    } else {
      dense_ = linalg::DenseMatrix(n, n);
    }
  }

  void clear() {
    std::fill(residual_.begin(), residual_.end(), 0.0);
    std::fill(rowScale_.begin(), rowScale_.end(), 0.0);
    if (sparse_) {
      sparseM_.setZero();
    } else {
      dense_.setZero();
    }
  }

  void addResidual(int row, double value) override {
    if (row < 0) return;  // ground
    residual_[static_cast<std::size_t>(row)] += value;
    rowScale_[static_cast<std::size_t>(row)] += std::abs(value);
  }

  void addJacobian(int row, int col, double value) override {
    if (row < 0 || col < 0) return;  // ground
    if (value == 0.0) return;
    const auto r = static_cast<std::size_t>(row);
    const auto c = static_cast<std::size_t>(col);
    if (sparse_) {
      sparseM_.add(r, c, value);
    } else {
      dense_.at(r, c) += value;
    }
  }

  /// gmin leakage to ground on every node row, through addResidual so the
  /// row scale sees the gmin current like any other device current.
  void addGmin(double gmin, const SystemView& view, int nodeCount) {
    if (gmin <= 0.0) return;
    for (int row = 0; row < nodeCount; ++row) {
      addResidual(row, gmin * view.nodeVoltage(row + 1));
      addJacobian(row, row, gmin);
    }
  }

  const std::vector<double>& residual() const { return residual_; }
  const std::vector<double>& rowScale() const { return rowScale_; }
  const linalg::DenseMatrix& denseMatrix() const { return dense_; }
  const linalg::SparseMatrix& sparseMatrix() const { return sparseM_; }

 private:
  bool sparse_;
  linalg::DenseMatrix dense_;
  linalg::SparseMatrix sparseM_;
  std::vector<double> residual_;
  std::vector<double> rowScale_;
};

}  // namespace fefet::spice
