// assembler.h — numeric phase of the compiled stamp pipeline.
//
// Owns the preallocated slot storage the StampBuffer writes into and the
// per-mode slot programs compiled from the recorded StampPattern:
//
//   pattern (symbolic, built once at freeze)
//     -> slot program: one CSR value position per recorded addJacobian
//        call, padded by one so ground entries map to the trash bin at
//        index 0 (branch-free ground dropping)
//     -> per iteration: zero the values, evaluate every device through
//        the SoA batches (device_batch.h) and scatter it through the
//        program in netlist order, verify per-device call counts, apply
//        gmin, solve.
//        Below the dense/sparse crossover the accumulated CSR values are
//        scattered into a row-major scratch and dense LU runs; above it
//        the CSR view goes straight to the sparse factorizer.
//
// The steady state of assemble() + solveForUpdate() performs no heap
// allocation (with LU structure reuse on): everything was sized at
// construction and the factorizers keep their own workspaces.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/linalg.h"
#include "spice/netlist.h"
#include "spice/stamp_buffer.h"
#include "spice/stamp_pattern.h"

namespace fefet::spice {

class Assembler {
 public:
  /// `pattern` must outlive the assembler (the netlist owns it).
  Assembler(const StampPattern& pattern, bool useSparse);

  /// Assemble one Newton evaluation: zero the storage, stamp every device
  /// through netlist.deviceBatches() (type-major evaluation, netlist-order
  /// scatter into the slot program of (dc, method)) and apply gmin.
  /// Throws NumericalError naming the culprit device if a call sequence
  /// deviates from the recorded pattern.
  void assemble(const Netlist& netlist, const SystemView& view, bool dc,
                double time, double dt, IntegrationMethod method,
                double gmin);

  /// Solve J dx = -F into dx (resized to the system size).  Throws
  /// NumericalError when the Jacobian is singular.
  void solveForUpdate(std::vector<double>& dx);

  // Unpadded views of the last assembly (row i = unknown i).
  std::span<const double> residual() const {
    return {residual_.data() + 1, static_cast<std::size_t>(n_)};
  }
  std::span<const double> rowScale() const {
    return {rowScale_.data() + 1, static_cast<std::size_t>(n_)};
  }

  const linalg::LinearSolver& solver() const { return solver_; }

  /// Assembled Jacobian as CSR (valid for sparse and dense storage alike —
  /// devices always accumulate into the CSR slots).
  linalg::CsrView csr() const {
    return {static_cast<std::size_t>(n_), pattern_.rowPtr(),
            pattern_.colIdx(),
            {values_.data() + 1, pattern_.nonZeros()}};
  }

 private:
  const StampPattern& pattern_;
  bool sparseStorage_;
  int n_;
  /// Per-mode slot programs (padded indices into values_/dense_).
  std::array<std::vector<std::size_t>, kStampModeCount> slots_;
  /// Padded CSR slot of each node diagonal (for gmin).
  std::vector<std::size_t> diagSlots_;
  // Padded storage: index 0 is the trash bin ground entries write into.
  std::vector<double> values_;    ///< CSR values (1 + nnz)
  std::vector<double> dense_;     ///< row-major matrix (1 + n*n), dense only
  std::vector<double> residual_;  ///< 1 + n
  std::vector<double> rowScale_;  ///< 1 + n
  std::vector<double> rhs_;       ///< n (negated residual)
  linalg::LinearSolver solver_;
  StampBuffer buffer_;
  /// Which modes have already replayed their compiled slot program at
  /// least once — every assemble after that is a pattern-reuse hit for
  /// the fefet.assembler.pattern_reuse_hits counter.
  std::array<bool, kStampModeCount> modeUsed_{};
};

}  // namespace fefet::spice
