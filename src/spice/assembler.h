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
//        gmin, solve: the CSR view goes straight to the ordered sparse
//        LU, at every system size.
//
// The steady state of assemble() + solveForUpdate() performs no heap
// allocation: everything was sized at construction and the factorizer
// keeps its own workspace and reuses its symbolic structure.
#pragma once

#include <array>
#include <cstdint>
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
  explicit Assembler(const StampPattern& pattern);
  /// Lands the telemetry tallies not yet flushed.
  ~Assembler();
  Assembler(const Assembler&) = delete;
  Assembler& operator=(const Assembler&) = delete;

  /// Assemble one Newton evaluation: zero the storage, stamp every device
  /// through netlist.deviceBatches() (type-major evaluation, netlist-order
  /// scatter into the slot program of the DC or transient mode) and apply gmin.
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

  /// Add the fefet.assembler.* tallies kept since the last flush to the
  /// metrics registry and zero them.  assemble() only bumps plain member
  /// counters, and only while metrics are enabled.
  void flushTelemetry();

  /// Structure-cache counters and factor fill of the sparse LU.
  const linalg::SparseLuFactorizer& factorizer() const { return lu_; }

  /// Assembled Jacobian as CSR.
  linalg::CsrView csr() const {
    return {static_cast<std::size_t>(n_), pattern_.rowPtr(),
            pattern_.colIdx(),
            {values_.data() + 1, pattern_.nonZeros()}};
  }

 private:
  const StampPattern& pattern_;
  int n_;
  /// Per-mode slot programs (padded indices into values_).
  std::array<std::vector<std::size_t>, kStampModeCount> slots_;
  /// Padded CSR slot of each node diagonal (for gmin).
  std::vector<std::size_t> diagSlots_;
  // Padded storage: index 0 is the trash bin ground entries write into.
  std::vector<double> values_;    ///< CSR values (1 + nnz)
  std::vector<double> residual_;  ///< 1 + n
  std::vector<double> rowScale_;  ///< 1 + n
  std::vector<double> rhs_;       ///< n (negated residual)
  linalg::SparseLuFactorizer lu_;
  /// The first solve hands lu_ the CSR pattern; later ones pass values
  /// only (the pattern of a frozen netlist never changes).
  bool luHasPattern_ = false;
  StampBuffer buffer_;
  /// Which modes have already replayed their compiled slot program at
  /// least once — every assemble after that is a pattern-reuse hit for
  /// the fefet.assembler.pattern_reuse_hits counter.
  std::array<bool, kStampModeCount> modeUsed_{};
  /// fefet.assembler.* counts since the last flushTelemetry().
  struct Tally {
    std::uint64_t assemblies = 0;
    std::uint64_t stamps = 0;
    std::uint64_t patternReuseHits = 0;
    std::uint64_t mosfetLanes = 0;
    std::uint64_t mosfetBypassed = 0;
  } tally_;
};

}  // namespace fefet::spice
