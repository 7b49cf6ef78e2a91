// assembler.h — numeric phase of the compiled stamp pipeline.
//
// Owns the preallocated, padded storage the devices write into — CSR
// values, residual and row scale, each with the trash element at index 0
// that ground entries land in (stamp_buffer.h):
//
//   lanes (device_batch.h), each device a lane of its kind's batch
//     -> pattern (symbolic, built once at freeze from the entries the
//        lanes' stamp bodies touch; stamp_pattern.h)
//     -> lane tables: the padded CSR slots of every lane's entries;
//     -> per iteration: zero the storage, evaluate every device through
//        the SoA batches and stamp them in netlist order (each lane loads,
//        sums and stores every entry it touches once), apply gmin;
//     -> solve, condensed: every source with a grounded terminal pins its
//        node, so only the free unknowns go through the ordered sparse LU
//        (DESIGN.md §6.6), which keeps its factor when J_FF is bitwise
//        unchanged; the pinned updates and the source currents come from
//        the sources' own rows and their nodes' KCL rows.
//
// The steady state of assemble() + solveForUpdate() performs no heap
// allocation: everything was sized at construction or on the first solve,
// and the factorizer keeps its own workspace and reuses its symbolic
// structure.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/linalg.h"
#include "spice/netlist.h"
#include "spice/stamp_pattern.h"

namespace fefet::spice {

class Assembler {
 public:
  /// `pattern` must outlive the assembler (the netlist owns it), and
  /// assemble() takes only the netlist whose stampPattern() it is.
  explicit Assembler(const StampPattern& pattern);
  /// Lands the telemetry tallies not yet flushed.
  ~Assembler();
  Assembler(const Assembler&) = delete;
  Assembler& operator=(const Assembler&) = delete;

  /// Assemble one Newton evaluation: zero the storage, stamp every device
  /// through netlist.deviceBatches() (type-major evaluation, netlist-order
  /// stamping in the DC or transient mode) and apply gmin.
  void assemble(const Netlist& netlist, const SystemView& view, bool dc,
                double time, double dt, IntegrationMethod method,
                double gmin);

  /// Solve J dx = -F into dx (resized to the system size).  Throws
  /// NumericalError when the Jacobian is singular.
  ///
  /// Condensed: a branch row whose only entry is one node's column, and
  /// whose unknown appears only in that node's KCL row (a voltage source
  /// with one grounded terminal), pins the node: dv = -F_aux / J[aux,node].
  /// The free unknowns F solve J_FF dx_F = -F_F - J_F,pinned dv in the full
  /// Jacobian's minimum-degree order restricted to F, and each source
  /// current follows from its node's KCL row.  A node pins once: a second
  /// source on it stays free, and its empty row makes J_FF singular.
  void solveForUpdate(std::vector<double>& dx);

  /// The unknowns the condensed solve factors (the free ones), ascending:
  /// unknown k of J_FF is unknown freeUnknowns()[k] of the full system.
  /// Empty before the first solveForUpdate(), which builds the map.
  std::span<const int> freeUnknowns() const { return free_; }

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

  /// Structure-cache counters and factor fill of the sparse LU, which
  /// factors the condensed Jacobian J_FF.
  const linalg::SparseLuFactorizer& factorizer() const { return lu_; }

  /// Assembled Jacobian as CSR.
  linalg::CsrView csr() const {
    return {static_cast<std::size_t>(n_), pattern_.rowPtr(),
            pattern_.colIdx(),
            {values_.data() + 1, pattern_.nonZeros()}};
  }

 private:
  /// Finds the pinned nodes and builds the J_FF pattern, maps and order.
  void buildCondensation();

  const StampPattern& pattern_;
  int n_;
  /// Padded CSR slot of each node diagonal (for gmin).
  std::vector<std::size_t> diagSlots_;
  // Padded storage: index 0 is the trash bin ground entries write into.
  std::vector<double> values_;    ///< CSR values (1 + nnz)
  std::vector<double> residual_;  ///< 1 + n
  std::vector<double> rowScale_;  ///< 1 + n

  // Condensation, built from the pattern on the first solve (condensed_);
  // CSR positions below are unpadded.  A pinned node's update comes from
  // its source's branch row (J[aux,node] at auxNode), the source current
  // from the node's KCL row (J[node,aux] at nodeAux).
  struct Pin {
    int node;
    int aux;
    std::size_t auxNode;
    std::size_t nodeAux;
  };
  /// J_F,pinned entry: rhs_[row] -= values[pos] * dx[col].
  struct Coupling {
    std::size_t row;
    std::size_t pos;
    int col;
  };
  std::vector<Pin> pins_;
  std::vector<int> free_;  ///< reduced unknown -> full unknown
  std::vector<std::size_t> freeRowPtr_;  ///< J_FF pattern
  std::vector<std::size_t> freeColIdx_;
  std::vector<std::size_t> gather_;  ///< CSR position of each J_FF entry
  std::vector<Coupling> couplings_;
  /// The full Jacobian's minimum-degree order restricted to F, for the
  /// first factorization: it keeps the full system's pivot sequence on
  /// the free columns.
  std::vector<std::size_t> freeOrder_;
  std::vector<double> freeValues_;  ///< J_FF values
  std::vector<double> rhs_;         ///< -F_F - J_F,pinned dv
  std::vector<double> dxFree_;
  bool condensed_ = false;
  linalg::SparseLuFactorizer lu_;
  /// The first solve hands lu_ the J_FF pattern; later ones pass values
  /// only (the pattern of a frozen netlist never changes).
  bool luHasPattern_ = false;
  /// Which modes have already been assembled at least once — every
  /// assemble after that is a pattern-reuse hit for the
  /// fefet.assembler.pattern_reuse_hits counter.
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
