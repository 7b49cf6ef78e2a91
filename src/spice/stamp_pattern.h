// stamp_pattern.h — symbolic phase of the compiled stamp pipeline.
//
// The fixed CSR sparsity of a frozen netlist's Jacobian.  DeviceBatches
// (device_batch.h) builds it once, at freeze: every lane's stamp body runs
// once per assembly mode through a sink that only marks the (row, col)
// pairs of the terminals it touches, and the union of those pairs over
// both modes, plus every node diagonal, is the pattern.  Only then does
// each lane get the padded CSR slots of its entries, so the per-iteration
// hot path is branch-free slot arithmetic, and no lane can write an entry
// outside the pattern.
//
// Devices may stamp different entry sets in DC vs transient (capacitors
// are open in DC, the FeCap terminal current only exists in transient),
// hence the union — but within one mode a body's entries are a pure
// function of the frozen netlist.  Every stamp body in this repository
// satisfies that: its guards depend only on construction-time constants
// (gateLeak > 0, backgroundCap > 0) or on the mode itself.  The
// integration method changes companion values, never entries, so
// backward-Euler and trapezoidal steps share the one transient mode.
#pragma once

#include <cstddef>
#include <vector>

namespace fefet::spice {

/// Assembly mode of one Newton evaluation.
enum class StampMode : int { kDc = 0, kTransient = 1 };
inline constexpr int kStampModeCount = 2;

inline StampMode stampModeFor(bool dc) {
  return dc ? StampMode::kDc : StampMode::kTransient;
}

/// Union CSR sparsity of a frozen netlist's Jacobian.
class StampPattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The pattern of `rowCols` (one list of column indices per unknown, in
  /// any order and with repeats; ground already dropped) plus every
  /// node-row diagonal — gmin regularization needs those even when no
  /// device touches them.
  StampPattern(std::vector<std::vector<std::size_t>> rowCols, int nodeCount);

  int unknowns() const { return static_cast<int>(rowPtr_.size()) - 1; }
  int nodeCount() const { return nodeCount_; }

  // Ascending columns within each row.
  const std::vector<std::size_t>& rowPtr() const { return rowPtr_; }
  const std::vector<std::size_t>& colIdx() const { return colIdx_; }
  std::size_t nonZeros() const { return colIdx_.size(); }

  /// CSR position of (row, col); npos when outside the pattern.
  std::size_t csrIndex(int row, int col) const;
  /// CSR positions of the node diagonals (row, row), row < nodeCount.
  const std::vector<std::size_t>& nodeDiagonals() const {
    return nodeDiagonals_;
  }

 private:
  int nodeCount_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<std::size_t> nodeDiagonals_;
};

}  // namespace fefet::spice
