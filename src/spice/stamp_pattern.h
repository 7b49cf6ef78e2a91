// stamp_pattern.h — symbolic phase of the compiled stamp pipeline.
//
// When a netlist freezes, a recording Stamper runs one stamp pass per
// assembly mode and captures the exact (row, col) sequence every device
// emits.  From the union of all modes a fixed CSR pattern is built once;
// the Assembler (assembler.h) then maps each recorded call to a stable
// slot index so the per-iteration hot path is a branch-free value scatter.
//
// Devices may stamp different entry sets in DC vs transient (capacitors
// are open in DC, the FeCap terminal current only exists in transient),
// so call sequences are recorded per StampMode — but within one mode the
// sequence must be a pure function of the frozen netlist.  Every device in
// this repository satisfies that: guards depend only on construction-time
// constants (gateLeak > 0, backgroundCap > 0) or on the mode itself.  The
// integration method changes companion values, never call positions, so
// backward-Euler and trapezoidal steps share the one transient mode.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "spice/device.h"

namespace fefet::spice {

/// Assembly mode of one Newton evaluation.
enum class StampMode : int { kDc = 0, kTransient = 1 };
inline constexpr int kStampModeCount = 2;

inline StampMode stampModeFor(bool dc) {
  return dc ? StampMode::kDc : StampMode::kTransient;
}

/// Recorded stamp structure of a frozen netlist: per-mode Jacobian call
/// sequences with per-device boundaries, plus the union CSR sparsity.
class StampPattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Run the recording pass.  Devices must be set up (aux rows assigned);
  /// the pass evaluates each device at the seeded initial iterate with a
  /// representative small timestep — values are discarded, only call
  /// positions are kept.
  StampPattern(const std::vector<std::unique_ptr<Device>>& devices,
               int unknowns, int nodeCount);

  int unknowns() const { return unknowns_; }
  int nodeCount() const { return nodeCount_; }
  std::size_t deviceCount() const { return deviceCount_; }

  /// Recorded Jacobian (row, col) call sequence of a mode, ground entries
  /// included (the Assembler maps those to the trash slot).
  const std::vector<StampEntry>& jacobianCalls(StampMode mode) const {
    return calls_[static_cast<int>(mode)];
  }
  /// jacobianCalls() index one past device i's last call (cumulative; the
  /// Assembler's per-device integrity check compares against these).
  const std::vector<std::size_t>& deviceJacobianEnds(StampMode mode) const {
    return deviceEnds_[static_cast<int>(mode)];
  }

  // Union CSR sparsity over all modes (non-ground entries only) plus every
  // node-row diagonal — gmin regularization needs those even when no
  // device touches them.  Ascending columns within each row.
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
  int unknowns_ = 0;
  int nodeCount_ = 0;
  std::size_t deviceCount_ = 0;
  std::array<std::vector<StampEntry>, kStampModeCount> calls_;
  std::array<std::vector<std::size_t>, kStampModeCount> deviceEnds_;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<std::size_t> nodeDiagonals_;
};

}  // namespace fefet::spice
