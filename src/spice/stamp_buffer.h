// stamp_buffer.h — the per-iteration write target of the compiled stamp
// pipeline.
//
// After Netlist::freeze() records every device's (row, col) call sequence
// (see stamp_pattern.h), the Assembler turns each Jacobian call into one
// precomputed slot index into a flat value array.  During a Newton
// iteration the devices replay their calls in the recorded order, and the
// buffer consumes one slot per addJacobian — no virtual dispatch, no map
// lookups, no branching on ground rows:
//
//  * every array is padded with a trash element at index 0, and entries
//    attached to ground map to slot 0, so ground dropping is a plain
//    store into a byte nobody reads instead of a per-call branch;
//  * residual rows are offset-indexed the same way (row -1 -> index 0).
//
// The contract this relies on: a device's call sequence is a pure function
// of the DC/transient mode for a frozen netlist — values change per
// iterate, positions never do.  The Assembler checks the consumed slot count after
// every device, so a device that violates the contract is named in the
// error instead of silently corrupting the matrix.
#pragma once

#include <cmath>
#include <cstddef>

namespace fefet::spice {

/// One recorded stamp call: the (row, col) a device passed, before ground
/// dropping (-1 = ground).
struct StampEntry {
  int row = 0;
  int col = 0;
};

class Assembler;

/// Slot-write sink for Device::stamp on the compiled path.  Configured and
/// owned by the Assembler; devices only ever see it through EvalContext.
class StampBuffer {
 public:
  void addResidual(int row, double value) {
    // Padded store: ground (row -1) lands in the trash element at 0.
    const std::size_t i = static_cast<std::size_t>(row + 1);
    residual_[i] += value;
    rowScale_[i] += std::abs(value);
  }

  void addJacobian(int row, int col, double value) {
    if (slotCursor_ == slotEnd_) throwSlotOverrun(row, col);
    values_[*slotCursor_++] += value;
  }

  /// Jacobian calls consumed so far this iteration (the Assembler compares
  /// this against the recorded per-device boundaries).
  std::size_t jacobianCalls() const {
    return static_cast<std::size_t>(slotCursor_ - slotBegin_);
  }

 private:
  friend class Assembler;

  [[noreturn]] void throwSlotOverrun(int row, int col) const;

  // Padded storage views (index 0 = trash), owned by the Assembler.
  double* values_ = nullptr;
  double* residual_ = nullptr;
  double* rowScale_ = nullptr;
  // Slot program of the active mode: one index per recorded addJacobian.
  const std::size_t* slotBegin_ = nullptr;
  const std::size_t* slotCursor_ = nullptr;
  const std::size_t* slotEnd_ = nullptr;
};

}  // namespace fefet::spice
