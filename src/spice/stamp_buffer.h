// stamp_buffer.h — the per-iteration write target of the compiled stamp
// pipeline.
//
// After Netlist::freeze() records every device's (row, col) call sequence
// (see stamp_pattern.h), every array the Assembler writes is padded with a
// trash element at index 0: entries attached to ground map to slot 0, and
// residual rows are offset-indexed the same way (row -1 -> index 0), so
// ground dropping is a plain store into a byte nobody reads instead of a
// per-call branch.
//
// Two kinds of writer share that storage:
//
//  * a batched lane (device_batch.h) holds LaneSlots — the padded residual
//    row of each terminal and the padded CSR slot of each terminal pair —
//    and writes through a SlotSink: each entry and residual row it touches
//    is loaded once, its contributions are added in a register in the
//    order the kind's entry-major stamp body lists them, and it is stored
//    once;
//  * a generic device (diode, TimedSwitch, test devices) replays its
//    recorded calls through the StampBuffer, which consumes one slot of the
//    generic slot program per addJacobian.  A call beyond the device's
//    recorded count lands in the trash slot, and DeviceBatches compares the
//    consumed count after every generic device, so a device that violates
//    the pattern contract is named in the error instead of silently
//    corrupting the matrix.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fefet::spice {

/// One recorded stamp call: the (row, col) a device passed, before ground
/// dropping (-1 = ground).
struct StampEntry {
  int row = 0;
  int col = 0;

  bool operator==(const StampEntry&) const = default;
};

class Assembler;
class DeviceBatches;

/// Slot-write sink for a generic device's Device::stamp.  Configured by the
/// Assembler (storage) and DeviceBatches (slot program); devices only ever
/// see it through EvalContext.
class StampBuffer {
 public:
  void addResidual(int row, double value) {
    // Padded store: ground (row -1) lands in the trash element at 0.
    const std::size_t i = static_cast<std::size_t>(row + 1);
    residual_[i] += value;
    rowScale_[i] += std::abs(value);
  }

  void addJacobian(int /*row*/, int /*col*/, double value) {
    values_[next_ < end_ ? slots_[next_] : 0] += value;
    ++next_;
  }

 private:
  friend class Assembler;
  friend class DeviceBatches;
  template <int T>
  friend class SlotSink;

  // Padded storage views (index 0 = trash), owned by the Assembler.
  double* values_ = nullptr;
  double* residual_ = nullptr;
  double* rowScale_ = nullptr;
  // Generic slot program of the active mode: one index per recorded
  // addJacobian of a generic device; next_ counts the calls consumed.
  const std::uint32_t* slots_ = nullptr;
  std::size_t next_ = 0;
  std::size_t end_ = 0;
};

/// Padded slots of one batched lane whose kind touches terminals 0..T-1:
/// the residual row of each terminal and the CSR value of each terminal
/// pair (row-major).  0 — the trash element — for ground and for pairs the
/// kind never touches.
template <int T>
struct LaneSlots {
  std::array<std::uint32_t, T> row{};
  std::array<std::uint32_t, T * T> entry{};
};

/// Batch-path sink of an entry-major stamp body: residual(t) and
/// jacobian(t, u) return a register accumulator loaded from the lane's
/// slot, whose destructor stores it back.  A body therefore loads and
/// stores each entry once, and an entry two terminal pairs share (a
/// diode-connected MOSFET) sees each group's store before the next load.
template <int T>
class SlotSink {
 public:
  SlotSink(const StampBuffer& buffer, const LaneSlots<T>& slots)
      : values_(buffer.values_),
        residual_(buffer.residual_),
        rowScale_(buffer.rowScale_),
        slots_(slots) {}

  class Row {
   public:
    Row(double* value, double* scale)
        : value_(value), scale_(scale), v_(*value), s_(*scale) {}
    Row(const Row&) = delete;
    Row& operator=(const Row&) = delete;
    ~Row() {
      *value_ = v_;
      *scale_ = s_;
    }
    void operator+=(double x) {
      v_ += x;
      s_ += std::abs(x);
    }

   private:
    double* value_;
    double* scale_;
    double v_;
    double s_;
  };

  class Entry {
   public:
    explicit Entry(double* value) : value_(value), v_(*value) {}
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
    ~Entry() { *value_ = v_; }
    void operator+=(double x) { v_ += x; }

   private:
    double* value_;
    double v_;
  };

  Row residual(int t) const {
    const std::uint32_t i = slots_.row[static_cast<std::size_t>(t)];
    return {residual_ + i, rowScale_ + i};
  }
  Entry jacobian(int t, int u) const {
    return Entry(values_ +
                 slots_.entry[static_cast<std::size_t>(t * T + u)]);
  }

 private:
  double* values_;
  double* residual_;
  double* rowScale_;
  const LaneSlots<T>& slots_;
};

}  // namespace fefet::spice
