// stamp_buffer.h — the per-iteration write target of the compiled stamp
// pipeline.
//
// Netlist::freeze() builds the Jacobian's pattern from the entries every
// lane's stamp body touches (see stamp_pattern.h).  Every array the
// Assembler writes is padded with a trash element at index 0: entries
// attached to ground map to slot 0, and residual rows are offset-indexed
// the same way (row -1 -> index 0), so ground dropping is a plain store
// into a byte nobody reads instead of a per-call branch.
//
// Every device is a lane of one batch (device_batch.h).  A lane holds
// LaneSlots — the padded residual row of each terminal and the padded CSR
// slot of each terminal pair — and writes through a SlotSink: each entry
// and residual row it touches is loaded once, its contributions are added
// in a register in the order the kind's entry-major stamp body lists them,
// and it is stored once.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace fefet::spice {

/// The Assembler's padded storage (index 0 = trash) that SlotSinks write.
struct StampBuffer {
  double* values = nullptr;    ///< CSR values
  double* residual = nullptr;
  double* rowScale = nullptr;
};

/// Padded slots of one lane whose kind touches terminals 0..T-1:
/// the residual row of each terminal and the CSR value of each terminal
/// pair (row-major).  0 — the trash element — for ground and for pairs
/// outside the pattern.
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
      : values_(buffer.values),
        residual_(buffer.residual),
        rowScale_(buffer.rowScale),
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
